"""Green and hdr on instances whose Bohr set is not {0}.

Of the 20 instances the acceptance criteria share, 13 carry `bohr_trivial`:
g = f there, and every certificate holds for free.  On these three pipeline
configs (sparse majorant, delta = 0.5, structured subset) both variants read
`ok` with no flag:

- N=20000, eps = eta = 0.1, seed 0, exponent 2/3: |B| = 2585 of the
  4001-point window [-2000, 2000], r = 134;
- N=2000, eps = eta = 0.2, seed 0, exponent 2/3: r = 44;
- N=2000, eps = eta = 0.2, seed 2, exponent 3/4: r = 43.

At N=2000 and eps >= 0.2 the spectrum lies in fhat's main lobe (every
frequency has |alpha| < 1/N), so ||n alpha|| <= eps for every |n| <= eps N
and B is the whole window [-eps N, eps N], 801 points.  Only the N=20000
instance has a B that the spectrum cuts down.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

import densemodel.pipeline as pipeline_mod
from densemodel.counting import LinearForm, count_integer
from densemodel.pipeline import PipelineConfig, run_pipeline
from densemodel.signals import (
    DiscreteSignal,
    FrequencyGrid,
    fourier_eval,
    grid_fourier,
    subtract,
)

INSTANCES = {
    "N20000": dict(N=20000, eps=0.1, eta=0.1, seed=0, exponent=2 / 3),
    "N2000-seed0": dict(N=2000, eps=0.2, eta=0.2, seed=0, exponent=2 / 3),
    "N2000-seed2": dict(N=2000, eps=0.2, eta=0.2, seed=2, exponent=3 / 4),
}
VARIANTS = ("green", "hdr")
CASES = [(name, variant) for name in INSTANCES for variant in VARIANTS]


@functools.cache
def run(name: str, variant: str):
    """The config and report data of one run, with the f and model report it made."""
    fn_name = f"{variant}_model"
    seen = []
    original = getattr(pipeline_mod, fn_name)

    def captured(f, nu, *args, **kwargs):
        rep = original(f, nu, *args, **kwargs)
        seen.append((f, rep))
        return rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline_mod, fn_name, captured)
        cfg = PipelineConfig(variant=variant, **INSTANCES[name])
        data = run_pipeline(cfg).data
    (f, rep), = seen
    return cfg, data, f, rep


@pytest.mark.parametrize("name, variant", CASES)
def test_ok_and_bohr_set_not_trivial(name, variant) -> None:
    cfg, data, _, _ = run(name, variant)
    size = data["model"]["checks"]["bohr_size"]
    window = 2 * math.floor(cfg.eps * cfg.N) + 1
    assert data["ok"]
    assert "bohr_trivial" not in data["flags"]
    assert size > 1
    if cfg.N == 2000:
        assert size == window == 801
    else:
        assert size < window


@pytest.mark.parametrize("name, variant", CASES)
def test_fourier_error_within_certificate(name, variant) -> None:
    _, _, f, rep = run(name, variant)
    cert = rep.fourier_err
    M = cert.grid_M
    j = int(np.argmax(np.abs(grid_fourier(subtract(f, rep.g), FrequencyGrid(M)))))

    def gap(alpha: float) -> float:
        return abs(fourier_eval(f, alpha) - fourier_eval(rep.g, alpha))

    around = [(j + t) / M for t in np.linspace(-1.0, 1.0, 9)]
    alphas = [*np.random.default_rng(0).random(64), *around]
    assert max(gap(a) for a in alphas) <= cert.certified_upper
    # at the argmax j/M itself the direct sum meets the grid maximum
    assert gap(j / M) == pytest.approx(cert.certified_lower, rel=1e-9)


@pytest.mark.parametrize("name, variant", [(n, v) for n, v in CASES
                                           if INSTANCES[n]["N"] == 2000])
def test_f_count_is_a_scaled_integer_count(name, variant) -> None:
    # count_integer takes supports of up to 10^4 points: N=2000 only
    cfg, data, f, _ = run(name, variant)
    c = np.unique(f.values[f.values != 0])
    assert len(c) == 1  # f = c 1_A: the sparse majorant is N/|S| on S
    form = LinearForm(cfg.form)
    indicator = DiscreteSignal(f.support_lo, (f.values != 0).astype(float))
    expected = float(c[0]) ** form.s * count_integer(form, [indicator] * form.s)
    assert data["counts"]["f"]["total"] == pytest.approx(expected, rel=1e-9)
