"""Shows that every check in checks.py fails on a corrupted output.

Runs one small report per kind (a smoothing variant and hahn_banach), checks
that the true outputs pass, then feeds the checker corrupted copies of each
report and of its f and g, and prints which corruption each check caught.
Exits 1 if a true output fails or a corruption passes.  The library is not
modified.

Usage: python3 benchmarks/mutation_check.py [--seed N]
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from types import SimpleNamespace

import numpy as np

import checks
import tracing
import workloads


def signal(lo, values):
    return SimpleNamespace(support_lo=lo, values=np.asarray(values, dtype=np.float64))


def scaled(sig, factor):
    return signal(sig.support_lo, sig.values * factor)


def poked(sig, index, value):
    vals = sig.values.copy()
    vals[index] = value
    return signal(sig.support_lo, vals)


def edit(path, fn):
    """A corruption of the report: apply fn to the value at the key path."""
    def corrupt(data, f, g):
        data = copy.deepcopy(data)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]], data)
        return data, f, g
    return corrupt


def _direct_max(data, f, g):
    n, d = checks.difference(f, g)
    return abs(checks.direct_at_grid(n, d, np.array([checks.grid_argmax(
        n, d, data["model"]["params"]["grid_M"])]), data["model"]["params"]["grid_M"])[0])


COMMON = {
    "certified_upper below the direct |fhat - ghat| at the grid argmax":
        lambda d, f, g: edit(("model", "fourier_err", "certified_upper"),
                             lambda v, _: 0.999 * _direct_max(d, f, g))(d, f, g),
    "certified_upper = grid_max (no off-grid slack)":
        edit(("model", "fourier_err", "certified_upper"),
             lambda v, data: data["model"]["fourier_err"]["grid_max"]),
    "grid_max raised by 1%": edit(("model", "fourier_err", "grid_max"), lambda v, _: v * 1.01),
    "counts.f.total times 1 + 1e-6": edit(("counts", "f", "total"), lambda v, _: v * (1 + 1e-6)),
    "counts.f.diagonal times 1 + 1e-6": edit(("counts", "f", "diagonal"),
                                             lambda v, _: v * (1 + 1e-6)),
    "threshold size + 1": edit(("threshold", "size"), lambda v, _: v + 1),
    "subset mass_f times 1.01": edit(("subset", "mass_f"), lambda v, _: v * 1.01),
    "f shifted right by one": lambda d, f, g: (d, signal(f.support_lo + 1, f.values), g),
}

SMOOTHING = {
    "g scaled by 1.01": lambda d, f, g: (d, f, scaled(g, 1.01)),
    "mass_g times 1.01": edit(("model", "mass_g"), lambda v, _: v * 1.01),
    "g with its smallest value set to -1e-6":
        lambda d, f, g: (d, f, poked(g, int(np.argmin(g.values)), -1e-6)),
}

HAHN_BANACH = {
    "g with one value 1.01": lambda d, f, g: (d, f, poked(g, len(g.values) // 2, 1.01)),
    "g scaled by 1.01": lambda d, f, g: (d, f, scaled(g, 1.01)),
    "converged false": edit(("model", "checks", "converged"), lambda v, _: False),
    "t_star 1% above the grid error of g":
        edit(("model", "checks", "t_star"),
             lambda v, data: 1.01 * data["model"]["fourier_err"]["grid_max"]),
}

CASES = (
    ({"N": 2000, "variant": "hdr", "eps": 0.2, "eta": 0.2, "seed": 0}, SMOOTHING),
    ({"N": 2000, "variant": "green", "eps": 0.3, "eta": 0.3, "seed": 1}, SMOOTHING),
    ({"N": 400, "variant": "hahn_banach", "seed": 3}, HAHN_BANACH),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    pipeline = workloads.load_pipeline()
    missed = 0
    for spec, extra in CASES:
        cfg = pipeline.PipelineConfig(**{**workloads.SPARSE, **spec})
        capture = tracing.ModelCapture()
        undo = capture.install()
        try:
            data = json.loads(pipeline.run_pipeline(cfg).to_json())
        finally:
            tracing.restore(undo)
        f, g = capture.take()
        label = f"{cfg.variant} N={cfg.N} seed={cfg.seed}"
        base = checks.check_report(cfg, data, f, g, np.random.default_rng(args.seed))
        print(f"{label}: true output {'passes' if not base else 'FAILS: ' + '; '.join(base)}")
        missed += bool(base)
        for name, corrupt in {**COMMON, **extra}.items():
            fails = checks.check_report(cfg, *corrupt(data, f, g),
                                        np.random.default_rng(args.seed))
            missed += not fails
            fired = sorted({msg.split(":", 1)[0] for msg in fails})
            print(f"  {'caught by ' + ', '.join(fired) if fails else 'MISSED'}: {name}")
    print("all corruptions caught" if not missed else f"{missed} problems")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
