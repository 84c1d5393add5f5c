"""The four bounded-approximant constructions and their certified chains."""

from __future__ import annotations

import math

import numpy as np
import pytest

from densemodel import models
from densemodel.errors import ValidationError
from densemodel.majorants import make_random_sparse, make_uniform
from densemodel.models import (
    _hb_constraint_row,
    clamp_to_unit_window,
    green_model,
    hahn_banach_model,
    hdr_model,
    naslund_model,
    require_majorization,
)
from densemodel.pipeline import select_subset
from densemodel.signals import (
    DiscreteSignal,
    align,
    default_grid,
    FrequencyGrid,
    fourier_eval,
    grid_fourier,
    grid_fourier_rounding,
    lp_norm,
    subtract,
)


@pytest.fixture(scope="module")
def sparse_instance():
    nu = make_random_sparse(600, 2 / 3, seed=11)
    f, _ = select_subset(nu, 0.5, "structured", 0)
    return f, nu


class TestMajorization:
    def test_accepts_dominated(self, sparse_instance) -> None:
        f, nu = sparse_instance
        require_majorization(f, nu)

    def test_rejects_excess(self) -> None:
        nu = make_uniform(10)
        f = DiscreteSignal(1, np.full(10, 1.5))
        with pytest.raises(ValidationError, match="first at n=1"):
            require_majorization(f, nu)
        with pytest.raises(ValidationError, match="first at n=1"):
            green_model(f, nu, 0.2, 0.2)

    def test_rejects_negative(self) -> None:
        nu = make_uniform(10)
        f = DiscreteSignal(5, np.array([-0.1]))
        with pytest.raises(ValidationError, match="first at n=5"):
            require_majorization(f, nu)


class TestGreen:
    def test_bounded_case_reproduces_f(self) -> None:
        # f = 1_[N]: its own bounded model; the whole spectrum collapses
        nu = make_uniform(64)
        rep = green_model(nu.signal, nu, eps=0.2, eta=0.2)
        assert rep.checks["off_spectrum_ok"]
        assert rep.checks["representative_ok"]
        assert rep.checks["linf_ok"]
        assert rep.g_linf <= rep.checks["linf_bound"] + 1e-9

    def test_mass_preserved(self, sparse_instance) -> None:
        f, nu = sparse_instance
        rep = green_model(f, nu, eps=0.2, eta=0.2)
        assert rep.mass_g == pytest.approx(rep.mass_f, rel=1e-9)

    def test_off_spectrum_certificate(self, sparse_instance) -> None:
        f, nu = sparse_instance
        rep = green_model(f, nu, eps=0.2, eta=0.2)
        assert rep.checks["off_spectrum_max"] <= rep.checks["off_spectrum_bound"] + 1e-9
        assert rep.checks["representative_max"] <= 2 * math.pi * 0.2 + 1e-9
        assert rep.checks["conv_theorem_rel_err"] < 1e-8

    def test_smoothing_is_double_convolution(self, sparse_instance) -> None:
        f, nu = sparse_instance
        rep = green_model(f, nu, eps=0.2, eta=0.2)
        grid = FrequencyGrid(512)
        # ghat = fhat * sigmahat^2, so |ghat| <= |fhat| pointwise
        gh = np.abs(grid_fourier(rep.g, grid))
        fh = np.abs(grid_fourier(f, grid))
        assert np.all(gh <= fh + 1e-8)

    def test_eps_domain(self, sparse_instance) -> None:
        f, nu = sparse_instance
        with pytest.raises(ValidationError):
            green_model(f, nu, eps=0.7, eta=0.2)
        with pytest.raises(ValidationError):
            green_model(f, nu, eps=0.2, eta=0.0)


class TestHdr:
    def test_l2_chain(self, sparse_instance) -> None:
        f, nu = sparse_instance
        rep = hdr_model(f, nu, eps=0.2)
        assert rep.checks["l2_ok"]
        assert rep.checks["l2_sum"] <= rep.checks["l2_bound"] * (1 + 1e-9)
        assert rep.params["eta"] == rep.params["eps"]

    def test_g_squared_summed_once(self, sparse_instance, monkeypatch) -> None:
        # g_l2_over_N and the L^2 claim read one sum of g^2
        f, nu = sparse_instance
        calls = []
        power_sum = models._power_sum

        def counted(sig, k):
            calls.append(k)
            return power_sum(sig, k)

        monkeypatch.setattr(models, "_power_sum", counted)
        rep = hdr_model(f, nu, eps=0.2)
        assert calls == [2]
        assert rep.checks["l2_sum"] == rep.g_l2 == float(np.sum(rep.g.values ** 2))
        assert rep.g_l2_over_N == rep.g_l2 / nu.N

    def test_single_convolution_profile(self, sparse_instance) -> None:
        f, nu = sparse_instance
        rep = hdr_model(f, nu, eps=0.2)
        grid = FrequencyGrid(512)
        gh = np.abs(grid_fourier(rep.g, grid))
        fh = np.abs(grid_fourier(f, grid))
        assert np.all(gh <= fh + 1e-8)

    def test_fourier_error_certificate(self, sparse_instance) -> None:
        f, nu = sparse_instance
        rep = hdr_model(f, nu, eps=0.2)
        rng = np.random.default_rng(0)
        for a in rng.random(200):
            d = abs(fourier_eval(f, a) - fourier_eval(rep.g, a))
            assert d <= rep.fourier_err.certified_upper + 1e-9


class TestHalfSpectrumChecks:
    @pytest.mark.parametrize("variant, power", [("green", 2), ("hdr", 1), ("naslund", 1)])
    def test_checks_equal_a_full_grid_recomputation(self, sparse_instance, variant,
                                                    power) -> None:
        from densemodel.bohr import bohr_enumerate, bohr_measure, spectrum

        f, nu = sparse_instance
        if variant == "naslund":
            rep = naslund_model(f, nu, k=3, p=4.0)
        else:
            rep = (green_model(f, nu, eps=0.2, eta=0.2) if variant == "green"
                   else hdr_model(f, nu, eps=0.2))
        eps, eta = rep.params["eps"], rep.params["eta"]
        spec = spectrum(f, nu, eta)
        sigma = bohr_measure(bohr_enumerate(spec.representatives, eps, nu.N))
        grid = FrequencyGrid(rep.params["grid_M"])
        fh = grid_fourier(f, grid)
        sh = grid_fourier(sigma, grid)
        off = np.abs(fh) < spec.threshold
        full = np.abs(fh) * np.abs(1.0 - sh ** power)
        assert off.any() and not off.all()
        assert rep.checks["off_spectrum_max"] == float(np.max(full[off]))
        assert rep.fourier_err.grid_max == float(np.max(np.abs(fh - grid_fourier(rep.g, grid))))


class TestNaslund:
    def test_width_from_decay_level(self, sparse_instance) -> None:
        f, nu = sparse_instance
        rep = naslund_model(f, nu, k=3, p=4.0)
        theta = lp_norm(nu.signal, np.inf) / nu.N
        want = min(0.5, (2.0 / math.log(1 / theta)) ** (1 / 6))
        assert rep.params["eps"] == pytest.approx(want)

    def test_lk_chains(self, sparse_instance) -> None:
        f, nu = sparse_instance
        rep = naslund_model(f, nu, k=3, p=4.0)
        assert rep.checks["lk_majorant_ok"]
        assert rep.checks["lk_collapse_ok"]
        assert rep.g_lk_over_N is not None
        corr = rep.checks["corr_constants"]
        assert corr["1"]["method"] == "exact"
        assert corr["2"]["method"] == "exact"

    def test_unverified_boundedness_flagged(self) -> None:
        # a barely sparse weight with tiny Bohr sets fails the size condition
        nu = make_random_sparse(40, 0.3, seed=1)
        f, _ = select_subset(nu, 1.0, "structured", 0)
        rep = naslund_model(f, nu, k=4, p=4.0)
        if not rep.checks["bohr_condition_ok"]:
            assert "unverified boundedness" in rep.flags

    def test_k_domain(self, sparse_instance) -> None:
        f, nu = sparse_instance
        with pytest.raises(ValidationError):
            naslund_model(f, nu, k=1, p=4.0)

    @pytest.mark.parametrize("k", [43, 46])
    def test_k_whose_collapse_bound_overflows_refused(self, sparse_instance, k) -> None:
        # 2^C(k, 2) N sum(...) passes the largest float from k = 43 here; at
        # k = 46 the factor 2^C(46, 2) = 2^1035 alone does
        f, nu = sparse_instance
        with pytest.raises(ValidationError, match=f"k = {k} is too large"):
            naslund_model(f, nu, k=k, p=4.0)

    def test_largest_finite_collapse_bound_kept(self, sparse_instance) -> None:
        f, nu = sparse_instance
        bound = naslund_model(f, nu, k=42, p=4.0).checks["lk_collapse_bound"]
        assert math.isfinite(bound) and bound > 1e297

    @pytest.mark.parametrize("N, p, capped", [(100, 4.0, True), (5000, 0.0, False)])
    def test_width_cap_flagged(self, N, p, capped) -> None:
        # uniform nu has theta = 1/N: (2 / log N)^(1/(p+2)) is 0.87 and 0.48 here
        nu = make_uniform(N)
        rep = naslund_model(nu.signal, nu, k=2, p=p)
        assert ("width_capped" in rep.flags) is capped
        assert (rep.params["eps"] == 0.5) is capped


class TestHahnBanach:
    def test_g_feasible_and_certified(self, sparse_instance) -> None:
        f, nu = sparse_instance
        rep = hahn_banach_model(f, nu)
        assert np.all(rep.g.values >= -1e-12)
        assert np.all(rep.g.values <= 1.0 + 1e-12)
        assert rep.checks["t_star"] <= rep.fourier_err.certified_upper + 1e-6
        assert rep.checks["converged"]

    def test_optimum_dominates_no_feasible_candidate(self, sparse_instance) -> None:
        # t* is a lower bound for the grid error of every clamped candidate
        f, nu = sparse_instance
        rep = hahn_banach_model(f, nu)
        grid = FrequencyGrid(1024)
        for cand in (clamp_to_unit_window(f, nu.N),
                     DiscreteSignal(1, np.full(nu.N, 0.5))):
            fh = grid_fourier(f, grid)
            ch = grid_fourier(cand, grid)
            assert rep.checks["t_star"] <= float(
                np.max(np.abs(fh - ch))) + 1e-6

    def test_bounded_f_gives_zero_optimum(self) -> None:
        nu = make_uniform(80)
        rep = hahn_banach_model(nu.signal, nu)
        assert rep.checks["t_star"] <= 1e-6
        assert rep.fourier_err.certified_upper <= 0.03 * 80

    def test_certificate_capped_by_l1_distance(self) -> None:
        # the N=300, seed 7 golden instance: d = f - g lies on [1, 300], so
        # H_c = 150 < M/2 = 512, and the multiplicative bound (grid_max + rho) /
        # cos(pi 150 / 1024) beats both the trivial bound |fhat - ghat| <=
        # ||f - g||_1 and the Lipschitz slack 2 pi H ||d||_1 / (2M), about
        # 0.9 ||d||_1 at H = 300
        nu = make_random_sparse(300, 2 / 3, seed=7)
        f, _ = select_subset(nu, 0.5, "structured", 7)
        rep = hahn_banach_model(f, nu)
        err = rep.fourier_err
        _, fv, gv = align(f, rep.g)
        assert err.l1_norm == pytest.approx(float(np.sum(np.abs(fv - gv))), rel=1e-12)
        grid = FrequencyGrid(1024)
        rho = grid_fourier_rounding(f, grid) + grid_fourier_rounding(rep.g, grid)
        multiplicative = (err.grid_max + rho) / math.cos(math.pi * 150 / 1024)
        assert err.certified_upper == pytest.approx(multiplicative, rel=1e-12)
        assert err.certified_upper < err.l1_norm
        assert err.certified_upper < err.grid_max + 2 * math.pi * 300 * err.l1_norm / 2048
        assert rep.checks["t_upper"] == err.certified_upper

    def test_certificate_on_a_grid_of_at_most_2_H_c_points(self) -> None:
        # N=2000, seed 7: d = f - g lies on [1, 2000], so H_c = 1000 and the
        # 1024-point LP grid has M <= 2 H_c.  The multiplicative bound does not
        # apply: the slack and the upper are the cap ||d||_1
        nu = make_random_sparse(2000, 2 / 3, seed=7)
        f, _ = select_subset(nu, 0.5, "structured", 7)
        rep = hahn_banach_model(f, nu)
        err = rep.fourier_err
        grid = FrequencyGrid(1024)
        assert err.grid_M == grid.M
        assert err.lipschitz_slack == err.l1_norm
        assert err.certified_upper == err.l1_norm < err.grid_max + err.lipschitz_slack
        assert rep.checks["t_upper"] == err.l1_norm

    def test_rows_on_half_grid_without_mirror_repeats(self, sparse_instance,
                                                      monkeypatch) -> None:
        # f and g are real: the row at (M - j, -psi) is the row at (j, psi)
        f, nu = sparse_instance
        made = []

        def record(N, alpha, psi, fhat_alpha):
            made.append((alpha, psi))
            return _hb_constraint_row(N, alpha, psi, fhat_alpha)

        monkeypatch.setattr(models, "_hb_constraint_row", record)
        rep = hahn_banach_model(f, nu)
        M, D = rep.params["grid_M"], rep.params["directions"]
        assert len(made) == rep.checks["rounds_constraints"]
        assert all(alpha <= 0.5 for alpha, _ in made)
        keys = []
        for alpha, psi in made:
            j, d = round(alpha * M), round(psi * D / (2 * math.pi)) % D
            assert abs(j - alpha * M) < 1e-9
            keys.append(min((j, d), ((M - j) % M, -d % D)))
        assert len(set(keys)) == len(keys)
        # converged: the returned g leaves no grid frequency violated
        assert rep.checks["converged"]
        mods = np.abs(grid_fourier(f, FrequencyGrid(M)) - grid_fourier(rep.g, FrequencyGrid(M)))
        assert np.max(mods) * math.cos(math.pi / D) <= rep.checks["t_star"] + rep.params["tol"]

    def test_zero_f_needs_no_solve(self, monkeypatch) -> None:
        def no_solve(*args, **kwargs):
            raise AssertionError("linprog called for f = 0")

        monkeypatch.setattr(models, "linprog", no_solve)
        nu = make_random_sparse(200, 2 / 3, seed=3)
        rep = hahn_banach_model(DiscreteSignal(1, np.zeros(200)), nu)
        assert not np.any(rep.g.values)
        assert rep.checks["t_star"] == 0.0
        assert rep.checks["converged"]
        assert rep.checks["rounds_constraints"] == 0
        assert rep.flags == []

    def test_round_cap_keeps_t_upper_an_upper_bound(self, sparse_instance,
                                                    monkeypatch) -> None:
        f, nu = sparse_instance
        monkeypatch.setattr(models, "HB_MAX_ROUNDS", 1)
        rep = hahn_banach_model(f, nu)
        assert "row_generation_cap_reached" in rep.flags
        assert not rep.checks["converged"]
        t_upper = rep.checks["t_upper"]
        assert rep.checks["t_star"] <= t_upper
        # g is feasible, so the certified sup of |fhat - ghat| holds off the grid too
        for alpha in np.random.default_rng(6).random(64):
            assert abs(fourier_eval(f, alpha) - fourier_eval(rep.g, alpha)) <= t_upper


class TestSmoothingCertificate:
    """Each smoothing's certified sup |fhat - ghat| against the maximum on 2^21
    points of the circle, less that transform's rounding bound."""

    MODELS = {
        "green": lambda f, nu: green_model(f, nu, eps=0.2, eta=0.2),
        "hdr": lambda f, nu: hdr_model(f, nu, eps=0.2),
        "naslund": lambda f, nu: naslund_model(f, nu, k=3, p=4.0),
    }

    @pytest.fixture(scope="class")
    def instance(self):
        nu = make_random_sparse(2000, 2 / 3, seed=7)
        f, _ = select_subset(nu, 0.5, "structured", 7)
        return f, nu

    @pytest.mark.parametrize("variant", sorted(MODELS))
    def test_upper_holds_and_is_within_cos_pi_8(self, instance, variant) -> None:
        f, nu = instance
        rep = self.MODELS[variant](f, nu)
        err = rep.fourier_err
        grid = FrequencyGrid(err.grid_M)
        assert grid == default_grid(rep.g.support_hi - rep.g.support_lo + 1)
        d = subtract(f, rep.g)
        brute = FrequencyGrid(1 << 21)
        top = float(np.max(np.abs(grid_fourier(d, brute)))) - grid_fourier_rounding(d, brute)
        rho = grid_fourier_rounding(f, grid) + grid_fourier_rounding(rep.g, grid)
        assert top <= err.certified_upper
        assert err.certified_upper <= err.grid_max * 1.0824 + 2 * rho


class TestClamp:
    def test_clips_and_restricts(self) -> None:
        g = DiscreteSignal(-2, np.array([5.0, 1.0, 0.5, -1.0, 2.0, 0.25]))
        c = clamp_to_unit_window(g, 3)
        assert c.support_lo == 1 and len(c.values) == 3
        assert list(c.values) == [0.0, 1.0, 0.25]


class TestOptimizedInterpreter:
    def test_hdr_corr2_under_python_O(self, sparse_instance) -> None:
        # -O strips assert statements; corr2 must not depend on one
        import json
        import os
        import subprocess
        import sys

        import densemodel

        script = (
            "import json, sys\n"
            "from densemodel.majorants import make_random_sparse\n"
            "from densemodel.models import hdr_model\n"
            "from densemodel.pipeline import select_subset\n"
            "nu = make_random_sparse(600, 2 / 3, seed=11)\n"
            "f, _ = select_subset(nu, 0.5, 'structured', 0)\n"
            "rep = hdr_model(f, nu, 0.2)\n"
            "print(json.dumps({'optimize': sys.flags.optimize,\n"
            "                  'corr2': rep.checks['corr2'],\n"
            "                  'l2_ok': rep.checks['l2_ok']}))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(densemodel.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        got = json.loads(out.stdout)
        f, nu = sparse_instance
        v = np.zeros(nu.N)
        v[nu.signal.support_lo - 1: nu.signal.support_hi] = nu.signal.values
        brute = max(float(np.dot(v[:-m], v[m:])) for m in range(1, nu.N)) / nu.N
        assert got["optimize"] == 1
        assert got["corr2"] == hdr_model(f, nu, 0.2).checks["corr2"]
        assert got["corr2"] == pytest.approx(brute, rel=1e-12)
        assert got["l2_ok"]


class TestNaslundDifferenceSet:
    @pytest.mark.parametrize("freqs, eps, N", [
        ([], 0.001, 100),                 # {0}
        ([], 0.3, 2000),                  # an interval, FFT path
        ([0.1], 0.2, 500),
        ([0.137, 0.42], 0.3, 2000),
        ([0.0123, 0.3331, 0.71], 0.5, 3000),
    ])
    def test_matches_pairwise_unique(self, freqs, eps, N) -> None:
        from densemodel.bohr import bohr_enumerate
        from densemodel.models import _positive_differences

        B = bohr_enumerate(freqs, eps, N)
        diffs = np.unique(B.elements[None, :] - B.elements[:, None])
        got = _positive_differences(B)
        assert got.dtype == diffs.dtype
        assert np.array_equal(got, diffs[diffs > 0])

    def test_exact_order_three_against_direct_sum(self) -> None:
        from densemodel.bohr import bohr_enumerate
        from densemodel.models import _bohr_restricted_correlations

        nu = make_random_sparse(300, 0.6, seed=2)
        B = bohr_enumerate([0.21, 0.47], 0.1, nu.N)
        corr = _bohr_restricted_correlations(nu, B, 3)
        assert corr[3]["method"] == "exact"
        v = np.zeros(nu.N)
        v[nu.signal.support_lo - 1: nu.signal.support_hi] = nu.signal.values
        diffs = np.unique(B.elements[None, :] - B.elements[:, None])
        pos = [int(d) for d in diffs if 0 < d < nu.N]
        brute = max(float(np.sum(v[:nu.N - b] * v[a:a + nu.N - b] * v[b:]))
                    for i, a in enumerate(pos) for b in pos[i + 1:])
        assert corr[3]["value"] == pytest.approx(brute / nu.N, rel=1e-12)


class TestNaslundLargeBohrSet:
    """Bohr sets of any size go through the one difference-set path."""

    def test_corr2_ranges_over_differences_only(self) -> None:
        # B is the 4801 even numbers in [-4800, 4800], so only even lags count
        from densemodel.bohr import bohr_enumerate
        from densemodel.models import _bohr_restricted_correlations

        nu = make_random_sparse(12000, 2 / 3, seed=1)
        B = bohr_enumerate([0.5], 0.4, nu.N)
        assert B.size == 4801 and np.all(B.elements % 2 == 0)
        v = np.zeros(nu.N)
        v[nu.signal.support_lo - 1: nu.signal.support_hi] = nu.signal.values
        even = max(float(np.dot(v[:-m], v[m:])) for m in range(2, 9601, 2)) / nu.N
        every = max(float(np.dot(v[:-m], v[m:])) for m in range(1, 9601)) / nu.N
        assert every > even * 1.05  # an odd lag would show
        corr = _bohr_restricted_correlations(nu, B, 2)
        assert corr[2]["method"] == "exact"
        assert corr[2]["value"] == pytest.approx(even, rel=1e-12)
        assert corr[2]["value"] == pytest.approx(1.7138, abs=1e-4)

    @pytest.mark.parametrize("freqs, eps, N", [([0.5], 0.4, 12000), ([0.123], 0.3, 30000)])
    def test_positive_differences_match_integer_convolution(self, freqs, eps, N) -> None:
        from densemodel.bohr import bohr_enumerate
        from densemodel.models import _positive_differences

        B = bohr_enumerate(freqs, eps, N)
        assert B.size > 4096
        e = B.elements
        ind = np.zeros(int(e[-1] - e[0]) + 1, dtype=np.int64)
        ind[e - e[0]] = 1
        counts = np.convolve(ind, ind[::-1])[len(ind):]
        assert np.array_equal(_positive_differences(B), np.nonzero(counts)[0] + 1)


class TestModelClaims:
    """Each construction states its own certified inequalities."""

    NAMES = {
        "green": ["off_spectrum", "representative", "g_linf"],
        "hdr": ["off_spectrum", "representative", "g_l2"],
        "naslund": ["off_spectrum", "representative", "g_lk"],
        "hahn_banach": ["lp_optimum"],
    }

    # the checks each claim's bound and verdict are also written to
    CHECK_KEYS = {
        "off_spectrum": ("off_spectrum_bound", "off_spectrum_ok"),
        "representative": ("representative_bound", "representative_ok"),
        "g_linf": ("linf_bound", "linf_ok"),
        "g_l2": ("l2_bound", "l2_ok"),
        "g_lk": ("lk_collapse_bound", "lk_collapse_ok"),
        "lp_optimum": ("t_upper", "converged"),
    }

    @staticmethod
    def _model(variant):
        from densemodel.pipeline import PipelineConfig, run_model

        cfg = PipelineConfig(N=200, variant=variant, eps=0.2, eta=0.2, seed=5)
        nu = make_random_sparse(cfg.N, cfg.exponent, cfg.seed)
        f, _ = select_subset(nu, cfg.delta, cfg.selection, cfg.seed)
        model = run_model(variant, f, nu, eps=cfg.eps, eta=cfg.eta, k=cfg.k, p=cfg.p,
                          tol=cfg.tol, strict=False)
        return cfg, f, model

    @pytest.mark.parametrize("variant", sorted(NAMES))
    def test_claims_reach_the_pipeline_report(self, variant) -> None:
        from densemodel.pipeline import run_pipeline

        cfg, _, model = self._model(variant)
        assert [c.name for c in model.claims] == self.NAMES[variant]
        assert "claims" not in model.as_dict()
        claims = run_pipeline(cfg).data["claims"]
        # the model's claims follow fourier_err_upper, in the model's order
        stated = claims[1:1 + len(model.claims)]
        assert [c["kind"] for c in stated] == ["certified-bound"] * len(stated)
        assert [c.as_dict() for c in model.claims] == stated
        assert claims[len(model.claims) + 1]["name"] == "transfer"

    @pytest.mark.parametrize("variant", sorted(NAMES))
    def test_checks_are_read_off_the_claims(self, variant) -> None:
        _, _, model = self._model(variant)
        for claim in model.claims:
            bound_key, ok_key = self.CHECK_KEYS[claim.name]
            assert (model.checks[bound_key], model.checks[ok_key]) == (claim.bound,
                                                                       claim.ok)

    @pytest.mark.parametrize("variant", sorted(NAMES))
    def test_counting_verdicts_are_read_off_their_claims(self, variant) -> None:
        from densemodel.counting import (
            LinearForm,
            count_comparison,
            threshold_extract,
            transfer_error_bound,
        )

        cfg, f, model = self._model(variant)
        form = LinearForm(cfg.form)
        threshold = threshold_extract(model.g, cfg.delta, cfg.N)
        reports = {"transfer": transfer_error_bound(form, f, model.g),
                   "threshold_floor": threshold,
                   "count_comparison": count_comparison(form, model.g, threshold)}
        for name, report in reports.items():
            assert report.claim.name == name
            assert report.ok is report.as_dict()["ok"] is report.claim.ok

    @pytest.mark.parametrize("variant, capped", [(v, False) for v in sorted(NAMES)]
                             + [("hahn_banach", True)])
    def test_pipeline_ok_is_the_conjunction_of_its_claims(self, variant, capped,
                                                          monkeypatch) -> None:
        from densemodel.pipeline import PipelineConfig, run_pipeline

        if capped:
            # one LP round stops the row generation short: lp_optimum fails
            monkeypatch.setattr(models, "HB_MAX_ROUNDS", 1)
        data = run_pipeline(PipelineConfig(N=200, variant=variant, eps=0.2, eta=0.2,
                                           seed=5)).data
        verdicts = [c["ok"] for c in data["claims"] if "ok" in c]
        assert len(verdicts) == len(data["claims"]) - 1
        assert data["ok"] is all(verdicts) is not capped


class TestHahnBanachWarmStart:
    @staticmethod
    def _instance(N, seed):
        nu = make_random_sparse(N, 2 / 3, seed=seed)
        f, _ = select_subset(nu, 0.5, "structured", seed)
        return f, nu

    @pytest.mark.parametrize("N, seed", [(300, 7), (1000, 0)])
    def test_cold_solve_of_final_rows_agrees(self, N, seed, monkeypatch) -> None:
        from scipy.optimize import linprog

        f, nu = self._instance(N, seed)
        made = []

        def record(*args):
            made.append(_hb_constraint_row(*args))
            return made[-1]

        monkeypatch.setattr(models, "_hb_constraint_row", record)
        rep = hahn_banach_model(f, nu)
        assert rep.checks["converged"]
        assert rep.checks["rounds_constraints"] == len(made)
        A, b = zip(*made)
        cost = np.zeros(N + 1)
        cost[N] = 1.0
        res = linprog(cost, A_ub=np.array(A), b_ub=np.array(b),
                      bounds=[(0.0, 1.0)] * N + [(0.0, None)], method="highs")
        assert res.success
        assert res.x[N] == pytest.approx(rep.checks["t_star"], rel=1e-9)

    @pytest.mark.parametrize("N, seed", [(300, 7), (600, 11)])
    def test_each_row_reaches_the_solver_once(self, N, seed, monkeypatch) -> None:
        f, nu = self._instance(N, seed)
        made, passed, rounds = [], [], []
        solve = models.linprog
        transform = models.grid_fourier

        def record_row(*args):
            made.append(_hb_constraint_row(*args))
            return made[-1]

        def record_solve(*args, **kwargs):
            passed.append((kwargs["A_ub"], kwargs["b_ub"]))
            return solve(*args, **kwargs)

        def record_transform(sig, grid):
            rounds.append(grid.M)
            return transform(sig, grid)

        monkeypatch.setattr(models, "_hb_constraint_row", record_row)
        monkeypatch.setattr(models, "linprog", record_solve)
        monkeypatch.setattr(models, "grid_fourier", record_transform)
        rep = hahn_banach_model(f, nu)
        assert sum(A.shape[0] for A, _ in passed) == rep.checks["rounds_constraints"]
        # in the order they were made, each row once
        assert np.array_equal(np.vstack([A for A, _ in passed]),
                              np.array([row for row, _ in made]))
        assert np.array_equal(np.concatenate([b for _, b in passed]),
                              np.array([b for _, b in made]))
        # one solve per LP round: fhat once, then ghat after every solve
        assert len(passed) == len(rounds) - 1 >= 2

    def test_round_without_new_rows_ends_the_loop(self, monkeypatch) -> None:
        # at tol = 0 rounding leaves a violated j whose rows are all in the LP;
        # re-solving the same LP would return the same g up to the round cap
        f, nu = self._instance(300, 7)
        sizes = []
        solve = models.linprog

        def record_solve(*args, **kwargs):
            sizes.append(kwargs["A_ub"].shape[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(models, "linprog", record_solve)
        rep = hahn_banach_model(f, nu, tol=0.0)
        assert len(sizes) < models.HB_MAX_ROUNDS
        assert min(sizes) >= 1
        assert not rep.checks["converged"]
        assert "row_generation_cap_reached" in rep.flags


@pytest.fixture(scope="module", params=[(1025, 7), (1500, 0)], ids=["N1025", "N1500"])
def hb_class_sum_run(request):
    """One HB run at N > 1024 with every row it made and every solve it ran."""
    N, seed = request.param
    nu = make_random_sparse(N, 2 / 3, seed=seed)
    f, _ = select_subset(nu, 0.5, "structured", seed)
    rows, solves = [], []
    solve = models.linprog

    def record_row(*args):
        rows.append(_hb_constraint_row(*args))
        return rows[-1]

    def record_solve(*args, **kwargs):
        x = solve(*args, **kwargs)
        solves.append((kwargs["A_ub"].shape, x))
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_hb_constraint_row", record_row)
        mp.setattr(models, "linprog", record_solve)
        rep = hahn_banach_model(f, nu)
    return f, nu, rep, rows, solves


class TestHahnBanachClassSums:
    """Past N = M the LP's columns are g's sums over the residue classes mod M."""

    def test_every_solve_has_one_column_per_class(self, hb_class_sum_run) -> None:
        *_, rep, _, solves = hb_class_sum_run
        assert rep.params["grid_M"] == 1024
        assert len(solves) >= 2
        # 1024 class columns and t
        assert {shape[1] for shape, _ in solves} == {1025}

    def test_full_width_cold_solve_agrees(self, hb_class_sum_run) -> None:
        from scipy.optimize import linprog

        f, nu, rep, rows, _ = hb_class_sum_run
        N, M = nu.N, rep.params["grid_M"]
        assert rep.checks["converged"]
        A, b = zip(*rows)
        A = np.array(A)
        # g(n) enters every row through the column of its class, (n - 1) mod M
        wide = np.hstack([A[:, np.arange(N) % M], A[:, -1:]])
        cost = np.zeros(N + 1)
        cost[N] = 1.0
        res = linprog(cost, A_ub=wide, b_ub=np.array(b),
                      bounds=[(0.0, 1.0)] * N + [(0.0, None)], method="highs")
        assert res.success
        assert res.x[N] == pytest.approx(rep.checks["t_star"], rel=1e-9)

    def test_g_is_a_bounded_split_of_the_columns(self, hb_class_sum_run) -> None:
        _, nu, rep, _, solves = hb_class_sum_run
        N, M = nu.N, rep.params["grid_M"]
        g = rep.g
        assert (g.support_lo, len(g.values)) == (1, N)
        assert np.all((g.values >= 0.0) & (g.values <= 1.0))
        sums = np.bincount(np.arange(N) % M, weights=g.values, minlength=M)
        G = solves[-1][1][:M]
        assert np.max(np.abs(sums - G)) <= 1e-12

    def test_g_is_the_l1_nearest_split(self, hb_class_sum_run) -> None:
        f, nu, rep, _, solves = hb_class_sum_run
        N, M = nu.N, rep.params["grid_M"]
        fv = np.zeros(N)
        fv[f.indices - 1] = f.values  # 0 <= f <= nu lives on [1, N]
        oracle = _l1_fibre_minimum(fv, np.arange(N) % M, solves[-1][1][:M])
        assert rep.fourier_err.l1_norm == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_spread_attains_the_fibre_minimum(self, seed) -> None:
        # classes of 3 or 2 points, targets with ties at 0 and 1, f above 1 too
        rng = np.random.default_rng(seed)
        N, K = 19, 7
        fv = rng.choice([0.0, 0.3, 1.0, 1.7, rng.random()], N)
        members = np.zeros(3 * K)
        members[:N] = 1.0
        target = np.zeros(3 * K)
        target[:N] = np.minimum(fv, 1.0)
        members, target = members.reshape(3, K), target.reshape(3, K)
        G = rng.random(K) * members.sum(axis=0)
        G[:2] = (0.0, members[:, 1].sum())  # an empty class and a full one
        g = models._hb_spread(G, target, members)[:N]
        assert np.all((g >= 0.0) & (g <= 1.0))
        classes = np.arange(N) % K
        assert np.max(np.abs(np.bincount(classes, weights=g, minlength=K) - G)) <= 1e-12
        assert np.sum(np.abs(fv - g)) == pytest.approx(
            _l1_fibre_minimum(fv, classes, G), rel=1e-9, abs=1e-12)


def _l1_fibre_minimum(fv: np.ndarray, classes: np.ndarray, G: np.ndarray) -> float:
    """min sum |f - g| over g in [0, 1]^N with class sums G, as an LP in (g, s)."""
    from scipy.optimize import linprog
    from scipy.sparse import eye, hstack, vstack

    N, K = len(fv), len(G)
    I = eye(N, format="csr")
    A_eq = np.zeros((K, 2 * N))
    A_eq[classes, np.arange(N)] = 1.0
    # s >= f - g and s >= g - f
    res = linprog(np.r_[np.zeros(N), np.ones(N)],
                  A_ub=vstack([hstack([-I, -I]), hstack([I, -I])]), b_ub=np.r_[-fv, fv],
                  A_eq=A_eq, b_eq=G, bounds=[(0.0, 1.0)] * N + [(0.0, None)] * N,
                  method="highs")
    assert res.success
    return res.fun


@pytest.fixture(scope="module", params=[(300, 7), (1000, 0), (1025, 7)],
                ids=["N300", "N1000", "N1025"])
def hb_row_run(request):
    """One HB run with, for each solve, the (j, psi, fhat - ghat at j) of its new rows."""
    N, seed = request.param
    nu = make_random_sparse(N, 2 / 3, seed=seed)
    f, _ = select_subset(nu, 0.5, "structured", seed)
    transforms, pending, solves = [], [], []
    solve, transform = models.linprog, models.grid_fourier

    def record_transform(sig, grid):
        transforms.append(transform(sig, grid))
        return transforms[-1]

    def record_row(K, alpha, psi, fhat_alpha):
        j = round(alpha * models.HB_GRID_M)
        # transforms[0] is fhat; ghat is 0 before the first solve
        ghat = transforms[-1][j] if len(transforms) > 1 else 0.0
        pending.append((j, psi, fhat_alpha - ghat))
        return _hb_constraint_row(K, alpha, psi, fhat_alpha)

    def record_solve(*args, **kwargs):
        assert kwargs["A_ub"].shape[0] == len(pending)
        solves.append(list(pending))
        pending.clear()
        return solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "grid_fourier", record_transform)
        mp.setattr(models, "_hb_constraint_row", record_row)
        mp.setattr(models, "linprog", record_solve)
        rep = hahn_banach_model(f, nu)
    return rep, solves


class TestHahnBanachRowRule:
    """Each round adds one row per violated frequency: the direction nearest its phase."""

    def test_one_row_per_frequency_at_the_nearest_direction(self, hb_row_run) -> None:
        rep, solves = hb_row_run
        D = rep.params["directions"]
        assert len(solves) >= 2
        assert sum(map(len, solves)) == rep.checks["rounds_constraints"]
        for rows in solves:
            assert len({j for j, _, _ in rows}) == len(rows)
            for j, psi, diff in rows:
                off = (psi - math.atan2(diff.imag, diff.real)) % (2 * math.pi)
                assert min(off, 2 * math.pi - off) <= math.pi / D + 1e-12, (j, psi, diff)
                # so this row is violated: Re(diff e^(-i psi)) >= |diff| cos(pi/D)
                assert (diff * complex(math.cos(psi), -math.sin(psi))).real >= \
                    abs(diff) * math.cos(math.pi / D) * (1 - 1e-12)

    def test_converged_grid_max_within_the_lp_bracket(self, hb_row_run) -> None:
        rep, _ = hb_row_run
        assert rep.checks["converged"]
        D, tol = rep.params["directions"], rep.params["tol"]
        assert rep.fourier_err.grid_max * math.cos(math.pi / D) <= rep.checks["t_star"] + tol
