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
    validate_majorization,
)
from densemodel.pipeline import select_subset
from densemodel.signals import (
    DiscreteSignal,
    align,
    FrequencyGrid,
    fourier_eval,
    grid_fourier,
    lp_norm,
)


@pytest.fixture(scope="module")
def sparse_instance():
    nu = make_random_sparse(600, 2 / 3, seed=11)
    f, _ = select_subset(nu, 0.5, "structured", 0)
    return f, nu


class TestMajorization:
    def test_accepts_dominated(self, sparse_instance) -> None:
        f, nu = sparse_instance
        assert validate_majorization(f, nu)

    def test_rejects_excess(self) -> None:
        nu = make_uniform(10)
        f = DiscreteSignal(1, np.full(10, 1.5))
        assert not validate_majorization(f, nu)
        with pytest.raises(ValidationError, match="first at n=1"):
            green_model(f, nu, 0.2, 0.2)

    def test_rejects_negative(self) -> None:
        nu = make_uniform(10)
        f = DiscreteSignal(5, np.array([-0.1]))
        assert not validate_majorization(f, nu)


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
                     DiscreteSignal.interval(nu.N).scaled(0.5)):
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
        # the N=300, seed 7 golden instance: on the M = 1024 grid the slack
        # 2 pi H ||d||_1 / (2M) is about 0.9 ||d||_1 at H = 300, so grid_max plus
        # slack exceeds the trivial bound |fhat - ghat| <= ||f - g||_1
        nu = make_random_sparse(300, 2 / 3, seed=7)
        f, _ = select_subset(nu, 0.5, "structured", 7)
        rep = hahn_banach_model(f, nu)
        err = rep.fourier_err
        _, fv, gv = align(f, rep.g)
        assert err.l1_norm == pytest.approx(float(np.sum(np.abs(fv - gv))), rel=1e-12)
        assert err.certified_upper == err.l1_norm
        assert err.certified_upper < err.grid_max + err.lipschitz_slack
        assert rep.checks["t_upper"] == err.certified_upper

    def test_direction_count_domain(self, sparse_instance) -> None:
        f, nu = sparse_instance
        with pytest.raises(ValidationError):
            hahn_banach_model(f, nu, directions=2)

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

    @pytest.mark.parametrize("variant", sorted(NAMES))
    def test_claims_reach_the_pipeline_report(self, variant) -> None:
        from densemodel.pipeline import PipelineConfig, run_model, run_pipeline

        cfg = PipelineConfig(N=200, variant=variant, eps=0.2, eta=0.2, seed=5)
        nu = make_random_sparse(cfg.N, cfg.exponent, cfg.seed)
        f, _ = select_subset(nu, cfg.delta, cfg.selection, cfg.seed)
        model = run_model(variant, f, nu, eps=cfg.eps, eta=cfg.eta, k=cfg.k, p=cfg.p,
                          grid=None, tol=cfg.tol, strict=False)
        assert [c[0] for c in model.claims] == self.NAMES[variant]
        assert "claims" not in model.as_dict()
        claims = run_pipeline(cfg).data["claims"]
        # the model's claims follow fourier_err_upper, in the model's order
        stated = claims[1:1 + len(model.claims)]
        assert [(c["name"], c["kind"], c["value"], c["bound"], c["ok"]) for c in stated] == \
            [(n, "certified-bound", v, b, bool(ok)) for n, v, b, ok in model.claims]
        assert claims[len(model.claims) + 1]["name"] == "transfer"


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
