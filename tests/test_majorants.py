"""Majorant constructions and their measured pseudorandomness diagnostics."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densemodel
from densemodel.errors import EXIT_RESOURCE, ResourceError, ValidationError
from densemodel.majorants import (
    Majorant,
    diagnose,
    make_random_sparse,
    make_squares,
    make_uniform,
    make_weighted_primes,
    max_lag_correlation,
)
from densemodel.signals import DiscreteSignal, FrequencyGrid, default_grid, grid_fourier


def brute_max_correlation(nu: Majorant, l: int) -> float:
    """Oracle: exhaustive max over distinct shift tuples starting at 0."""
    N = nu.N
    v = np.zeros(N)
    sig = nu.signal
    v[sig.support_lo - 1: sig.support_hi] = sig.values
    best = 0.0
    for rest in itertools.combinations(range(1, N), l - 1):
        shifts = (0,) + rest
        total = sum(
            np.prod([v[n + m] for m in shifts])
            for n in range(N - max(shifts)))
        best = max(best, float(total))
    return best / N


class TestConstructors:
    def test_uniform_is_interval_indicator(self) -> None:
        nu = make_uniform(10)
        assert np.all(nu.signal.values == 1.0)
        assert nu.l1_mass == 10.0

    @pytest.mark.parametrize("N,exponent,seed", [
        (100, 0.5, 0), (500, 2 / 3, 1), (2000, 0.75, 2)])
    def test_sparse_mass_is_exactly_N(self, N, exponent, seed) -> None:
        nu = make_random_sparse(N, exponent, seed)
        assert nu.l1_mass == pytest.approx(N, rel=1e-12)

    def test_sparse_is_deterministic_per_seed(self) -> None:
        a = make_random_sparse(300, 2 / 3, 5)
        b = make_random_sparse(300, 2 / 3, 5)
        assert np.array_equal(a.signal.values, b.signal.values)

    def test_sparse_empty_draw_resamples_with_flag(self) -> None:
        # N=4 at a tiny exponent makes empty draws likely for some seed
        for seed in range(200):
            nu = make_random_sparse(4, 0.05, seed)
            if nu.metadata["resampled"]:
                return
        pytest.skip("no empty draw found in 200 seeds")

    def test_squares_weights(self) -> None:
        nu = make_squares(30)
        assert nu.signal(4) == 4.0 and nu.signal(9) == 6.0
        assert nu.signal(5) == 0.0
        # mass sum 2m over m^2 <= 30 is 2+4+6+8+10 = 30
        assert nu.l1_mass == 30.0

    @pytest.mark.parametrize("N", [4, 15, 16, 17, 1000, 1024])
    def test_squares_match_the_loop(self, N) -> None:
        # reference: one entry per m while m^2 <= N, on the window [1, last square]
        vals = []
        m = 1
        while m * m <= N:
            vals += [0.0] * (m * m - len(vals) - 1) + [2.0 * m]
            m += 1
        sig = make_squares(N).signal
        assert sig.support_lo == 1 and sig.values.tolist() == vals

    def test_primes_mass_rescaled_to_N(self) -> None:
        nu = make_weighted_primes(100)
        assert nu.l1_mass == pytest.approx(100.0, rel=1e-12)
        assert nu.signal(4) == 0.0 and nu.signal(97) > 0.0

    def test_mass_window_enforced(self) -> None:
        with pytest.raises(ValidationError):
            Majorant(DiscreteSignal(1, np.array([1.0])), 100, {})

    def test_negative_values_rejected(self) -> None:
        with pytest.raises(ValidationError):
            Majorant(DiscreteSignal(1, np.array([-1.0, 50.0])), 40, {})

    def test_support_outside_window_rejected(self) -> None:
        with pytest.raises(ValidationError):
            Majorant(DiscreteSignal(0, np.ones(10) * 2), 10, {})

    def test_window_cap_counts_the_autocorrelation(self) -> None:
        # one point of mass N: the check comes before any N-sized array
        at_cap = Majorant(DiscreteSignal(1, np.array([2.0 ** 23])), 2 ** 23)
        assert at_cap.N == 2 ** 23  # 2N - 1 = 2^24 - 1 points
        with pytest.raises(ResourceError, match="autocorrelation has 16777217 points"):
            Majorant(DiscreteSignal(1, np.array([2.0 ** 23 + 1])), 2 ** 23 + 1)

    def test_window_is_nu_on_one_to_N_read_only(self) -> None:
        nu = make_squares(30)
        assert nu.window.tolist() == [nu.signal(n) for n in range(1, 31)]
        assert not nu.window.flags.writeable


def _in_one_gib(call: str) -> subprocess.CompletedProcess:
    """`densemodel.majorants.<call>` in a child process limited to 1 GiB of
    address space; a `ResourceError` prints its message and exits 3."""
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from densemodel import majorants\n"
            "from densemodel.errors import ResourceError\n"
            f"try:\n    majorants.{call}\n"
            "except ResourceError as e:\n    print(e)\n    sys.exit(e.exit_code)\n")
    src = str(Path(densemodel.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


class TestMakersRefuseOversizedWindows:
    """Each maker asks the window cap before it allocates an N-sized array."""

    @pytest.mark.parametrize("call, N", [
        ("make_uniform(2 ** 30)", 2 ** 30),
        ("make_random_sparse(2 ** 30, 0.5, 0)", 2 ** 30),
        ("make_weighted_primes(2 ** 30)", 2 ** 30),
        ("make_squares(2 ** 40)", 2 ** 40),
    ], ids=["uniform", "sparse", "primes", "squares"])
    def test_resource_error_not_memory_error(self, call, N) -> None:
        done = _in_one_gib(call)
        assert done.returncode == EXIT_RESOURCE, done.stderr
        assert done.stdout == (f"majorant window [1, {N}] exceeds cap 16777216: "
                               f"its autocorrelation has {2 * N - 1} points\n")


class TestCorrelations:
    def test_matches_brute_oracle(self) -> None:
        nu = make_random_sparse(30, 0.6, seed=3)
        assert nu.corr2 == pytest.approx(brute_max_correlation(nu, 2), rel=1e-12)

    def test_uniform_pair_correlation(self) -> None:
        # shifts (0, m): sum over the overlap has N - m terms, max at m = 1
        nu = make_uniform(20)
        assert nu.corr2 == pytest.approx(19 / 20)
        assert nu.corr2 == pytest.approx(brute_max_correlation(nu, 2), rel=1e-12)


class TestDiagnose:
    def test_uniform_levels(self) -> None:
        nu = make_uniform(64)
        d = diagnose(nu)
        assert d["theta_decay"] <= 1e-6  # only grid slack
        assert d["theta_L2"] == pytest.approx(1 / 64)
        assert d["theta_Linf"] == pytest.approx(1 / 64)

    def test_sparse_levels_and_provenance(self) -> None:
        nu = make_random_sparse(400, 2 / 3, seed=9)
        d = diagnose(nu)
        size = nu.metadata["support_size"]
        assert d["theta_Linf"] == pytest.approx(1 / size)
        # sum nu^2 = |S| (N/|S|)^2 = N^2/|S|
        assert d["theta_L2"] == pytest.approx(1 / size)
        assert set(d["corr"]) == {"2"}
        assert d["provenance"] == {"grid_M": default_grid(400).M}

    def test_restriction_estimate_is_lower_bound_at_nu(self) -> None:
        # the moment of nuhat itself: on a grid of M >= 2 span - 1 points,
        # which folds nothing of nu * nu, the grid mean is the exact integral
        nu = make_random_sparse(200, 2 / 3, seed=4)
        span = nu.signal.support_hi - nu.signal.support_lo + 1
        grid = FrequencyGrid(2048)
        assert grid.M >= 2 * span - 1
        # |nuhat(-j/M)| = |nuhat(j/M)|: each 0 < j < M/2 stands for two points
        quartic = np.abs(grid_fourier(nu.signal, grid)) ** 4
        moment = float((quartic[0] + 2 * np.sum(quartic[1:1024]) + quartic[1024]) / 2048)
        assert nu.restriction_p4 == pytest.approx(moment * nu.N / nu.l1_mass ** 4,
                                                  rel=1e-12)
        assert diagnose(nu)["restriction_estimate"] == {"4.0": nu.restriction_p4}

    @given(st.integers(min_value=10, max_value=60),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_correlation_scale_invariance(self, N, seed) -> None:
        # corr is a max of sums of products; doubling nu scales corr[2] by 4
        nu = make_random_sparse(N, 0.8, seed)
        doubled = Majorant(DiscreteSignal(nu.signal.support_lo, nu.signal.values * 2.0),
                           2 * nu.N, dict(nu.metadata))
        assert doubled.corr2 == pytest.approx(4 * nu.corr2 * N / (2 * N), rel=1e-9)
        assert nu.corr2 == pytest.approx(brute_max_correlation(nu, 2), rel=1e-12)


class TestMaxLagCorrelation:
    @staticmethod
    def direct(nu: Majorant, lags) -> float:
        """Oracle: every lag by the same direct sum the library keeps."""
        v = np.zeros(nu.N)
        v[nu.signal.support_lo - 1: nu.signal.support_hi] = nu.signal.values
        return max([0.0] + [float(np.sum(v[:nu.N - m] * v[m:])) for m in lags])

    def test_many_tied_lags_match_brute_force(self) -> None:
        # {2^k} is a Sidon set: each of its 45 differences occurs once, so 45
        # lags tie at the maximum 100^2 and every other lag is 0
        N = 1000
        vals = np.zeros(N)
        vals[[2 ** k - 1 for k in range(10)]] = 100.0
        nu = Majorant(DiscreteSignal(1, vals), N)
        assert max_lag_correlation(nu, np.arange(1, N)) == 10_000.0
        assert brute_max_correlation(nu, 2) * N == 10_000.0

    @pytest.mark.parametrize("N,seed", [(50, 0), (700, 1), (3000, 2)])
    def test_bit_identical_to_every_lag_direct(self, N, seed) -> None:
        for nu in (make_random_sparse(N, 2 / 3, seed), make_squares(N),
                   make_weighted_primes(N), make_uniform(N)):
            lags = np.arange(1, N)
            assert max_lag_correlation(nu, lags) == self.direct(nu, lags)
            part = np.random.default_rng(seed).choice(lags, size=N // 3, replace=False)
            assert max_lag_correlation(nu, part) == self.direct(nu, part)

    def test_empty_lag_set(self) -> None:
        nu = make_random_sparse(100, 2 / 3, seed=0)
        assert max_lag_correlation(nu, []) == 0.0
        assert max_lag_correlation(nu, np.zeros(0, dtype=np.int64)) == 0.0


class TestDiagnoseComputes:
    @pytest.mark.parametrize("nu", [
        make_random_sparse(300, 2 / 3, seed=2), make_squares(400),
        make_weighted_primes(500), make_uniform(200)],
        ids=["sparse", "squares", "primes", "uniform"])
    def test_no_sign_mask_beats_nu_at_p4(self, nu) -> None:
        # |phi| <= nu gives |phi * phi| <= nu * nu pointwise, so phi = nu has
        # the largest int |phihat|^4 = ||phi * phi||_2^2, which restriction_p4 holds
        top = nu.restriction_p4 * nu.l1_mass ** 4 / nu.N
        rng = np.random.default_rng(0)
        for _ in range(8):
            phi = nu.signal.values * rng.choice([-1.0, 1.0], size=len(nu.signal.values))
            assert float(np.sum(np.convolve(phi, phi) ** 2)) <= top * (1 + 1e-12)

    def test_pair_correlation_over_every_lag(self) -> None:
        # N - 1 = 2999 lags: more than a sampled screen would draw
        N = 3000
        nu = make_random_sparse(N, 2 / 3, seed=0)
        d = diagnose(nu)
        assert d["corr"]["2"] == max_lag_correlation(nu, np.arange(1, N)) / N

    def test_one_restriction_transform_and_no_sampled_correlation(self,
                                                                  monkeypatch) -> None:
        # the one transform is theta_decay's, of nu - 1_[N] on default_grid(N); the
        # p = 4 moment takes none, and no level draws a random number
        import densemodel.signals as signals

        expected = diagnose(make_random_sparse(2000, 2 / 3, seed=1))
        nu = make_random_sparse(2000, 2 / 3, seed=1)  # no level measured yet
        seen = []
        original = signals.grid_fourier

        def recorded(f, g):
            seen.append((np.array_equal(f.values, nu.signal.values), g.M))
            return original(f, g)

        def unexpected(*args, **kwargs):
            raise AssertionError("diagnose drew a random number")

        for name, module in list(sys.modules.items()):
            if name.startswith("densemodel") and vars(module).get("grid_fourier") is original:
                monkeypatch.setattr(module, "grid_fourier", recorded)
        monkeypatch.setattr(np.random, "default_rng", unexpected)
        assert diagnose(nu) == expected
        assert seen == [(False, default_grid(nu.N).M)]


class TestRestrictionGrid:
    def test_short_grid_does_not_fold(self) -> None:
        # nu * nu spans 2 span - 1 points; a grid shorter than that would fold
        # it and add the overlaps to the p = 4 moment, but the moment is read
        # off the autocorrelation and takes no grid
        N = 2000
        nu = make_random_sparse(N, 2 / 3, seed=0)
        short = diagnose(nu)["restriction_estimate"]["4.0"]
        assert short == nu.restriction_p4
        # the exact integral: int |nuhat|^4 = ||nu * nu||_2^2
        auto = np.convolve(nu.signal.values, nu.signal.values)
        exact = float(np.sum(auto ** 2)) * N / nu.l1_mass ** 4
        assert short == pytest.approx(exact, rel=1e-12)
