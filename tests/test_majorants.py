"""Majorant constructions and their measured pseudorandomness diagnostics."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemodel.errors import ValidationError
from densemodel.majorants import (
    Majorant,
    diagnose,
    make_random_sparse,
    make_squares,
    make_uniform,
    make_weighted_primes,
    max_correlation,
    max_lag_correlation,
    restriction_lower_estimate,
)
from densemodel.signals import DiscreteSignal, FrequencyGrid


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


class TestCorrelations:
    @pytest.mark.parametrize("l", [2, 3])
    def test_matches_brute_oracle(self, l) -> None:
        nu = make_random_sparse(30, 0.6, seed=3)
        val, exhaustive = max_correlation(nu, l, shift_samples=10 ** 6)
        assert exhaustive
        assert val == pytest.approx(brute_max_correlation(nu, l), rel=1e-12)

    def test_uniform_pair_correlation(self) -> None:
        # shifts (0, m): sum over the overlap has N - m terms, max at m = 1
        nu = make_uniform(20)
        val, exhaustive = max_correlation(nu, 2, shift_samples=100)
        assert exhaustive and val == pytest.approx(19 / 20)

    def test_sampled_mode_lower_bounds_exhaustive(self) -> None:
        nu = make_random_sparse(60, 0.7, seed=1)
        full, ex_full = max_correlation(nu, 3, shift_samples=10 ** 6, seed=0)
        part, ex_part = max_correlation(nu, 3, shift_samples=50, seed=0)
        assert ex_full and not ex_part
        assert part <= full + 1e-12


class TestDiagnose:
    def test_uniform_levels(self) -> None:
        nu = make_uniform(64)
        d = diagnose(nu)
        assert d.theta_decay <= 1e-6  # only grid slack
        assert d.theta_L2 == pytest.approx(1 / 64)
        assert d.theta_Linf == pytest.approx(1 / 64)

    def test_sparse_levels_and_provenance(self) -> None:
        nu = make_random_sparse(400, 2 / 3, seed=9)
        d = diagnose(nu, k_max=3, seed=9)
        size = nu.metadata["support_size"]
        assert d.theta_Linf == pytest.approx(1 / size)
        # sum nu^2 = |S| (N/|S|)^2 = N^2/|S|
        assert d.theta_L2 == pytest.approx(1 / size)
        assert set(d.corr) == {2, 3}
        assert d.provenance["seed"] == 9

    def test_restriction_estimate_is_lower_bound_at_nu(self) -> None:
        # the p-th moment of nuhat itself is always a candidate
        nu = make_random_sparse(200, 2 / 3, seed=4)
        grid = FrequencyGrid(2048)
        est = restriction_lower_estimate(nu, 4.0, grid, n_masks=0)
        from densemodel.signals import grid_fourier
        moment = float(np.mean(np.abs(grid_fourier(nu.signal, grid)) ** 4))
        assert est == pytest.approx(moment * nu.N / nu.l1_mass ** 4)

    def test_restriction_estimate_monotone_in_masks(self) -> None:
        nu = make_random_sparse(200, 2 / 3, seed=4)
        grid = FrequencyGrid(1024)
        base = restriction_lower_estimate(nu, 4.0, grid, n_masks=0, seed=0)
        more = restriction_lower_estimate(nu, 4.0, grid, n_masks=8, seed=0)
        assert more >= base - 1e-12

    @given(st.integers(min_value=10, max_value=60),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_correlation_scale_invariance(self, N, seed) -> None:
        # corr is a max of sums of products; doubling nu scales corr[2] by 4
        nu = make_random_sparse(N, 0.8, seed)
        val, _ = max_correlation(nu, 2, shift_samples=10 ** 6)
        doubled = Majorant(nu.signal.scaled(2.0), 2 * nu.N, dict(nu.metadata))
        val2, _ = max_correlation(doubled, 2, shift_samples=10 ** 6)
        assert val2 == pytest.approx(4 * val * N / (2 * N), rel=1e-9)


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

    @pytest.mark.parametrize("N", [1000, 20000])
    def test_sampled_path_keeps_draws_and_value(self, N) -> None:
        nu = make_random_sparse(N, 2 / 3, seed=5)
        val, exhaustive = max_correlation(nu, 2, shift_samples=300, seed=4)
        assert not exhaustive
        # the draws as first specified: one shift from arange(1, N) at a time
        rng = np.random.default_rng(4)
        lags = set()
        while len(lags) < 300:
            lags.add(int(rng.choice(np.arange(1, N), size=1, replace=False)[0]))
        assert val == self.direct(nu, sorted(lags)) / N

    def test_empty_lag_set(self) -> None:
        nu = make_random_sparse(100, 2 / 3, seed=0)
        assert max_lag_correlation(nu, []) == 0.0
        assert max_lag_correlation(nu, np.zeros(0, dtype=np.int64)) == 0.0
        assert max_correlation(make_uniform(1), 2) == (0.0, True)


class TestDiagnoseComputes:
    @pytest.mark.parametrize("nu", [
        make_random_sparse(300, 2 / 3, seed=2), make_squares(400),
        make_weighted_primes(500), make_uniform(200)],
        ids=["sparse", "squares", "primes", "uniform"])
    def test_no_sign_mask_beats_nu_at_p4(self, nu) -> None:
        # |phi| <= nu gives |phi * phi| <= nu * nu pointwise, so phi = nu has
        # the largest int |phihat|^4 = ||phi * phi||_2^2
        grid = FrequencyGrid(4096)
        assert (restriction_lower_estimate(nu, 4.0, grid, n_masks=8)
                == restriction_lower_estimate(nu, 4.0, grid, n_masks=0))

    def test_pair_correlation_over_every_lag(self) -> None:
        # N - 1 = 2999 lags: more than a sampled screen would draw
        N = 3000
        nu = make_random_sparse(N, 2 / 3, seed=0)
        d = diagnose(nu)
        assert d.corr[2] == max_lag_correlation(nu, np.arange(1, N)) / N
        assert d.corr_exhaustive[2] is True
        assert d.provenance["restriction_masks"] == 0

    def test_one_restriction_transform_and_no_sampled_correlation(self,
                                                                  monkeypatch) -> None:
        import densemodel.majorants as majorants

        nu = make_random_sparse(500, 2 / 3, seed=1)
        expected = diagnose(nu).as_dict()
        calls = []
        original = majorants.grid_fourier

        def counted(f, grid):
            calls.append(grid.M)
            return original(f, grid)

        def unexpected(*args, **kwargs):
            raise AssertionError("diagnose sampled shift tuples at k_max = 2")

        monkeypatch.setattr(majorants, "grid_fourier", counted)
        monkeypatch.setattr(majorants, "max_correlation", unexpected)
        assert diagnose(nu).as_dict() == expected
        assert len(calls) == 1


class TestRestrictionGrid:
    def test_short_grid_does_not_fold(self) -> None:
        # nu * nu spans 2 span - 1 points; a grid of M = 1024 < 2 span - 1 would
        # fold it and add the overlaps to the p = 4 moment
        N = 2000
        nu = make_random_sparse(N, 2 / 3, seed=0)
        short = restriction_lower_estimate(nu, 4.0, FrequencyGrid(1024), n_masks=0)
        full = restriction_lower_estimate(nu, 4.0, FrequencyGrid(3999), n_masks=0)
        assert short == pytest.approx(full, rel=1e-12)
        # the exact integral: int |nuhat|^4 = ||nu * nu||_2^2
        auto = np.convolve(nu.signal.values, nu.signal.values)
        exact = float(np.sum(auto ** 2)) * N / nu.l1_mass ** 4
        assert short == pytest.approx(exact, rel=1e-9)
