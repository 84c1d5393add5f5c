"""Large spectra and Bohr sets with exact membership certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densemodel.bohr import (
    bohr_enumerate,
    bohr_measure,
    bohr_measure_fourier,
    circle_distance,
    spectrum,
)
from densemodel.errors import ResourceError, ValidationError
from densemodel.majorants import make_random_sparse, make_uniform
from densemodel.pipeline import build_majorant, select_subset
from densemodel.signals import (
    DiscreteSignal,
    FrequencyGrid,
    default_grid,
    fourier_at_grid_points,
    fourier_eval,
    grid_fourier,
    grid_fourier_rounding,
)


def in_bohr(n: int, freqs, eps: float, N: int) -> bool:
    """Oracle membership test straight from the definition."""
    if abs(n) > eps * N:
        return False
    return all(abs(a * n - round(a * n)) <= eps + 1e-12 for a in freqs)


class TestCircleDistance:
    def test_known_values(self) -> None:
        assert circle_distance(np.array([0.25]))[0] == 0.25
        assert circle_distance(np.array([0.75]))[0] == 0.25
        assert circle_distance(np.array([1.4]))[0] == pytest.approx(0.4)
        assert circle_distance(np.array([-0.3]))[0] == pytest.approx(0.3)

    def test_half_is_half(self) -> None:
        assert circle_distance(np.array([0.5]))[0] == 0.5


class TestSpectrum:
    def test_interval_spectrum_contains_zero(self) -> None:
        nu = make_uniform(50)
        spec = spectrum(nu.signal, nu, eta=0.5)
        assert 0.0 in list(spec.representatives)
        assert spec.threshold == pytest.approx(0.5 * 50)

    def test_threshold_respected_on_grid(self) -> None:
        nu = make_random_sparse(200, 2 / 3, seed=2)
        f = nu.signal
        spec = spectrum(f, nu, eta=0.3)
        for alpha in spec.representatives[:20]:
            assert abs(fourier_eval(f, float(alpha))) >= spec.threshold - 1e-6

    def test_grid_density_scales_with_eta(self) -> None:
        nu = make_uniform(100)
        fine = spectrum(nu.signal, nu, eta=0.05)
        coarse = spectrum(nu.signal, nu, eta=0.4)
        assert fine.M > coarse.M
        assert fine.M >= math.ceil(4 * math.pi * 100 / 0.05)

    def test_cap_flags_or_raises(self, monkeypatch) -> None:
        import densemodel.bohr as bohr_mod

        monkeypatch.setattr(bohr_mod, "M_CAP_DEFAULT", 64)
        nu = make_uniform(100)
        spec = spectrum(nu.signal, nu, eta=0.1)
        assert spec.capped and spec.M == 64
        with pytest.raises(ResourceError):
            spectrum(nu.signal, nu, eta=0.1, strict=True)


class TestBohrEnumerate:
    @given(st.lists(st.floats(min_value=0, max_value=1, exclude_max=True),
                    min_size=0, max_size=3),
           st.sampled_from([0.05, 0.1, 0.2, 0.3]),
           st.integers(min_value=10, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_membership_symmetry_floor(self, freqs, eps, N) -> None:
        B = bohr_enumerate(np.array(freqs), eps, N)
        elems = set(int(n) for n in B.elements)
        assert 0 in elems
        assert all(-n in elems for n in elems)
        window = range(-int(eps * N) - 1, int(eps * N) + 2)
        assert elems == {n for n in window if in_bohr(n, freqs, eps, N)}
        floor = 0.5 * eps * N * math.ceil(2 / eps) ** (-len(freqs))
        assert B.size >= floor
        assert B.pigeonhole_floor == pytest.approx(floor)

    def test_nesting_in_eps(self) -> None:
        freqs = np.array([0.123, 0.456])
        small = bohr_enumerate(freqs, 0.05, 500)
        large = bohr_enumerate(freqs, 0.2, 500)
        assert set(small.elements).issubset(set(large.elements))

    def test_nesting_in_frequency_set(self) -> None:
        wide = bohr_enumerate(np.array([0.123]), 0.1, 500)
        narrow = bohr_enumerate(np.array([0.123, 0.77]), 0.1, 500)
        assert set(narrow.elements).issubset(set(wide.elements))

    def test_empty_frequency_set_is_window(self) -> None:
        B = bohr_enumerate(np.zeros(0), 0.1, 100)
        assert set(B.elements) == set(range(-10, 11))

    def test_eps_domain(self) -> None:
        with pytest.raises(ValidationError):
            bohr_enumerate(np.zeros(0), 0.0, 100)
        with pytest.raises(ValidationError):
            bohr_enumerate(np.zeros(0), 1.5, 100)

    def test_scan_window_past_cap_refused(self, monkeypatch) -> None:
        import densemodel.bohr as bohr_mod

        monkeypatch.setattr(bohr_mod, "MAX_CONV_LENGTH", 1001)
        # [-500, 500] is 1001 points, at the cap; [-1000, 1000] is past it
        assert bohr_enumerate(np.zeros(0), 0.25, 2000).size == 1001
        with pytest.raises(ResourceError, match="exceeds cap 1001"):
            bohr_enumerate(np.zeros(0), 0.5, 2000)

    @pytest.mark.parametrize("eps, N", [(0.25, 400), (0.13, 401), (0.5, 64)])
    @pytest.mark.parametrize("freqs", [
        [],
        [0.3],
        [0.5],  # n alpha lands on k + 1/2 at every odd n
        [0.25, 0.75, 0.125, 1 / 3],
        list(np.random.default_rng(5).random(40)),
        list(np.random.default_rng(6).random(700) * 0.01),  # more than one chunk
    ], ids=["r0", "r1", "half", "ties", "r40", "r700"])
    def test_half_scan_matches_full_window(self, freqs, eps, N) -> None:
        from densemodel.bohr import MEMBERSHIP_TOL

        nmax = math.floor(eps * N)
        n = np.arange(-nmax, nmax + 1)
        x = np.outer(n, np.asarray(freqs, dtype=np.float64))
        keep = np.all(np.abs(x - np.round(x)) <= eps + MEMBERSHIP_TOL, axis=1)
        B = bohr_enumerate(np.array(freqs), eps, N)
        assert B.elements.dtype == n.dtype
        assert np.array_equal(B.elements, n[keep])

    def test_many_frequencies_prunes(self) -> None:
        rng = np.random.default_rng(0)
        freqs = rng.random(2000)
        B = bohr_enumerate(freqs, 0.4, 2000)
        assert 0 in set(B.elements)
        for n in list(B.elements)[:10]:
            assert in_bohr(int(n), freqs, 0.4, 2000)


class TestBohrMeasure:
    def test_normalized_and_symmetric(self) -> None:
        B = bohr_enumerate(np.array([0.2]), 0.15, 300)
        sigma = bohr_measure(B)
        assert float(np.sum(sigma.values)) == pytest.approx(1.0)
        assert sigma.support_lo == -sigma.support_hi
        mass_hat = fourier_eval(sigma, 0.0)
        assert mass_hat == pytest.approx(1.0)

    def test_representative_phase_bound(self) -> None:
        # |1 - sigmahat(alpha)| <= 2 pi eps at each defining frequency
        freqs = np.array([0.123, 0.456])
        eps = 0.1
        B = bohr_enumerate(freqs, eps, 400)
        sigma = bohr_measure(B)
        for a in freqs:
            assert abs(1 - fourier_eval(sigma, a)) <= 2 * math.pi * eps + 1e-9

    @pytest.mark.parametrize("freqs, eps, N", [([0.2], 0.15, 300),
                                               ([0.123, 0.456], 0.1, 4000),
                                               ([0.3], 0.01, 50),  # B = {0}
                                               ([0.0], 0.5, 1001)])
    def test_real_cosine_sum_matches_complex_direct_sum(self, freqs, eps, N) -> None:
        B = bohr_enumerate(np.array(freqs), eps, N)
        grid = FrequencyGrid(4096)
        j = np.array([0, 1, 7, 500, 2048, 4095, 10_000])
        got = bohr_measure_fourier(B, grid, j)
        want = fourier_at_grid_points(bohr_measure(B), grid, j)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want.real, rtol=0, atol=1e-14)
        np.testing.assert_allclose(want.imag, 0.0, atol=1e-14)
        # Re fhat(-k/M) = Re fhat(k/M): read k > M/2 at M - k of the half spectrum
        k = np.minimum(j % 4096, -j % 4096)
        np.testing.assert_allclose(got, grid_fourier(bohr_measure(B), grid)[k].real,
                                   rtol=0, atol=1e-13)
        assert got[0] == 1.0

    def test_direct_evaluation_cap(self) -> None:
        B = bohr_enumerate(np.array([0.2]), 0.15, 300)
        with pytest.raises(ResourceError, match="exceeds cap"):
            bohr_measure_fourier(B, FrequencyGrid((1 << 31) + 1), [1])


class TestSpectrumRounding:
    @pytest.mark.parametrize("N", [50, 333, 2000, 20000])
    def test_f_equal_nu_at_eta_one_keeps_frequency_zero(self, N) -> None:
        # |fhat(0)| = ||nu||_1 sits exactly on the threshold eta ||nu||_1
        from densemodel.majorants import make_squares, make_weighted_primes

        for nu in (make_random_sparse(N, 2 / 3, seed=N), make_squares(N),
                   make_weighted_primes(N), make_uniform(N)):
            spec = spectrum(nu.signal, nu, eta=1.0)
            assert 0 in spec.interval_indices, nu.metadata


def is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestFastSpectrumGrid:
    @pytest.mark.parametrize("N, eta, M", [(100, 0.4, 3200), (333, 0.25, 16875),
                                           (2000, 0.3, 84375),
                                           (20000, 0.1, 2_519_424)])
    def test_grid_is_first_5_smooth_length_covering(self, N, eta, M) -> None:
        nu = make_uniform(N)
        spec = spectrum(nu.signal, nu, eta=eta)
        need = math.ceil(4 * math.pi * N / eta)
        assert spec.M == M and not spec.capped
        assert is_5_smooth(M) and M >= need
        assert not any(is_5_smooth(m) for m in range(need, M))

    def test_cap_between_bound_and_rounding_holds_without_flag(self, monkeypatch) -> None:
        # ceil(4 pi 100 / 0.4) = 3142 fits the cap; only its rounding to 3200 does not
        import densemodel.bohr as bohr_mod

        monkeypatch.setattr(bohr_mod, "M_CAP_DEFAULT", 3150)
        nu = make_uniform(100)
        spec = spectrum(nu.signal, nu, eta=0.4)
        assert (spec.M, spec.capped) == (3150, False)
        assert spectrum(nu.signal, nu, eta=0.4, strict=True).M == 3150

    def test_half_circle_representatives_give_the_same_bohr_set(self) -> None:
        nu = make_random_sparse(2000, 2 / 3, seed=7)
        spec = spectrum(nu.signal, nu, eta=0.2)
        j = spec.interval_indices
        assert spec.r > 1 and np.all(2 * j <= spec.M)
        mirrored = np.concatenate([j, spec.M - j]) / spec.M
        half = bohr_enumerate(spec.representatives, 0.3, 2000)
        whole = bohr_enumerate(mirrored, 0.3, 2000)
        assert half.size > 1
        assert np.array_equal(half.elements, whole.elements)


def full_grid_oracle(f: DiscreteSignal, threshold: float, M: int) -> np.ndarray:
    """The spectrum rule on one full fine FFT: j <= M/2 with |fhat| >= threshold - rho."""
    grid = FrequencyGrid(M)
    mods = np.abs(grid_fourier(f, grid)[:M // 2 + 1])
    return np.nonzero(mods >= threshold - grid_fourier_rounding(f, grid))[0]


def _selected(kind: str, N: int):
    nu = build_majorant(kind, N, 2 / 3, 0)
    return select_subset(nu, 0.5, "structured", 0)[0], nu


def _odd_coarse_grid():
    # len f = 684, so the coarse grid is default_grid(2 684) = 5625 = 3^2 5^4
    nu = make_random_sparse(700, 2 / 3, seed=0)
    return nu.signal, nu


def _even_support():
    # f = nu on the even n only: |fhat(0)| = |fhat(1/2)| = ||f||_1
    nu = make_random_sparse(2000, 2 / 3, seed=0)
    sig = nu.signal
    return DiscreteSignal(sig.support_lo, sig.values * (sig.indices % 2 == 0)), nu


class TestCoarseToFineSpectrum:
    CASES = {
        "sparse-N2000": (lambda: _selected("sparse", 2000), 0.2, "direct"),
        "sparse-N20000": (lambda: _selected("sparse", 20000), 0.2, "direct"),
        "sparse-N50000": (lambda: _selected("sparse", 50000), 0.2, "direct"),
        "primes-N1000": (lambda: _selected("primes", 1000), 0.1, "fft"),
        "squares-N1000": (lambda: _selected("squares", 1000), 0.1, "fft"),
        "default-config": (lambda: _selected("sparse", 2000), 0.1, "fft"),
        "odd-M": (lambda: _selected("sparse", 2000), 0.3, "direct"),
        "odd-M0": (_odd_coarse_grid, 0.3, "direct"),
        "cells-at-0-and-half": (_even_support, 0.2, "direct"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_indices_match_full_grid_oracle(self, monkeypatch, name) -> None:
        import densemodel.bohr as bohr_mod

        build, eta, side = self.CASES[name]
        f, nu = build()
        direct = []
        original = bohr_mod.fourier_at_grid_points

        def recorded(sig, grid, j):
            direct.append(len(j))
            return original(sig, grid, j)

        monkeypatch.setattr(bohr_mod, "fourier_at_grid_points", recorded)
        spec = spectrum(f, nu, eta)
        assert ("direct" if direct else "fft") == side
        assert np.array_equal(spec.interval_indices,
                              full_grid_oracle(f, spec.threshold, spec.M))
        assert spec.r > 0
        M0 = default_grid(2 * len(f.values)).M
        if name == "odd-M":
            assert spec.M == 84_375
        if name == "odd-M0":
            assert M0 % 2 == 1 and M0 < spec.M
        if name == "cells-at-0-and-half":
            assert spec.M % 2 == 0 and M0 % 2 == 0
            assert {0, spec.M // 2} <= set(spec.interval_indices.tolist())

    @given(st.integers(min_value=-60, max_value=60),
           st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                    min_size=1, max_size=80),
           st.floats(min_value=1.05, max_value=4.0),
           st.floats(min_value=0.05, max_value=0.95))
    # fhat(x) = -4 sin^2(pi x): fhat and fhat' vanish at 0, and only the
    # curvature term keeps the cell at 0, where |fhat| reaches 4 pi^2 h^2
    @example(lo=-1, values=[1.0, -2.0, 1.0], ratio=4.0, q=1e-7)
    @example(lo=-1, values=[1.0, -2.0, 1.0], ratio=4.0, q=2e-8)
    @settings(max_examples=40, deadline=None)
    def test_dropped_cells_hold_no_admitted_point(self, lo, values, ratio, q) -> None:
        import densemodel.bohr as bohr_mod

        f = DiscreteSignal(lo, np.array(values))
        M = int(default_grid(len(values)).M * ratio)
        rho = grid_fourier_rounding(f, FrequencyGrid(M))
        threshold = q * float(np.sum(np.abs(f.values)))
        with pytest.MonkeyPatch.context() as mp:
            # every candidate set is returned, whatever the direct sums cost
            mp.setattr(bohr_mod, "DIRECT_TERM_COST", 0)
            kept = bohr_mod._candidates(f, M, threshold - 2 * rho)
        assert np.all(np.diff(kept) > 0) and np.all((kept >= 0) & (2 * kept <= M))
        dropped = np.setdiff1d(np.arange(M // 2 + 1), kept)
        mods = np.abs(fourier_at_grid_points(f, FrequencyGrid(M), dropped))
        assert np.all(mods < threshold - rho)
