"""Core signal layer: transforms, certified sup brackets, norms, CSV I/O."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemodel.errors import ResourceError, ValidationError
from densemodel.signals import (
    UNIT_ROUNDOFF,
    CertifiedSup,
    Claim,
    DiscreteSignal,
    FrequencyGrid,
    certify_sup,
    convolve,
    default_grid,
    fourier_at_grid_points,
    fourier_eval,
    fourier_sup_diff,
    grid_fourier,
    grid_fourier_rounding,
    lp_norm,
    next_fast_len,
    read_csv,
    subtract,
    write_csv,
)


def naive_fourier(f: DiscreteSignal, alpha: float) -> complex:
    """Independent oracle: direct summation of f(n) e(alpha n)."""
    return complex(sum(v * np.exp(2j * np.pi * alpha * n)
                       for n, v in zip(f.indices, f.values)))


small_signals = st.builds(
    DiscreteSignal,
    st.integers(min_value=-20, max_value=20),
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
             min_size=1, max_size=12).map(np.array),
)


class TestDiscreteSignal:
    def test_rejects_empty_values(self) -> None:
        with pytest.raises(ValidationError):
            DiscreteSignal(0, np.array([]))

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValidationError):
            DiscreteSignal(0, np.array([1.0, np.nan]))

    def test_values_read_only(self) -> None:
        f = DiscreteSignal.interval(5)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_call_outside_support_is_zero(self) -> None:
        f = DiscreteSignal(3, np.array([1.0, 2.0]))
        assert f(2) == 0.0 and f(3) == 1.0 and f(4) == 2.0 and f(5) == 0.0

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=20,
                    unique=True), st.booleans(), st.booleans(), st.data())
    def test_on_points_matches_hand_built_window(self, points, per_point, as_array,
                                                 data) -> None:
        # the points come in draw order, so mostly unsorted
        value = st.floats(min_value=-5, max_value=5, allow_nan=False)
        values = (data.draw(st.lists(value, min_size=len(points), max_size=len(points)))
                  if per_point else data.draw(value))
        lo, hi = min(points), max(points)
        window = np.zeros(hi - lo + 1)
        for i, n in enumerate(points):
            window[n - lo] = values[i] if per_point else values
        f = DiscreteSignal.on_points(np.array(points) if as_array else points, values)
        assert (f.support_lo, f.support_hi) == (lo, hi)
        assert np.array_equal(f.values, window)

    @pytest.mark.parametrize("points", [[], np.zeros(0, dtype=np.int64), [[1, 2]]])
    def test_on_points_needs_a_non_empty_point_list(self, points) -> None:
        with pytest.raises(ValidationError):
            DiscreteSignal.on_points(points, 1.0)

    def test_on_points_refuses_mismatched_values_and_huge_points(self) -> None:
        with pytest.raises(ValidationError, match="do not match"):
            DiscreteSignal.on_points([3, 1, 2], [1.0, 2.0])
        with pytest.raises(ValidationError, match="int64"):
            DiscreteSignal.on_points([10 ** 30], 1.0)

    def test_interval_is_indicator_of_1_to_N(self) -> None:
        f = DiscreteSignal.interval(4)
        assert f.support_lo == 1 and f.support_hi == 4
        assert np.all(f.values == 1.0)

    @given(small_signals, small_signals)
    def test_subtract_is_pointwise(self, f, g) -> None:
        h = subtract(f, g)
        for n in range(min(f.support_lo, g.support_lo) - 1,
                       max(f.support_hi, g.support_hi) + 2):
            assert h(n) == f(n) - g(n)


class TestFourier:
    @given(small_signals,
           st.floats(min_value=0, max_value=1, exclude_max=True))
    @settings(max_examples=50)
    def test_fourier_eval_matches_naive_sum(self, f, alpha) -> None:
        assert fourier_eval(f, alpha) == pytest.approx(
            naive_fourier(f, alpha), abs=1e-9)

    @given(small_signals)
    @settings(max_examples=30)
    def test_grid_fourier_matches_pointwise_eval(self, f) -> None:
        grid = FrequencyGrid(16)
        vals = grid_fourier(f, grid)
        assert len(vals) == 9
        for j in range(9):
            assert vals[j] == pytest.approx(fourier_eval(f, j / 16), abs=1e-9)

    def test_value_at_zero_is_mass(self) -> None:
        f = DiscreteSignal(1, np.array([1.0, 2.0, 3.0]))
        assert fourier_eval(f, 0.0) == pytest.approx(6.0)

    @given(small_signals)
    @settings(max_examples=30)
    def test_parseval(self, f) -> None:
        grid = FrequencyGrid(256)
        # |fhat(-j/M)| = |fhat(j/M)|: each 0 < j < M/2 stands for two points
        sq = np.abs(grid_fourier(f, grid)) ** 2
        mean_sq = float((sq[0] + 2 * np.sum(sq[1:128]) + sq[128]) / 256)
        assert mean_sq == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-9, abs=1e-9)

    @given(small_signals, small_signals)
    @settings(max_examples=30)
    def test_convolution_theorem(self, f, g) -> None:
        h = convolve(f, g)
        grid = FrequencyGrid(64)
        lhs = grid_fourier(h, grid)
        rhs = grid_fourier(f, grid) * grid_fourier(g, grid)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(
            1.0, float(np.max(np.abs(rhs))))

    def test_fft_and_direct_convolution_agree(self) -> None:
        rng = np.random.default_rng(0)
        f = DiscreteSignal(1, rng.random(600))
        g = DiscreteSignal(-3, rng.random(700))
        direct = np.convolve(f.values, g.values)
        h = convolve(f, g)
        assert h.support_lo == f.support_lo + g.support_lo
        assert np.max(np.abs(h.values - direct)) < 1e-9


class TestCertifiedSup:
    def test_bracket_contains_true_sup(self) -> None:
        rng = np.random.default_rng(1)
        f = DiscreteSignal(1, rng.random(40))
        g = DiscreteSignal(1, rng.random(40))
        est = fourier_sup_diff(f, g, FrequencyGrid(512))
        alphas = rng.random(20000)
        dense = max(abs(fourier_eval(f, a) - fourier_eval(g, a))
                    for a in alphas)
        assert est.certified_lower <= est.certified_upper
        assert dense <= est.certified_upper + 1e-9
        assert est.certified_lower <= dense + 1e-9

    def test_identical_signals_give_zero(self) -> None:
        f = DiscreteSignal.interval(10)
        est = fourier_sup_diff(f, f, FrequencyGrid(64))
        assert est.certified_upper == 0.0

    def test_slack_shrinks_with_grid(self) -> None:
        f = DiscreteSignal.interval(50)
        g = DiscreteSignal.zero()
        coarse = fourier_sup_diff(f, g, FrequencyGrid(256))
        fine = fourier_sup_diff(f, g, FrequencyGrid(4096))
        assert fine.lipschitz_slack < coarse.lipschitz_slack
        assert fine.certified_upper <= coarse.certified_upper + 1e-9

    def test_upper_capped_by_l1_norm(self) -> None:
        # at M = 8 the Lipschitz slack 2 pi 50 50 / 16 is far above ||f||_1 = 50;
        # the cap is the float sum 50 rounded up past its error bound 49 u 50
        f = DiscreteSignal.interval(50)
        est = fourier_sup_diff(f, DiscreteSignal.zero(), FrequencyGrid(8))
        assert 50.0 < est.l1_norm <= 50.0 * (1 + 4 * 50 * UNIT_ROUNDOFF)
        assert est.grid_max + est.lipschitz_slack > est.l1_norm
        assert est.certified_upper == est.l1_norm
        assert est.as_dict()["l1_norm"] == est.l1_norm

    def test_capped_upper_never_below_grid_max(self) -> None:
        # for f >= 0, |fhat(0)| = ||f||_1, and the FFT's sum can round a few
        # ulps above the l1 sum (1000 random values on M = 8 do for some seeds),
        # so the cap alone would invert the bracket
        est = CertifiedSup(grid_max=500.0, lipschitz_slack=900.0,
                           l1_norm=500.0 - 1e-13)
        assert est.certified_upper == est.grid_max == est.certified_lower

    def test_default_grid_floor(self) -> None:
        assert default_grid(10).M >= 4096
        assert default_grid(10 ** 4).M >= 4 * 10 ** 4

    @pytest.mark.parametrize("L, M", [(10, 4096), (2801, 11_250),
                                      (25136, 101_250), (69996, 281_250)])
    def test_default_grid_is_first_5_smooth_length(self, L, M) -> None:
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        need = max(4096, 4 * L)
        assert default_grid(L).M == M
        assert smooth(M) and M >= need
        assert not any(smooth(m) for m in range(need, M))


class TestClaim:
    # the (rel, abs) pads the package decides its verdicts with
    PADS = [(0.0, 0.0), (1e-12, 0.0), (1e-9, 0.0), (1e-12, 1e-12), (1e-9, 1e-9)]
    BOUNDS = [0.0, 1.0, 2.0 * math.pi * 0.1, 1234.5, 3.0e17]

    @pytest.mark.parametrize("rel, abs_", PADS)
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_at_most_holds_at_its_padded_edge_and_fails_past_it(self, rel, abs_,
                                                                 bound) -> None:
        edge = bound * (1 + rel) + abs_
        assert Claim.at_most("c", "exact", edge, bound, rel=rel, abs=abs_).ok is True
        past = math.nextafter(edge, math.inf)
        assert Claim.at_most("c", "exact", past, bound, rel=rel, abs=abs_).ok is False

    @pytest.mark.parametrize("rel, abs_", PADS)
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_at_least_holds_at_its_padded_edge_and_fails_past_it(self, rel, abs_,
                                                                  bound) -> None:
        edge = bound * (1 - rel) - abs_
        assert Claim.at_least("c", "exact", edge, bound, rel=rel, abs=abs_).ok is True
        past = math.nextafter(edge, -math.inf)
        assert Claim.at_least("c", "exact", past, bound, rel=rel, abs=abs_).ok is False

    def test_verdict_is_a_python_bool(self) -> None:
        # numpy operands would give np.bool_, which JSON cannot write
        claim = Claim.at_most("c", "exact", np.float64(1.0), np.float64(2.0))
        assert type(claim.ok) is bool

    def test_as_dict(self) -> None:
        assert Claim("c", "exact", 3).as_dict() == {"name": "c", "kind": "exact",
                                                    "value": 3}
        claim = Claim.at_least("c", "certified-bound", 2.0, 1.0)
        assert list(claim.as_dict().items()) == [
            ("name", "c"), ("kind", "certified-bound"), ("value", 2.0),
            ("bound", 1.0), ("ok", True)]


BRUTE_GRID = FrequencyGrid(1 << 21)


class TestMultiplicativeCertificate:
    """`certify_sup` against the maximum of |dhat| on 2^21 points of the circle,
    less the rounding bound of that transform."""

    @staticmethod
    def brute(d: DiscreteSignal) -> float:
        top = float(np.max(np.abs(grid_fourier(d, BRUTE_GRID))))
        return top - grid_fourier_rounding(d, BRUTE_GRID)

    @staticmethod
    def signal(lo: int, length: int, kind: str) -> DiscreteSignal:
        rng = np.random.default_rng(length)
        if kind == "gaussian":
            return DiscreteSignal(lo, rng.standard_normal(length))
        # a cosine peaked halfway between two default-grid points: grid_max
        # misses its sup by as much as any grid point can
        beta = (0.5 + int(rng.integers(1, 50))) / default_grid(length).M
        n = np.arange(lo, lo + length)
        return DiscreteSignal(lo, np.cos(2 * np.pi * beta * n + rng.random()))

    @pytest.mark.parametrize("kind", ["gaussian", "mid-cell cosine"])
    @pytest.mark.parametrize("lo, length", [(-700, 1), (-700, 2), (-350, 301),
                                            (-1000, 800), (-12, 25), (5000, 1200),
                                            (-3, 4096)])
    def test_upper_holds_and_is_within_cos_pi_8(self, lo, length, kind) -> None:
        d = self.signal(lo, length, kind)
        brute = self.brute(d)
        grid = default_grid(length)
        rho = grid_fourier_rounding(d, grid)
        est = certify_sup(d, grid_fourier(d, grid), grid, rho)
        assert brute <= est.certified_upper
        # default_grid has M >= 4 length > 2 H_c, so the factor is <= 1/cos(pi/8)
        assert est.certified_upper <= est.grid_max * 1.0824 + 2 * rho

    @pytest.mark.parametrize("extra", [1, 2, 7, 150])
    def test_upper_holds_on_grids_just_above_2_H_c(self, extra) -> None:
        # H_c = 150 for 301 points; M = 2 H_c + extra leaves cos(pi H_c / M) small
        d = self.signal(-350, 301, "gaussian")
        brute = self.brute(d)
        grid = FrequencyGrid(300 + extra)
        rho = grid_fourier_rounding(d, grid)
        est = certify_sup(d, grid_fourier(d, grid), grid, rho)
        multiplicative = (est.grid_max + rho) / math.cos(math.pi * 150 / grid.M)
        assert brute <= est.certified_upper
        assert est.certified_upper <= max(est.grid_max, multiplicative * (1 + 1e-12))


def three_bound_upper(d: DiscreteSignal, dhat: np.ndarray, grid: FrequencyGrid,
                      rho: float) -> float:
    """Oracle: the least of a Lipschitz bound, ||d||_1 and the multiplicative
    bound, as `certify_sup` took it before the Lipschitz bound was dropped.

    The Lipschitz bound is grid_max + 2 pi H ||d||_1 / (2M), H = max |n| over
    d's window, from |dhat'| <= 2 pi H ||d||_1 and every point of the circle
    lying within 1/(2M) of the grid.
    """
    M = grid.M
    grid_max = float(np.max(np.abs(dhat)))
    H = max(abs(d.support_lo), abs(d.support_hi))
    # the float sum rounded up past its error (n - 1) u ||d||_1, as certify_sup does
    l1 = lp_norm(d, 1) * (1.0 + 4.0 * (len(d.values) - 1) * UNIT_ROUNDOFF)
    slack = 2.0 * np.pi * H * l1 * (0.5 / M)
    H_c = -(-(d.support_hi - d.support_lo) // 2)
    if M > 2 * H_c:
        cos = math.sin(math.pi * (M - 2 * H_c) / (2 * M))
        upper = (grid_max + rho) / cos * (1.0 + 16.0 * UNIT_ROUNDOFF)
        slack = min(slack, upper - grid_max)
    return max(grid_max, min(grid_max + float(slack), l1))


class TestCertificateWithoutLipschitzBound:
    """The two-bound certificate against the three-bound oracle: the Lipschitz
    bound never decided, on any window, grid or signal below."""

    LENGTHS = (1, 2, 3, 8, 101, 1000, 5000)
    STARTS = ("at zero", "far right", "far left")

    @staticmethod
    def grids(length: int, rng) -> list:
        H_c = length // 2
        sizes = {2, 3, 2 * H_c, 2 * H_c + 1, 2 * H_c + 2, 3 * H_c + 5,
                 default_grid(length).M, 1 << 20, int(rng.integers(2, 1 << 20))}
        return [FrequencyGrid(M) for M in sorted(sizes) if M >= 2]

    @staticmethod
    def signal(start: str, length: int, kind: str, rng) -> DiscreteSignal:
        lo = {"at zero": 0, "far right": 10 ** 6, "far left": -(10 ** 6)}[start]
        lo -= length if start == "far left" else 0
        if kind == "zero":
            return DiscreteSignal(lo, np.zeros(length))
        if kind == "single point":
            vals = np.zeros(length)
            vals[int(rng.integers(length))] = rng.standard_normal()
            return DiscreteSignal(lo, vals)
        return DiscreteSignal(lo, rng.standard_normal(length))

    @pytest.mark.parametrize("kind", ["gaussian", "zero", "single point"])
    @pytest.mark.parametrize("start", STARTS)
    def test_upper_equals_the_three_bound_oracle(self, start, kind) -> None:
        rng = np.random.default_rng(25)
        cases = 0
        for length in self.LENGTHS:
            d = self.signal(start, length, kind, rng)
            for grid in self.grids(length, rng):
                dhat = grid_fourier(d, grid)
                rho = grid_fourier_rounding(d, grid)
                est = certify_sup(d, dhat, grid, rho)
                where = (length, grid.M)
                assert est.certified_upper == three_bound_upper(d, dhat, grid, rho), where
                assert est.lipschitz_slack <= est.l1_norm, where
                cases += 1
        assert cases >= 50

    def test_zero_difference_has_zero_slack(self) -> None:
        # g = f: rho, the rounding of f's and g's transforms, is not 0, and
        # the cap ||d||_1 = 0 keeps the margin (grid_max + rho) / cos at 0
        for M in (2, 7, 4096):
            d = DiscreteSignal(-3, np.zeros(9))
            grid = FrequencyGrid(M)
            est = certify_sup(d, grid_fourier(d, grid), grid, 1e-9)
            assert est.lipschitz_slack == est.certified_upper == 0.0


class TestNextFastLen:
    """scipy's `next_fast_len(n, real=True)`, the least 5-smooth number >= n, as oracle."""

    @staticmethod
    def mismatches(ns) -> list:
        from scipy.fft import next_fast_len as oracle

        return [(n, next_fast_len(n), oracle(n, real=True))
                for n in ns if next_fast_len(n) != oracle(n, real=True)][:5]

    def test_every_n_up_to_2_pow_20(self) -> None:
        assert self.mismatches(range(1, (1 << 20) + 1)) == []

    def test_each_5_smooth_number_below_2_pow_32_and_its_neighbours(self) -> None:
        top = 1 << 32
        smooth = [p2 * p3 * p5 for p2 in (2 ** a for a in range(32))
                  for p3 in (3 ** b for b in range(21))
                  for p5 in (5 ** c for c in range(14)) if p2 * p3 * p5 < top]
        assert len(smooth) > 1000
        assert all(next_fast_len(s) == s for s in smooth)
        assert self.mismatches(n for s in smooth for n in (s - 1, s + 1) if n >= 1) == []

    def test_seeded_sample_up_to_2_pow_40(self) -> None:
        rng = np.random.default_rng(20)
        ns = rng.integers(1, 1 << 40, size=10_000, endpoint=True)
        assert self.mismatches(int(n) for n in ns) == []

    def test_accepts_numpy_integers_and_returns_int(self) -> None:
        got = next_fast_len(np.int64(2801 * 8))
        assert got == 22_500 and type(got) is int

    @pytest.mark.parametrize("n", [0, -1, -(1 << 70)])
    def test_below_one_refused(self, n) -> None:
        with pytest.raises(ValidationError, match="n >= 1"):
            next_fast_len(n)

    def test_largest_length_below_2_pow_63_kept(self) -> None:
        top = 2 ** 25 * 3 ** 2 * 5 ** 15  # the largest 5-smooth number below 2^63
        assert top < 2 ** 63 and next_fast_len(top) == top
        assert next_fast_len(top - 1) == top

    @pytest.mark.parametrize("n", [2 ** 25 * 3 ** 2 * 5 ** 15 + 1, 2 ** 63, 1 << 70])
    def test_past_the_table_refused(self, n) -> None:
        with pytest.raises(ResourceError, match="below 2\\^63"):
            next_fast_len(n)


class TestNorms:
    def test_known_values(self) -> None:
        f = DiscreteSignal(1, np.array([3.0, -4.0]))
        assert lp_norm(f, 1) == 7.0
        assert lp_norm(f, 2) == 5.0
        assert lp_norm(f, np.inf) == 4.0

    def test_rejects_p_below_one(self) -> None:
        with pytest.raises(ValidationError):
            lp_norm(DiscreteSignal.interval(3), 0.5)


def _float_sum_families():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 17, 1000, 1 << 20):
        yield f"normal n={n}", rng.standard_normal(n)
    for n in (5, 1000, 100_000):
        # exponents over +-400 binades: every square stays finite
        yield f"wide n={n}", rng.standard_normal(n) * np.exp2(rng.integers(-400, 400, n))
    for n in (1000, 40_000):
        # cancellation down to a tiny remainder: the bound reads sum |x_i|
        a = rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, n))
        yield f"cancel n={n}", np.concatenate((a, -a[::-1], [3e-300]))
    yield "subnormal n=1000", rng.integers(-2 ** 52, 2 ** 52, 1000) * 2.0 ** -1074
    a = rng.standard_normal(40_000) * np.exp2(rng.integers(-60, 60, 40_000))
    a[rng.random(40_000) < 0.97] = 0.0
    yield "mostly zero n=40000", a
    yield "negative zeros n=10", np.full(10, -0.0)


FLOAT_SUM_FAMILIES = list(_float_sum_families())


class TestFloatSumBound:
    """lp_norm and fourier_eval sum with numpy at every length: a sum of n
    terms lies within (n - 1) u sum |x_i| of the exact sum, read from fsum."""

    ALPHA = 0.1234567

    @staticmethod
    def _assert_within(got: float, terms: np.ndarray) -> None:
        bound = (len(terms) - 1) * UNIT_ROUNDOFF * math.fsum(np.abs(terms))
        assert abs(got - math.fsum(terms)) <= bound

    @pytest.mark.parametrize("name, x", FLOAT_SUM_FAMILIES,
                             ids=[name for name, _ in FLOAT_SUM_FAMILIES])
    def test_l1_norm(self, name, x) -> None:
        self._assert_within(lp_norm(DiscreteSignal(-7, x), 1), np.abs(x))

    @pytest.mark.parametrize("name, x", FLOAT_SUM_FAMILIES,
                             ids=[name for name, _ in FLOAT_SUM_FAMILIES])
    def test_l2_norm(self, name, x) -> None:
        # s = float sum of x_i^2 is within (n - 1) u S of the exact S, so
        # sqrt(s) is within (n - 1) u sqrt(S) of sqrt(S); the rounding of
        # lp_norm's sqrt and of the reference's fsum and sqrt add 3u
        root = math.sqrt(math.fsum(x * x))
        assert abs(lp_norm(DiscreteSignal(-7, x), 2) - root) <= (len(x) + 2) * UNIT_ROUNDOFF * root

    @pytest.mark.parametrize("name, x", FLOAT_SUM_FAMILIES,
                             ids=[name for name, _ in FLOAT_SUM_FAMILIES])
    def test_signed_sum(self, name, x) -> None:
        # e(0 n) = 1 exactly, so fhat(0) is the plain sum of the values
        fhat = fourier_eval(DiscreteSignal(-7, x), 0.0)
        self._assert_within(fhat.real, x)
        assert fhat.imag == 0.0

    @pytest.mark.parametrize("name, x", FLOAT_SUM_FAMILIES,
                             ids=[name for name, _ in FLOAT_SUM_FAMILIES])
    def test_fourier_eval(self, name, x) -> None:
        f = DiscreteSignal(-7, x)
        terms = x * np.exp(2j * np.pi * self.ALPHA * f.indices.astype(np.float64))
        fhat = fourier_eval(f, self.ALPHA)
        self._assert_within(fhat.real, terms.real)
        self._assert_within(fhat.imag, terms.imag)


def _exact_sum(x: np.ndarray) -> Fraction:
    """sum x_i with no rounding: each x_i is m_i 2^e_i with |m_i| < 2^53 an integer."""
    mant, expo = np.frexp(x)
    m = (mant * 2.0 ** 53).astype(np.int64).tolist()
    e = (expo - 53).tolist()
    lo = min(e)
    return Fraction(sum(mi << (ei - lo) for mi, ei in zip(m, e))) * Fraction(2) ** lo


class TestL1CapRoundedUp:
    """The ||d||_1 cap holds against the exact sum, not only the float sum."""

    def test_nonnegative_d_over_40_binades(self) -> None:
        # d >= 0: sup |dhat| = dhat(0) = sum d exactly; on M = 1024 <= 2 H_c
        # the cap ||d||_1 is the certificate
        rng = np.random.default_rng(41)
        grid = FrequencyGrid(1024)
        n = 2000
        for _ in range(300):
            d = DiscreteSignal(1, rng.random(n) * np.exp2(rng.integers(-20, 21, n)))
            est = certify_sup(d, grid_fourier(d, grid), grid, grid_fourier_rounding(d, grid))
            exact = _exact_sum(d.values)
            assert Fraction(est.certified_upper) >= exact
            # and it stays tight: (n - 1) u, the 4 (n - 1) u pad and a rounding
            assert est.certified_upper <= float(exact) * (1 + 6 * n * UNIT_ROUNDOFF)

    @pytest.mark.parametrize("name, x", FLOAT_SUM_FAMILIES,
                             ids=[name for name, _ in FLOAT_SUM_FAMILIES])
    def test_float_sum_families(self, name, x) -> None:
        d = DiscreteSignal(-7, x)
        est = certify_sup(d, grid_fourier(d, FrequencyGrid(2)), FrequencyGrid(2), 0.0)
        exact = _exact_sum(np.abs(x))
        assert Fraction(est.l1_norm) >= exact
        assert est.l1_norm <= float(exact) * (1 + 6 * len(x) * UNIT_ROUNDOFF)


class TestCsvRoundTrip:
    @given(small_signals)
    @settings(max_examples=30)
    def test_exact_roundtrip(self, tmp_path_factory, f) -> None:
        path = tmp_path_factory.mktemp("csv") / "sig.csv"
        write_csv(f, path)
        g = read_csv(path)
        nz = np.flatnonzero(f.values)
        if len(nz) == 0:
            assert g.is_zero
        else:  # f without its zero margins
            assert g.support_lo == f.support_lo + nz[0]
            assert np.array_equal(g.values, f.values[nz[0]:nz[-1] + 1])

    def test_rejects_duplicate_index(self, tmp_path) -> None:
        path = tmp_path / "dup.csv"
        path.write_text("n,value\n1,1.0\n1,2.0\n")
        with pytest.raises(ValidationError):
            read_csv(path)

    def test_index_past_int64_refused(self, tmp_path) -> None:
        path = tmp_path / "huge.csv"
        path.write_text(f"n,value\n{10 ** 30},1.0\n")
        with pytest.raises(ValidationError, match="int64"):
            read_csv(path)

    def test_header_required(self, tmp_path) -> None:
        path = tmp_path / "empty.csv"
        path.write_text("n,value\n")
        assert read_csv(path).is_zero


class TestGridFourierRealInput:
    @pytest.mark.parametrize("M", [1, 2, 7, 8, 1025])
    @pytest.mark.parametrize("lo", [-37, -5, 0, 3])
    def test_matches_fourier_eval_everywhere(self, M, lo) -> None:
        # 40 entries: the window folds onto itself for M < 40
        rng = np.random.default_rng(M * 100 + lo)
        f = DiscreteSignal(lo, rng.normal(size=40))
        vals = grid_fourier(f, FrequencyGrid(M))
        assert vals.shape == (M // 2 + 1,)
        # j <= M/2 as returned, and M - j through fhat(-j/M) = conj(fhat(j/M))
        direct = np.array([fourier_eval(f, j / M) for j in range(M // 2 + 1)])
        mirror = np.array([fourier_eval(f, (M - j) / M) for j in range(M // 2 + 1)])
        assert np.max(np.abs(vals - direct)) <= 1e-12 * lp_norm(f, 1)
        assert np.max(np.abs(np.conj(vals) - mirror)) <= 1e-12 * lp_norm(f, 1)

    def test_half_spectrum_ends(self) -> None:
        f = DiscreteSignal(-4, np.arange(1.0, 10.0))
        for M in (7, 8):
            vals = grid_fourier(f, FrequencyGrid(M))
            assert len(vals) == M // 2 + 1
            assert vals[0] == pytest.approx(45.0, abs=1e-12)
        # at j = M/2 = 4 every e(n j/M) is (-1)^n: sum (-1)^n f(n) = 5
        assert grid_fourier(f, FrequencyGrid(8))[4] == pytest.approx(5.0, abs=1e-12)


class TestFourierAtGridPoints:
    def test_bohr_measure_matches_fourier_eval(self) -> None:
        from densemodel.bohr import bohr_enumerate, bohr_measure

        M = 50_021
        sigma = bohr_measure(bohr_enumerate(np.array([0.0]), 0.5, 2000))
        # 2001 support points: the 300 indices span several blocks
        j = np.concatenate([[0, 1, M - 1], np.random.default_rng(1).integers(0, M, 297)])
        vals = fourier_at_grid_points(sigma, FrequencyGrid(M), j)
        direct = np.array([fourier_eval(sigma, int(k) / M) for k in j])
        assert np.max(np.abs(vals - direct)) <= 1e-12 * lp_norm(sigma, 1)
        assert vals[0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_grid_fourier_with_negative_support(self) -> None:
        rng = np.random.default_rng(3)
        f = DiscreteSignal(-300, rng.normal(size=450) * (rng.random(450) < 0.3))
        grid = FrequencyGrid(977)
        j = rng.integers(-2000, 2000, 64)  # indices reduce mod M
        vals = fourier_at_grid_points(f, grid, j)
        half = grid_fourier(f, grid)
        # fhat(k/M) for k > M/2 is conj(fhat((M - k)/M))
        k = np.mod(j, grid.M)
        at = half[np.minimum(k, grid.M - k)]
        full = np.where(k <= grid.M // 2, at, np.conj(at))
        assert np.max(np.abs(vals - full)) <= 1e-12 * lp_norm(f, 1)
        direct = np.array([fourier_eval(f, int(k) / grid.M) for k in j])
        assert np.max(np.abs(vals - direct)) <= 1e-12 * lp_norm(f, 1)

    def test_empty_index_set(self) -> None:
        f = DiscreteSignal(2, np.ones(5))
        assert fourier_at_grid_points(f, FrequencyGrid(16), []).shape == (0,)


class TestFftRoundingBound:
    @pytest.mark.parametrize("M", [4096, 50_021, 2 * 3 * 5 * 7 * 11 * 13])
    def test_grid_fourier_error_within_bound(self, M) -> None:
        from densemodel.signals import grid_fourier_rounding

        rng = np.random.default_rng(M)
        f = DiscreteSignal(1, rng.random(3000) * (rng.random(3000) < 0.2))
        grid = FrequencyGrid(M)
        j = rng.integers(0, M // 2 + 1, 200)
        err = np.abs(grid_fourier(f, grid)[j] - fourier_at_grid_points(f, grid, j))
        assert np.max(err) <= grid_fourier_rounding(f, grid)

    def test_convolution_error_within_bound(self) -> None:
        from densemodel.signals import fft_rounding_bound

        rng = np.random.default_rng(11)
        x = DiscreteSignal(0, rng.random(5000) * 100.0)
        y = DiscreteSignal(0, rng.random(3000))
        fast = convolve(x, y).values
        exact = np.convolve(x.values, y.values)
        rho = fft_rounding_bound(len(fast), lp_norm(x, 2) * lp_norm(y, 2))
        assert np.max(np.abs(fast - exact)) <= rho


class TestCsvSpanCap:
    @pytest.mark.parametrize("hi", [(1 << 24) + 1, 10 ** 12])
    def test_span_over_cap_raises_before_allocating(self, tmp_path, hi) -> None:
        from densemodel.errors import ResourceError

        path = tmp_path / "wide.csv"
        path.write_text(f"n,value\n1,1.0\n{hi},2.0\n")
        with pytest.raises(ResourceError, match="span"):
            read_csv(path)

    def test_span_at_cap_is_read(self, tmp_path, monkeypatch) -> None:
        import densemodel.signals as signals
        from densemodel.errors import ResourceError

        monkeypatch.setattr(signals, "MAX_CONV_LENGTH", 1000)
        path = tmp_path / "cap.csv"
        path.write_text("n,value\n-10,1.0\n989,2.0\n")
        f = read_csv(path)
        assert (f.support_lo, f.support_hi) == (-10, 989)
        path.write_text("n,value\n-10,1.0\n990,2.0\n")
        with pytest.raises(ResourceError):
            read_csv(path)
