"""Solution counting routes, transfer budget, and threshold certificates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemodel import signals
from densemodel.counting import (
    LinearForm,
    count_brute,
    count_comparison,
    count_integer,
    count_spectral,
    count_weighted,
    threshold_extract,
    transfer_error_bound,
)
from densemodel.errors import ResourceError, ValidationError
from densemodel.majorants import make_random_sparse
from densemodel.models import hahn_banach_model, hdr_model
from densemodel.pipeline import select_subset
from densemodel.signals import (
    CertifiedSup,
    DiscreteSignal,
    FrequencyGrid,
    default_grid,
    fourier_sup_diff,
)


def ap3_count(N: int) -> int:
    """Closed form for #{(x, y, z) in [1,N]^3 : x + y = 2z}, diagonals included."""
    return sum(min(2 * z - 1, 2 * N - 2 * z + 1) for z in range(1, N + 1))


def forms(draw_s):
    def build(s, rng_seed):
        rng = np.random.default_rng(rng_seed)
        while True:
            c = rng.integers(-5, 6, size=s)
            c[c == 0] = 1
            c[-1] = -int(np.sum(c[:-1]))
            if c[-1] != 0 and abs(c[-1]) <= 5:
                return tuple(int(x) for x in c)
    return st.builds(build, draw_s, st.integers(min_value=0, max_value=10 ** 6))


class TestLinearForm:
    def test_rejects_short_or_unbalanced(self) -> None:
        with pytest.raises(ValidationError):
            LinearForm((1, -1))
        with pytest.raises(ValidationError):
            LinearForm((1, 1, -1))
        with pytest.raises(ValidationError):
            LinearForm((1, 0, -1))

    def test_s(self) -> None:
        assert LinearForm((1, 1, 1, -3)).s == 4


class TestCountRoutes:
    @pytest.mark.parametrize("N", [1, 2, 7, 25])
    def test_ap3_closed_form(self, N) -> None:
        form = LinearForm((1, 1, -2))
        w = [DiscreteSignal.interval(N)] * 3
        assert count_weighted(form, w).total == pytest.approx(ap3_count(N))
        assert count_brute(form, w).total == pytest.approx(ap3_count(N))
        assert count_integer(form, w) == ap3_count(N)

    def test_diagonal_counts_constant_tuples(self) -> None:
        form = LinearForm((1, 1, -2))
        w = [DiscreteSignal.interval(10)] * 3
        assert count_weighted(form, w).diagonal == 10.0

    def test_negative_supports(self) -> None:
        form = LinearForm((2, -1, -1))
        w = [DiscreteSignal(-3, np.ones(7))] * 3
        assert count_weighted(form, w).total == pytest.approx(
            count_brute(form, w).total)

    @given(forms(st.sampled_from([3, 4])),
           st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=2, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_routes_agree_on_random_weights(self, coeffs, seed, N) -> None:
        form = LinearForm(coeffs)
        rng = np.random.default_rng(seed)
        weights = [DiscreteSignal(1, rng.integers(0, 5, size=N) / 2.0)
                   for _ in range(form.s)]
        conv = count_weighted(form, weights).total
        brute = count_brute(form, weights).total
        spec = count_spectral(form, weights).total
        assert conv == pytest.approx(brute, abs=1e-6)
        assert spec == pytest.approx(conv, rel=1e-6, abs=1e-6)

    def test_integer_route_is_exact(self) -> None:
        form = LinearForm((3, -1, -2))
        rng = np.random.default_rng(5)
        w = [DiscreteSignal(1, rng.integers(0, 10, size=30).astype(float))
             for _ in range(3)]
        assert count_weighted(form, w).total == pytest.approx(
            count_integer(form, w), abs=1e-6)

    def test_brute_cap(self) -> None:
        form = LinearForm((1, 1, 1, 1, -4))
        w = [DiscreteSignal.interval(1000)] * 5
        with pytest.raises(ResourceError):
            count_brute(form, w)

    def test_spectral_cap(self) -> None:
        # the phase matrix would be W x 20,000 = 40,000 x 20,000 entries
        form = LinearForm((1, 1, -2))
        with pytest.raises(ResourceError, match="exceeds cap"):
            count_spectral(form, [DiscreteSignal.interval(20000)] * 3)

    def test_weight_count_must_match(self) -> None:
        form = LinearForm((1, 1, -2))
        with pytest.raises(ValidationError):
            count_weighted(form, [DiscreteSignal.interval(5)] * 2)

    def test_spectral_weight_count_must_match(self) -> None:
        # zip would drop the third coefficient and return a count near 0
        form = LinearForm((1, 1, -2))
        with pytest.raises(ValidationError, match="one weight per coefficient"):
            count_spectral(form, [DiscreteSignal.interval(5)] * 2)


class TestTransferBound:
    def test_identical_signals_give_zero_gap(self) -> None:
        form = LinearForm((1, 1, -2))
        f = DiscreteSignal.interval(40)
        rep = transfer_error_bound(form, f, f)
        assert rep.count_f == rep.count_g
        assert rep.ok

    def test_budget_holds_on_perturbation(self) -> None:
        form = LinearForm((1, 1, -2))
        rng = np.random.default_rng(3)
        f = DiscreteSignal(1, rng.random(60))
        g = DiscreteSignal(1, f.values + 0.05 * rng.standard_normal(60))
        g = DiscreteSignal(1, np.clip(g.values, 0, None))
        rep = transfer_error_bound(form, f, g)
        assert rep.ok
        assert abs(rep.count_f - rep.count_g) <= rep.delta * (1 + 1e-9) + 1e-9

    def test_budget_holds_for_longer_forms(self) -> None:
        form = LinearForm((1, 1, 1, -3))
        rng = np.random.default_rng(4)
        f = DiscreteSignal(1, rng.random(30))
        g = DiscreteSignal(1, rng.random(30))
        rep = transfer_error_bound(form, f, g)
        assert rep.ok


class TestThreshold:
    def test_level_set_and_floor(self) -> None:
        g = DiscreteSignal(1, np.array([1.0, 0.6, 0.4, 0.2, 0.0, 1.0]))
        rep = threshold_extract(g, delta=0.5, N=6)
        assert set(int(n) for n in rep.elements) == {1, 2, 3, 6}
        C2 = float(np.sum(g.values ** 2)) / 6
        assert rep.certified_floor == pytest.approx(0.25 ** 2 / C2 * 6)
        assert rep.ok

    def test_floor_suppressed_without_density(self) -> None:
        g = DiscreteSignal(1, np.array([1.0, 0.6, 0.4, 0.2, 0.0, 1.0]))
        rep = threshold_extract(g, delta=0.8, N=6)
        assert "density_precondition_failed" in rep.flags
        assert rep.certified_floor == 0.0

    def test_low_mass_flagged(self) -> None:
        g = DiscreteSignal(1, np.array([0.3, 0.0, 0.0, 0.0]))
        rep = threshold_extract(g, delta=0.5, N=4)
        assert "density_precondition_failed" in rep.flags

    def test_higher_moment_floor(self) -> None:
        rng = np.random.default_rng(8)
        g = DiscreteSignal(1, rng.random(200))
        rep = threshold_extract(g, delta=0.5, N=200, variant_k=3)
        # Hoelder: (delta/2)^k |window| <= sum over B of g^k <= C_k N
        # so |B| >= ((delta/2)^k / C_k)^(1/(k-1)) N only after the split;
        # the exact floor is still certified on the instance
        assert rep.ok

    def test_indicator_matches_elements(self) -> None:
        g = DiscreteSignal(3, np.array([0.9, 0.1, 0.8]))
        rep = threshold_extract(g, delta=1.0, N=5)
        ind = rep.indicator()
        assert ind(3) == 1.0 and ind(4) == 0.0 and ind(5) == 1.0

    def test_rejects_negative_g(self) -> None:
        with pytest.raises(ValidationError):
            threshold_extract(DiscreteSignal(1, np.array([-0.1])), 0.5, 1)

    @given(st.integers(min_value=1, max_value=10 ** 6),
           st.sampled_from([0.2, 0.5, 0.8]),
           st.integers(min_value=5, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_floor_always_certified(self, seed, delta, N) -> None:
        rng = np.random.default_rng(seed)
        g = DiscreteSignal(1, rng.random(N))
        rep = threshold_extract(g, delta, N)
        assert rep.size >= rep.certified_floor * (1 - 1e-12)


class TestComparison:
    def test_count_dominates_scaled_indicator(self) -> None:
        rng = np.random.default_rng(9)
        g = DiscreteSignal(1, rng.random(80))
        form = LinearForm((1, 1, -2))
        rep_t = threshold_extract(g, 0.5, 80)
        rep = count_comparison(form, g, rep_t)
        assert rep.ok
        assert rep.count_g >= rep.factor * rep.count_indicator - 1e-9


class TestGivenCounts:
    def test_transfer_and_comparison_reuse_given_totals(self) -> None:
        form = LinearForm((1, 1, -2))
        f = DiscreteSignal(1, np.array([2.0, 0.0, 2.0, 2.0, 0.0, 2.0]))
        g = DiscreteSignal(1, np.array([1.0, 0.5, 1.25, 1.0, 0.75, 1.5]))
        cf = count_weighted(form, [f] * 3).total
        cg = count_weighted(form, [g] * 3).total
        assert transfer_error_bound(form, f, g, count_f=cf, count_g=cg) == \
            transfer_error_bound(form, f, g)
        t = threshold_extract(g, 0.5, 6)
        assert count_comparison(form, g, t, count_g=cg) == count_comparison(form, g, t)
        # the given totals are what the report carries
        rep = transfer_error_bound(form, f, g, count_f=1.0, count_g=2.0)
        assert (rep.count_f, rep.count_g) == (1.0, 2.0)


def is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestWrapModulus:
    @pytest.mark.parametrize("coeffs, lo, size", [((1, 1, -2), 1, 40),
                                                  ((3, -1, -2), -7, 25),
                                                  ((1, 1, 1, -3), 2, 30)])
    def test_first_5_smooth_modulus_past_the_sum_range(self, coeffs, lo,
                                                       size) -> None:
        form = LinearForm(coeffs)
        rng = np.random.default_rng(size)
        w = [DiscreteSignal(lo, rng.integers(0, 5, size=size).astype(float))
             for _ in coeffs]
        rep = count_weighted(form, w)
        W = rep.wrap_modulus
        # sum c_i = 0, so |c_1 x_1 + ... + c_s x_s| <= reach = (sum |c_i| / 2)
        # times the span, and any W > reach rules out wraparound; the modulus
        # is the first 5-smooth W >= reach + 2
        reach = sum(abs(c) for c in coeffs) // 2 * (size - 1)
        assert is_5_smooth(W) and W >= reach + 2
        assert not any(is_5_smooth(m) for m in range(reach + 2, W))
        assert W & (W - 1) != 0  # not a power of two on these instances
        assert rep.total == pytest.approx(count_integer(form, w), abs=1e-6)

    def test_reach_spans_the_union_of_windows(self) -> None:
        # windows [-3, 2] and [5, 9]: the union spans 12, reach 2 * 12 = 24,
        # and 27 is the first 5-smooth number >= 26
        form = LinearForm((1, 1, -2))
        a, b = DiscreteSignal(-3, np.ones(6)), DiscreteSignal(5, np.ones(5))
        rep = count_weighted(form, [a, b, a])
        assert rep.wrap_modulus == 27
        assert rep.total == pytest.approx(count_brute(form, [a, b, a]).total, abs=1e-9)

    @pytest.mark.parametrize("span, match", [(2, "exceeds cap"), (10, "below 2\\^63")])
    def test_huge_coefficients_refused(self, span, match) -> None:
        # reach = 2 * 10^18 (span - 1): its modulus passes the cap at span 2,
        # and no 5-smooth length below 2^63 reaches it at span 10
        form = LinearForm((10 ** 18, 10 ** 18, -10 ** 18, -10 ** 18))
        with pytest.raises(ResourceError, match=match):
            count_weighted(form, [DiscreteSignal(1, np.ones(span))] * 4)


class TestDilatedSpectrum:
    @pytest.mark.parametrize("W", [1, 2, 7, 8, 45, 64])
    @pytest.mark.parametrize("c", [-3, -2, -1, 1, 2, 3, 5])
    def test_strided_read_matches_index_map(self, W, c) -> None:
        # F(c k mod W) for k <= W/2, against the full spectrum read through
        # an index array
        from densemodel.counting import _dilated
        from densemodel.signals import FrequencyGrid, fourier_at_grid_points, grid_fourier

        rng = np.random.default_rng(W * 10 + c)
        w = DiscreteSignal(int(rng.integers(-20, 20)), rng.normal(size=12))
        full = fourier_at_grid_points(w, FrequencyGrid(W), np.arange(W))
        want = full[np.mod(c * np.arange(W // 2 + 1), W)]
        got = _dilated(grid_fourier(w, FrequencyGrid(W)), c, W)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * float(np.sum(np.abs(w.values)))


def _own_windows(coeffs, seed, near=0):
    """One integer weight per coefficient, each on its own window."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in coeffs:
        size = int(rng.integers(1, 14))
        lo = near + int(rng.integers(-12, 6))  # windows before, across and after near
        out.append(DiscreteSignal(lo, rng.integers(-3, 6, size=size).astype(float)))
    return out


class TestRoutesOnOwnWindows:
    FORMS = [(1, 1, -2), (1, 2, -3), (3, -1, -2), (1, 1, 1, -3)]

    @pytest.mark.parametrize("coeffs", FORMS)
    @pytest.mark.parametrize("seed", range(6))
    def test_convolution_equals_integer_and_brute(self, coeffs, seed) -> None:
        form = LinearForm(coeffs)
        w = _own_windows(coeffs, seed)
        exact = count_integer(form, w)
        assert count_brute(form, w).total == exact
        assert count_weighted(form, w).total == pytest.approx(exact, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("coeffs", FORMS)
    def test_windows_far_from_zero(self, coeffs) -> None:
        # a radius rule, sum |c_i| * 2e7 >= 8e7 > WRAP_MODULUS_CAP, would raise;
        # the reach follows the span of the windows, not their distance from 0
        form = LinearForm(coeffs)
        w = _own_windows(coeffs, 11, near=2 * 10 ** 7)
        rep = count_weighted(form, w)
        assert rep.wrap_modulus < 1000
        exact = count_integer(form, w)
        assert count_brute(form, w).total == exact
        assert rep.total == pytest.approx(exact, rel=1e-12, abs=1e-9)


class TestIntegerRoute:
    def test_rejects_non_integer_values(self) -> None:
        # 1000000.5 is within np.allclose of 1000000 or 1000001
        form = LinearForm((1, 1, -2))
        w = DiscreteSignal(1, np.array([1000000.5, 2.0, 3.0]))
        with pytest.raises(ValidationError, match="integer-valued"):
            count_integer(form, [w] * 3)

    def test_raises_where_int64_would_overflow(self) -> None:
        # the true count is 3.375e22; int64 convolutions wrap to a negative
        form = LinearForm((1, 1, -2))
        w = DiscreteSignal(1, np.full(50, 3e6))
        with pytest.raises(ResourceError, match="2\\^63"):
            count_integer(form, [w] * 3)

    def test_largest_norm_product_below_2_63_is_exact(self) -> None:
        # norms 2^21 - 1 give a product below 2^63, norms 2^21 give 2^63
        form = LinearForm((1, 1, -2))
        w = DiscreteSignal(0, np.array([2.0 ** 21 - 1]))
        assert count_integer(form, [w] * 3) == (2 ** 21 - 1) ** 3
        with pytest.raises(ResourceError):
            count_integer(form, [DiscreteSignal(0, np.array([2.0 ** 21]))] * 3)

    def test_zero_weight_counts_zero(self) -> None:
        form = LinearForm((1, 1, -2))
        big = DiscreteSignal(1, np.array([1e30, 1.0]))
        assert count_integer(form, [big, DiscreteSignal.zero(), big]) == 0

    def test_weight_count_must_match(self) -> None:
        form = LinearForm((1, 1, -2))
        with pytest.raises(ValidationError, match="one weight per coefficient"):
            count_integer(form, [DiscreteSignal.interval(5)] * 2)


class TestTransferReusesItsGridsCertificate:
    """`transfer_error_bound` reads a certificate read on its own check grid,
    the `default_grid` of the window holding f and g, and re-certifies any other."""

    FORM = LinearForm((1, 1, -2))

    @pytest.fixture(scope="class")
    def instance(self):
        nu = make_random_sparse(300, 2 / 3, 2)
        f, _ = select_subset(nu, 0.5, "structured", 2)
        return f, nu

    @staticmethod
    def transforms(monkeypatch) -> list:
        """The grid sizes of every `grid_fourier` call from here on."""
        seen = []
        original = signals.grid_fourier

        def counted(f, grid):
            seen.append(grid.M)
            return original(f, grid)

        monkeypatch.setattr(signals, "grid_fourier", counted)
        return seen

    @staticmethod
    def transfer_grid_M(f, g) -> int:
        return default_grid(max(f.support_hi, g.support_hi)
                            - min(f.support_lo, g.support_lo) + 1).M

    def test_certificate_on_the_transfer_grid_is_read(self, instance,
                                                      monkeypatch) -> None:
        f, nu = instance
        rep = hdr_model(f, nu, 0.2)
        assert rep.fourier_err.grid_M == self.transfer_grid_M(f, rep.g)
        seen = self.transforms(monkeypatch)
        t = transfer_error_bound(self.FORM, f, rep.g, count_f=1.0, count_g=1.0,
                                 sup=rep.fourier_err)
        assert seen == []
        assert t.sup_err == rep.fourier_err.certified_upper

    def test_hahn_banach_certificate_is_re_read(self, instance, monkeypatch) -> None:
        f, nu = instance
        rep = hahn_banach_model(f, nu)
        M = self.transfer_grid_M(f, rep.g)
        assert rep.fourier_err.grid_M == 1024 < M
        expected = fourier_sup_diff(f, rep.g, FrequencyGrid(M)).certified_upper
        seen = self.transforms(monkeypatch)
        t = transfer_error_bound(self.FORM, f, rep.g, count_f=1.0, count_g=1.0,
                                 sup=rep.fourier_err)
        assert seen == [M]
        assert t.sup_err == expected

    def test_hand_built_certificate_is_re_read(self, instance, monkeypatch) -> None:
        f, nu = instance
        g = hdr_model(f, nu, 0.2).g
        M = self.transfer_grid_M(f, g)
        seen = self.transforms(monkeypatch)
        t = transfer_error_bound(self.FORM, f, g, count_f=1.0, count_g=1.0,
                                 sup=CertifiedSup(grid_max=0.0, lipschitz_slack=0.0,
                                                  l1_norm=0.0))
        assert seen == [M]
        assert t.sup_err == fourier_sup_diff(f, g, FrequencyGrid(M)).certified_upper
