"""Certified polynomial approximation of |x| and x_+ on [-1, 1]."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from densemodel.errors import ValidationError
from densemodel.polyapprox import (
    _derivative_bound,
    build_abs_approx,
    build_positive_part,
    taylor_coeff,
    taylor_coeff_exact,
)


class TestCoefficients:
    def test_first_values_exact(self) -> None:
        assert taylor_coeff_exact(0) == Fraction(-1)
        assert taylor_coeff_exact(1) == Fraction(1, 2)
        assert taylor_coeff_exact(2) == Fraction(1, 8)
        assert taylor_coeff_exact(3) == Fraction(1, 16)

    @pytest.mark.parametrize("n", range(31))
    def test_float_recurrence_matches_rationals(self, n) -> None:
        assert taylor_coeff(n) == pytest.approx(
            float(taylor_coeff_exact(n)), rel=1e-14)

    def test_closed_form(self) -> None:
        import math
        for n in range(1, 20):
            closed = Fraction(math.factorial(2 * n),
                              (2 * n - 1) * 4 ** n * math.factorial(n) ** 2)
            assert taylor_coeff_exact(n) == closed

    def test_series_sums_to_zero_at_t_one_in_the_limit(self) -> None:
        # partial sums of -sum c_n at t=1 approach |0| = 0 from above
        partial = [float(-sum(taylor_coeff_exact(m) for m in range(n + 1)))
                   for n in (5, 10, 20, 40)]
        assert all(p > 0 for p in partial)
        assert partial == sorted(partial, reverse=True)


class TestAbsApprox:
    def test_even_polynomial(self) -> None:
        approx = build_abs_approx(6)
        assert np.all(approx.coefficients[1::2] == 0.0)
        assert approx.degree == 12

    def test_certified_error_holds_on_fresh_samples(self) -> None:
        approx = build_abs_approx(10)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 200000)
        err = float(np.max(np.abs(approx(x) - np.abs(x))))
        assert err <= approx.measured_sup_error + 1e-12

    def test_stable_and_monomial_forms_agree_at_low_order(self) -> None:
        approx = build_abs_approx(8)
        x = np.linspace(-1, 1, 101)
        mono = np.polyval(approx.coefficients[::-1], x)
        assert np.max(np.abs(mono - approx(x))) < 1e-9

    def test_error_decreases_with_order(self) -> None:
        errs = [build_abs_approx(n).measured_sup_error for n in (4, 8, 16, 32)]
        assert errs == sorted(errs, reverse=True)

    def test_order_domain(self) -> None:
        with pytest.raises(ValidationError):
            build_abs_approx(0)
        with pytest.raises(ValidationError):
            build_abs_approx(61)


class TestPositivePart:
    def test_certified_at_eps_01(self) -> None:
        approx = build_positive_part(0.1)
        assert approx.measured_sup_error <= 0.1
        x = np.linspace(-1, 1, 50001)
        assert float(np.max(np.abs(approx(x) - np.maximum(x, 0)))) <= 0.1

    def test_minimal_order_chosen(self) -> None:
        approx = build_positive_part(0.1)
        if approx.n_terms > 1:
            worse = build_abs_approx(approx.n_terms - 1)
            assert 0.5 * worse.measured_sup_error > 0.1 - 1e-12

    def test_eps_below_reach_raises_with_report(self) -> None:
        with pytest.raises(ValidationError, match="smallest achievable"):
            build_positive_part(0.001)

    def test_eps_domain(self) -> None:
        with pytest.raises(ValidationError):
            build_positive_part(0.0)
        with pytest.raises(ValidationError):
            build_positive_part(1.0)

    def test_height_recorded(self) -> None:
        approx = build_positive_part(0.1)
        assert approx.height >= max(abs(c) for c in approx.coefficients) - 1e-12
        assert _derivative_bound(approx.series, approx.linear) > 0
