"""Polynomial approximation of the positive part x_+ on [-1, 1].

The route is the binomial series (1-t)^(1/2) = -sum c_n t^n with t = 1 - x^2,
giving an even polynomial close to |x|, and then P(x) = (P_N(x) + x) / 2 for
x_+.  Coefficients come from a multiplicative recurrence (factorials overflow,
ratios do not) with an exact big-rational cross-check.  Sup errors are
certified: dense sampling plus a derivative-bound slack between samples.

Rate: c_n > 0 for n >= 1, so P_N(x) - |x| = sum_{n>N} c_n (1 - x^2)^n >= 0
and the sup error of the order-N approximant P_N against |x| is attained at
x = 0, where it equals the tail sum_{n>N} |c_n| =
C(2N, N) / 4^N ~ (pi N)^(-1/2).  The coefficients themselves decay faster,
|c_n| ~ n^(-3/2) / (2 sqrt(pi)); the error follows the tail, not them.

Evaluation uses the numerically stable series-in-t form; the monomial
coefficients are expanded exactly (rationals) for degree/height accounting
only, since they suffer catastrophic cancellation for large N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError

N_TERMS_CAP = 60
SUP_SAMPLES = 100_001


def taylor_coeff(n: int) -> float:
    """c_n = (2n)!/((2n-1) 2^(2n) (n!)^2), via c_{n+1} = c_n (2n-1)/(2n+2)."""
    if n < 0:
        raise ValidationError("taylor_coeff needs n >= 0")
    return float(_series(n)[n])


def taylor_coeff_exact(n: int) -> Fraction:
    """Exact rational c_n for cross-checking the floating recurrence."""
    if n < 0:
        raise ValidationError("taylor_coeff needs n >= 0")
    c = Fraction(-1)
    for m in range(n):
        c *= Fraction(2 * m - 1, 2 * m + 2)
    return c


def _series(n_terms: int) -> np.ndarray:
    """c_0..c_{n_terms} as floats."""
    out = np.empty(n_terms + 1)
    c = -1.0
    for m in range(n_terms + 1):
        out[m] = c
        c *= (2 * m - 1) / (2 * m + 2)
    return out


def _evaluate(series: np.ndarray, linear: bool, x) -> np.ndarray:
    """-sum_n c_n (1 - x^2)^n, averaged with x when linear."""
    x = np.asarray(x, dtype=np.float64)
    t = 1.0 - x * x
    acc = np.zeros_like(t)
    power = np.ones_like(t)
    for c in series:
        acc += c * power
        power = power * t
    val = -acc
    if linear:
        val = 0.5 * (val + x)
    return val


def _derivative_bound(series: np.ndarray, linear: bool) -> float:
    """Certified |P'| bound on [-1, 1] from the stable form."""
    b = 2.0 * float(np.sum(np.arange(len(series)) * np.abs(series)))
    if linear:
        b = 0.5 * b + 0.5
    return b


@dataclass(frozen=True)
class PolyApprox:
    """A polynomial with certified sup error against its target on [-1, 1].

    `coefficients` is the monomial basis (index = power) for accounting;
    `series` holds the c_n of the stable form
        value(x) = -sum_n c_n (1 - x^2)^n * 0.5^linear  + (x/2 if linear).
    """

    coefficients: np.ndarray = field(repr=False)
    series: np.ndarray = field(repr=False)
    linear: bool
    target_eps: float
    sample_max_error: float
    derivative_slack: float

    def __post_init__(self):
        for name in ("coefficients", "series"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coefficients)[0]
        return int(nz[-1]) if len(nz) else 0

    @property
    def height(self) -> float:
        return float(np.max(np.abs(self.coefficients)))

    @property
    def n_terms(self) -> int:
        return len(self.series) - 1

    @property
    def measured_sup_error(self) -> float:
        return self.sample_max_error + self.derivative_slack

    def __call__(self, x) -> np.ndarray:
        return _evaluate(self.series, self.linear, x)

    def derivative_bound(self) -> float:
        """Certified |P'| bound on [-1, 1] from the stable form."""
        return _derivative_bound(self.series, self.linear)

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "height": self.height,
            "n_terms": self.n_terms,
            "linear": self.linear,
            "target_eps": self.target_eps,
            "sample_max_error": self.sample_max_error,
            "derivative_slack": self.derivative_slack,
            "measured_sup_error": self.measured_sup_error,
            "coefficients": [float(c) for c in self.coefficients],
        }


def _monomial_from_series(n_terms: int, linear: bool) -> np.ndarray:
    """Exact expansion of -sum c_n (1-x^2)^n (optionally averaged with x)."""
    cs = [taylor_coeff_exact(n) for n in range(n_terms + 1)]
    coeffs = [Fraction(0)] * (2 * n_terms + 1)
    for m in range(n_terms + 1):
        total = sum(cs[n] * math.comb(n, m) for n in range(m, n_terms + 1))
        coeffs[2 * m] = -((-1) ** m) * total
    if linear:
        coeffs = [c / 2 for c in coeffs]
        coeffs[1] += Fraction(1, 2)
    return np.array([float(c) for c in coeffs])


def _certify(series: np.ndarray, linear: bool, target) -> tuple[float, float]:
    """(sample max error, between-sample slack) against the target function."""
    x = np.linspace(-1.0, 1.0, SUP_SAMPLES)
    err = float(np.max(np.abs(_evaluate(series, linear, x) - target(x))))
    h = 2.0 / (SUP_SAMPLES - 1)
    # target functions |x| and x_+ are 1-Lipschitz
    slack = (_derivative_bound(series, linear) + 1.0) * h / 2.0
    return err, slack


def build_abs_approx(n_terms: int) -> PolyApprox:
    """Even polynomial P_N with certified sup |P_N(x) - |x|| on [-1, 1].

    The true sup error is attained at x = 0 and equals C(2N, N) / 4^N
    ~ (pi N)^(-1/2); the certified figure adds only the between-sample slack.
    """
    if not 1 <= n_terms <= N_TERMS_CAP:
        raise ValidationError(f"n_terms must lie in [1, {N_TERMS_CAP}]")
    series = _series(n_terms)
    err, slack = _certify(series, False, np.abs)
    return PolyApprox(coefficients=_monomial_from_series(n_terms, False),
                      series=series, linear=False, target_eps=err + slack,
                      sample_max_error=err, derivative_slack=slack)


def build_positive_part(eps: float) -> PolyApprox:
    """P = (P_N + x)/2 with certified sup |P(x) - x_+| <= eps, minimal N.

    The error is half that of P_N, i.e. C(2N, N) / 4^N / 2 at x = 0, so
    eps = 0.1 needs N = 8 (error 0.0982).

    Raises with the smallest achievable error when eps is below what the
    n_terms cap permits.
    """
    if not 0 < eps < 1:
        raise ValidationError("eps must lie in (0, 1)")
    target = lambda x: np.maximum(x, 0.0)
    best = math.inf
    for n_terms in range(1, N_TERMS_CAP + 1):
        series = _series(n_terms)
        err, slack = _certify(series, True, target)
        total = err + slack
        best = min(best, total)
        if total <= eps:
            return PolyApprox(
                coefficients=_monomial_from_series(n_terms, True),
                series=series, linear=True, target_eps=eps,
                sample_max_error=err, derivative_slack=slack)
    raise ValidationError(
        f"eps={eps} unreachable under the n_terms cap {N_TERMS_CAP}; "
        f"smallest achievable certified error is {best:.6g}")
