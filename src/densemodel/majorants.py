"""Desk-scale majorants and measurement of the hypotheses the theorems consume.

A majorant is a nonnegative weight on [1, N] with total mass comparable to N.
`diagnose` measures Fourier decay, L^2/L^inf levels, the pair correlation and
the p = 4 restriction moment, from nu alone; the dense-model constructions
take these numbers as inputs instead of trusting asymptotic constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceError, ValidationError
from .signals import (
    MAX_CONV_LENGTH,
    DiscreteSignal,
    convolve,
    default_grid,
    fft_rounding_bound,
    fourier_sup_diff,
    lp_norm,
)

MASS_WINDOW = (0.5, 2.0)  # allowed l1_mass / N range


def _check_window(N: int) -> None:
    """Refuse a window [1, N] whose autocorrelation, 2N - 1 points, is longer
    than the convolution cap; each maker asks before it allocates."""
    if 2 * N - 1 > MAX_CONV_LENGTH:
        raise ResourceError(
            f"majorant window [1, {N}] exceeds cap {MAX_CONV_LENGTH}: "
            f"its autocorrelation has {2 * N - 1} points")


@dataclass(frozen=True)
class Majorant:
    """Nonnegative weight nu supported in [1, N] with mass within [N/2, 2N].

    The levels the constructions read are measured on first read and kept, as
    the signal is read-only: the mass, theta_Linf, theta_L2, theta_decay,
    nu on its window, the window autocorrelation, and the all-lag corr2 and
    p = 4 moment read off it.  A window [1, N] whose autocorrelation, 2N - 1
    points, is longer than the convolution cap is refused first, before any
    of them allocates it.
    """

    signal: DiscreteSignal
    N: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_window(self.N)
        if self.N < 1:
            raise ValidationError("majorant needs N >= 1")
        if np.any(self.signal.values < 0):
            raise ValidationError("majorant values must be nonnegative")
        if self.signal.support_lo < 1 or self.signal.support_hi > self.N:
            raise ValidationError(
                f"majorant support [{self.signal.support_lo}, {self.signal.support_hi}] "
                f"not contained in [1, {self.N}]")
        mass = self.l1_mass
        if not (MASS_WINDOW[0] * self.N <= mass <= MASS_WINDOW[1] * self.N):
            raise ValidationError(
                f"majorant mass {mass} outside [{MASS_WINDOW[0] * self.N}, "
                f"{MASS_WINDOW[1] * self.N}]")

    @cached_property
    def l1_mass(self) -> float:
        return lp_norm(self.signal, 1)

    @cached_property
    def theta_Linf(self) -> float:
        """The L^inf level: nu(n) <= theta_Linf N."""
        return lp_norm(self.signal, np.inf) / self.N

    @cached_property
    def theta_L2(self) -> float:
        """The L^2 level: ||nu||_2^2 = theta_L2 N^2."""
        return lp_norm(self.signal, 2) ** 2 / self.N ** 2

    @cached_property
    def window(self) -> np.ndarray:
        """nu on the full window [1, N]: entry n - 1 is nu(n).  Read-only."""
        vals = np.zeros(self.N)
        sig = self.signal
        vals[sig.support_lo - 1: sig.support_hi] = sig.values
        vals.flags.writeable = False
        return vals

    def correlation(self, shifts: tuple) -> float:
        """sum_n nu(n + m_1) ... nu(n + m_l) for the shift tuple (m_1, ..., m_l).

        The direct float sum over the window; shifts past its length give 0.
        """
        v = self.window
        lo, hi = min(shifts), max(shifts)
        span = self.N - (hi - lo)
        if span <= 0:
            return 0.0
        prod = v[shifts[0] - lo: shifts[0] - lo + span].copy()
        for m in shifts[1:]:
            prod *= v[m - lo: m - lo + span]
        return float(np.sum(prod))

    @cached_property
    def autocorrelation(self) -> np.ndarray:
        """Entry N - 1 + m is sum_n nu(n) nu(n + m), |m| < N: one FFT convolution."""
        v = self.window
        return convolve(DiscreteSignal(0, v), DiscreteSignal(0, v[::-1])).values

    @cached_property
    def corr2(self) -> float:
        """max(0, max over every lag m != 0 of sum_n nu(n) nu(n + m)) / N."""
        return max_lag_correlation(self, np.arange(1, self.N)) / self.N

    @cached_property
    def restriction_p4(self) -> float:
        """int_0^1 |nuhat|^4 N / ||nu||_1^4: the p = 4 restriction moment.

        |nuhat|^2 is the transform of the autocorrelation a, so by Parseval the
        integral is sum_m a(m)^2.  It is also the sup of int |phihat|^4 over
        |phi| <= nu: then |phi * phi| <= nu * nu pointwise (the majorant
        property at even p), and int |phihat|^4 = ||phi * phi||_2^2.
        """
        a = self.autocorrelation
        return float(np.sum(a * a)) * self.N / self.l1_mass ** 4

    @cached_property
    def theta_decay(self) -> float:
        """Certified sup over the circle of |nuhat - 1_[N]hat| / N, read on
        `default_grid(N)`: diagnose and green_model both read this one value."""
        decay = fourier_sup_diff(self.signal, DiscreteSignal.interval(self.N),
                                 default_grid(self.N))
        return decay.certified_upper / self.N


def make_uniform(N: int) -> Majorant:
    """nu = 1_[N]: the dense reference weight."""
    if N < 1:
        raise ValidationError("make_uniform needs N >= 1")
    _check_window(N)
    return Majorant(DiscreteSignal.interval(N), N, {"kind": "uniform"})


def make_random_sparse(N: int, density_exponent: float, seed: int) -> Majorant:
    """Random S with inclusion probability N^(exponent-1); nu = (N/|S|) 1_S.

    nu is stored on [min S, max S], and its mass is N by construction.  An
    empty draw is deterministically resampled with seed+1 and flagged in metadata.
    """
    if N < 4:
        raise ValidationError("make_random_sparse needs N >= 4")
    if not 0 < density_exponent <= 1:
        raise ValidationError("density_exponent must lie in (0, 1]")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    _check_window(N)
    prob = float(N) ** (density_exponent - 1.0)
    resampled = False
    use_seed = seed
    while True:
        rng = np.random.default_rng(use_seed)
        mask = rng.random(N) < prob
        if mask.any():
            break
        resampled = True
        use_seed += 1
    S = 1 + np.flatnonzero(mask)
    meta = {"kind": "sparse", "density_exponent": density_exponent,
            "seed": seed, "support_size": len(S), "resampled": resampled}
    return Majorant(DiscreteSignal.on_points(S, N / len(S)), N, meta)


def make_squares(N: int) -> Majorant:
    """nu(m^2) = 2m for m^2 <= N, on [1, isqrt(N)^2]; this weight makes the mass ~ N."""
    if N < 4:
        raise ValidationError("make_squares needs N >= 4")
    _check_window(N)
    m = np.arange(1, math.isqrt(N) + 1)
    return Majorant(DiscreteSignal.on_points(m * m, 2.0 * m), N, {"kind": "squares"})


def _prime_sieve(N: int) -> np.ndarray:
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(N ** 0.5) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.nonzero(is_prime)[0]


def make_weighted_primes(N: int) -> Majorant:
    """nu(p) = log p on the primes p <= N, rescaled to mass N, on [2, largest p]."""
    if N < 10:
        raise ValidationError("make_weighted_primes needs N >= 10")
    _check_window(N)
    primes = _prime_sieve(N)
    logs = np.log(primes.astype(np.float64))
    scale = N / float(np.sum(logs))
    return Majorant(DiscreteSignal.on_points(primes, logs * scale), N, {"kind": "primes"})


def max_lag_correlation(nu: Majorant, lags) -> float:
    """max(0, max over m in lags of sum_n nu(n) nu(n+m)), lags in 1..N-1.

    Every lag is screened at once by nu's FFT autocorrelation a of its window
    v.  Only lags whose screened value lies within 2 rho of the screened
    maximum are evaluated exactly, by the direct `Majorant.correlation`, where
    rho = fft_rounding_bound(2N - 1, ||v||_2^2) bounds |a(m) - c(m)| for the
    direct float value c(m) of every lag.  The result is bit-identical to
    evaluating every lag directly: let m* be the lag of the largest c and m'
    that of the largest a; then a(m*) >= c(m*) - rho >= c(m') - rho
    >= a(m') - 2 rho, so m* is among the lags evaluated.
    """
    lags = np.asarray(lags, dtype=np.int64)
    if len(lags) == 0:
        return 0.0
    v = nu.window
    N = nu.N
    screened = nu.autocorrelation[N - 1 + lags]
    # np.sum, not np.dot: at large N a BLAS call starts threads that then spin
    rho = fft_rounding_bound(2 * N - 1, float(np.sum(v * v)))
    best = 0.0
    for m in lags[screened >= np.max(screened) - 2.0 * rho]:
        best = max(best, nu.correlation((0, int(m))))
    return best


def diagnose(nu: Majorant) -> dict:
    """Every hypothesis level of nu, as the JSON-native block reports print.

    corr["2"] is `Majorant.corr2`, the pair correlation over every lag;
    restriction_estimate["4.0"] is `Majorant.restriction_p4`, the sup over
    |phi| <= nu up to float rounding; theta_decay is read on the grid that
    provenance names.
    """
    return {
        "theta_decay": nu.theta_decay,
        "theta_L2": nu.theta_L2,
        "theta_Linf": nu.theta_Linf,
        "corr": {"2": nu.corr2},
        "restriction_estimate": {"4.0": nu.restriction_p4},
        "provenance": {"grid_M": default_grid(nu.N).M},
    }
