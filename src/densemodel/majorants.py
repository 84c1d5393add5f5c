"""Desk-scale majorants and measurement of the hypotheses the theorems consume.

A majorant is a nonnegative weight on [1, N] with total mass comparable to N.
`diagnose` measures Fourier decay, L^2/L^inf levels, correlation constants and
the p = 4 restriction moment; the dense-model constructions take these
numbers as inputs instead of trusting asymptotic constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .signals import (
    DiscreteSignal,
    FrequencyGrid,
    convolve,
    default_grid,
    fft_rounding_bound,
    fourier_sup_diff,
    grid_fourier,
    lp_norm,
)

MASS_WINDOW = (0.5, 2.0)  # allowed l1_mass / N range
SHIFT_SAMPLES = 2000  # sampled shift tuples per correlation order
RESTRICTION_MASKS = 8  # random sign masks beside phi = nu


@dataclass(frozen=True)
class Majorant:
    """Nonnegative weight nu supported in [1, N] with mass within [N/2, 2N]."""

    signal: DiscreteSignal
    N: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
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

    @property
    def l1_mass(self) -> float:
        return lp_norm(self.signal, 1)


@dataclass(frozen=True)
class MajorantDiagnostics:
    """Measured hypothesis levels for one majorant.

    corr[l] and restriction_estimate[p] are maxima over tested configurations;
    restriction_estimate is a LOWER estimate of the true sup over |phi| <= nu
    (at p = 4 the tested phi = nu attains it), and corr[l] is exact only when
    corr_exhaustive[l] is True.
    """

    theta_decay: float
    theta_L2: float
    theta_Linf: float
    corr: dict
    corr_exhaustive: dict
    restriction_estimate: dict
    provenance: dict

    def as_dict(self) -> dict:
        return {
            "theta_decay": self.theta_decay,
            "theta_L2": self.theta_L2,
            "theta_Linf": self.theta_Linf,
            "corr": {str(k): v for k, v in sorted(self.corr.items())},
            "corr_exhaustive": {str(k): v for k, v in sorted(self.corr_exhaustive.items())},
            "restriction_estimate": {str(k): v for k, v in
                                     sorted(self.restriction_estimate.items())},
            "provenance": self.provenance,
        }


def make_uniform(N: int) -> Majorant:
    """nu = 1_[N]: the dense reference weight."""
    if N < 1:
        raise ValidationError("make_uniform needs N >= 1")
    return Majorant(DiscreteSignal.interval(N), N, {"kind": "uniform"})


def make_random_sparse(N: int, density_exponent: float, seed: int) -> Majorant:
    """Random S with inclusion probability N^(exponent-1); nu = (N/|S|) 1_S.

    Mass is exactly N by construction.  An empty draw is deterministically
    resampled with seed+1 and flagged in metadata.
    """
    if N < 4:
        raise ValidationError("make_random_sparse needs N >= 4")
    if not 0 < density_exponent <= 1:
        raise ValidationError("density_exponent must lie in (0, 1]")
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
    size = int(np.count_nonzero(mask))
    vals = np.where(mask, N / size, 0.0)
    meta = {"kind": "sparse", "density_exponent": density_exponent,
            "seed": seed, "support_size": size, "resampled": resampled}
    return Majorant(DiscreteSignal(1, vals).trimmed(), N, meta)


def make_squares(N: int) -> Majorant:
    """nu(m^2) = 2m for m^2 <= N; the derivative weight makes the mass ~ N."""
    if N < 4:
        raise ValidationError("make_squares needs N >= 4")
    vals = np.zeros(N)
    m = 1
    while m * m <= N:
        vals[m * m - 1] = 2.0 * m
        m += 1
    return Majorant(DiscreteSignal(1, vals).trimmed(), N, {"kind": "squares"})


def _prime_sieve(N: int) -> np.ndarray:
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(N ** 0.5) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.nonzero(is_prime)[0]


def make_weighted_primes(N: int) -> Majorant:
    """nu(p) = log p, rescaled so the total mass is exactly N."""
    if N < 10:
        raise ValidationError("make_weighted_primes needs N >= 10")
    primes = _prime_sieve(N)
    logs = np.log(primes.astype(np.float64))
    scale = N / float(np.sum(logs))
    vals = np.zeros(N)
    vals[primes - 1] = logs * scale
    return Majorant(DiscreteSignal(1, vals).trimmed(), N, {"kind": "primes"})


def _window_values(nu: Majorant) -> np.ndarray:
    """nu on the full window [1, N]."""
    vals = np.zeros(nu.N)
    sig = nu.signal
    vals[sig.support_lo - 1: sig.support_hi] = sig.values
    return vals


def _corr_value(v: np.ndarray, shifts: tuple) -> float:
    """sum_n v(n + m_1) ... v(n + m_l) for the shift tuple (counting indices)."""
    lo, hi = min(shifts), max(shifts)
    span = len(v) - (hi - lo)
    if span <= 0:
        return 0.0
    prod = v[shifts[0] - lo: shifts[0] - lo + span].copy()
    for m in shifts[1:]:
        prod *= v[m - lo: m - lo + span]
    return float(np.sum(prod))


def max_lag_correlation(nu: Majorant, lags) -> float:
    """max(0, max over m in lags of sum_n nu(n) nu(n+m)), lags in 1..N-1.

    Every lag is screened at once by one FFT autocorrelation a of nu's window
    v.  Only lags whose screened value lies within 2 rho of the screened
    maximum are evaluated exactly, by the direct `_corr_value` sum, where
    rho = fft_rounding_bound(2N - 1, ||v||_2^2) bounds |a(m) - c(m)| for the
    direct float value c(m) of every lag.  The result is bit-identical to
    evaluating every lag directly: let m* be the lag of the largest c and m'
    that of the largest a; then a(m*) >= c(m*) - rho >= c(m') - rho
    >= a(m') - 2 rho, so m* is among the lags evaluated.
    """
    lags = np.asarray(lags, dtype=np.int64)
    if len(lags) == 0:
        return 0.0
    v = _window_values(nu)
    N = len(v)
    # entry N - 1 + m of v convolved with its reversal is sum_n v(n) v(n + m)
    auto = convolve(DiscreteSignal(0, v), DiscreteSignal(0, v[::-1])).values
    screened = auto[N - 1 + lags]
    rho = fft_rounding_bound(2 * N - 1, float(np.dot(v, v)))
    best = 0.0
    for m in lags[screened >= np.max(screened) - 2.0 * rho]:
        best = max(best, _corr_value(v, (0, int(m))))
    return best


def _shift_tuples(l: int, N: int, shift_samples: int, rng) -> tuple[list, bool]:
    """Canonical tuples (0 < m_2 < ... < m_l <= N-1), exhaustive when feasible."""
    from math import comb

    total = comb(N - 1, l - 1)
    if total <= shift_samples:
        from itertools import combinations

        return [(0,) + rest for rest in combinations(range(1, N), l - 1)], True
    tuples = set()
    while len(tuples) < shift_samples:
        rest = rng.choice(N - 1, size=l - 1, replace=False) + 1
        tuples.add((0,) + tuple(sorted(int(m) for m in rest)))
    return sorted(tuples), False


def max_correlation(nu: Majorant, l: int, shift_samples: int = SHIFT_SAMPLES,
                    seed: int = 0) -> tuple[float, bool]:
    """Max over tested distinct l-tuples of sum_n nu(n+m_1)...nu(n+m_l), over N."""
    if l < 1:
        raise ValidationError("correlation order must be >= 1")
    if l == 1:
        return nu.l1_mass / nu.N, True
    rng = np.random.default_rng(seed)
    tuples, exhaustive = _shift_tuples(l, nu.N, shift_samples, rng)
    if l == 2:
        return max_lag_correlation(nu, [t[1] for t in tuples]) / nu.N, exhaustive
    v = _window_values(nu)
    best = 0.0
    for t in tuples:
        best = max(best, _corr_value(v, t))
    return best / nu.N, exhaustive


def restriction_lower_estimate(nu: Majorant, p: float, grid: FrequencyGrid,
                               n_masks: int = RESTRICTION_MASKS,
                               seed: int = 0) -> float:
    """Sampled LOWER estimate of sup_{|phi|<=nu} int |phihat|^p, normalized.

    Tests phi = nu and random sign masks of nu; the integral is the grid
    average; the result is scaled by N / ||nu||_1^p.  The average is taken on
    max(grid.M, 2 span - 1) points, span the length of nu's support: phi * phi
    spans 2 span - 1 points, so that grid folds nothing and at p = 4 its mean
    of |phihat|^4 = ||phi * phi||_2^2 is the exact integral.  A shorter grid
    would add the folded overlaps and overestimate.
    """
    rng = np.random.default_rng(seed)
    mass = nu.l1_mass
    sig = nu.signal
    grid = FrequencyGrid(max(grid.M, 2 * (sig.support_hi - sig.support_lo) + 1))
    best = 0.0
    for k in range(n_masks + 1):
        if k == 0:
            phi = sig
        else:
            signs = rng.choice([-1.0, 1.0], size=len(sig.values))
            phi = DiscreteSignal(sig.support_lo, sig.values * signs)
        integral = float(np.mean(np.abs(grid_fourier(phi, grid)) ** p))
        best = max(best, integral)
    return best * nu.N / mass ** p


def diagnose(nu: Majorant, grid: FrequencyGrid | None = None, k_max: int = 2,
             seed: int = 0) -> MajorantDiagnostics:
    """Measure every hypothesis level; the restriction estimate is taken at p = 4."""
    if k_max < 2:
        raise ValidationError("diagnose needs k_max >= 2")
    if grid is None:
        grid = default_grid(nu.N)
    N = nu.N
    decay = fourier_sup_diff(nu.signal, DiscreteSignal.interval(N), grid)
    theta_decay = decay.certified_upper / N
    theta_L2 = lp_norm(nu.signal, 2) ** 2 / N ** 2
    theta_Linf = lp_norm(nu.signal, np.inf) / N
    # every lag at once: the same FFT screen a sample of lags would go through
    corr = {2: max_lag_correlation(nu, np.arange(1, N)) / N}
    corr_exhaustive = {2: True}
    for l in range(3, k_max + 1):
        corr[l], corr_exhaustive[l] = max_correlation(nu, l, SHIFT_SAMPLES, seed)
    # At even p no sign mask can beat phi = nu: |phi| <= nu gives |phi * phi| <=
    # nu * nu pointwise, on Z and on the folded grid Z/M alike (the Hardy-
    # Littlewood majorant property), so int |phihat|^4 = ||phi * phi||_2^2 is
    # largest at phi = nu.
    restriction = {4.0: restriction_lower_estimate(nu, 4.0, grid, n_masks=0)}
    return MajorantDiagnostics(
        theta_decay=theta_decay,
        theta_L2=theta_L2,
        theta_Linf=theta_Linf,
        corr=corr,
        corr_exhaustive=corr_exhaustive,
        restriction_estimate=restriction,
        provenance={"grid_M": grid.M, "shift_samples": SHIFT_SAMPLES,
                    "seed": seed, "restriction_masks": 0},
    )
