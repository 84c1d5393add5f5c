"""Finitely supported real functions on Z with Fourier evaluation on the circle.

A signal is stored on an explicit integer window [lo, hi]; everything outside
is implicitly zero.  Fourier evaluation uses the e(x) = exp(2*pi*i*x)
convention, so fhat(alpha) = sum_n f(n) e(alpha n).  Sup-norm statements about
fhat are certified from its values on a grid of M points j/M by the smaller of
two bounds: the trivial |fhat| <= ||f||_1 and, when M > 2 H_c, the
multiplicative bound sup |fhat| <= (grid max + rho) / cos(pi H_c / M).  Here
H_c = ceil((hi - lo)/2) is the half-width of the window [lo, hi] about an
integer centre c, so each Re(e^{-i psi} e(-c alpha) fhat(alpha)) is a real
trigonometric polynomial T of degree H_c, and rho bounds the rounding of the
grid values.  The multiplicative bound is the inequality T'^2 + n^2 T^2 <=
n^2 ||T||_inf^2 for a real trigonometric polynomial of degree n (van der
Corput and Schaake 1935, after Szego 1928): where T(x0) = ||T||_inf, it gives
T(x0 + x) >= ||T||_inf cos(n x) for |x| <= pi/n, and every angle 2 pi alpha
lies within pi/M of a grid angle.  Ehlich and Zeller (1964) give the same grid
bound.
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceError, ValidationError

# Direct convolution below this support length, cyclic FFT above.
FFT_CONV_THRESHOLD = 512

# Hard cap on the output window of a convolution.
MAX_CONV_LENGTH = 1 << 24

# Unit roundoff of float64, and the constant C of `fft_rounding_bound`.
UNIT_ROUNDOFF = 2.0 ** -53
FFT_ERROR_CONSTANT = 64.0

# Phase-matrix entries per block in `fourier_at_grid_points`.
DIRECT_EVAL_BLOCK = 1 << 14
DIRECT_EVAL_MAX_M = 1 << 31


@dataclass(frozen=True)
class DiscreteSignal:
    """A finitely supported map Z -> R on the window [support_lo, support_hi]."""

    support_lo: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("signal needs a one-dimensional, non-empty value array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("signal values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def support_hi(self) -> int:
        return self.support_lo + len(self.values) - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.support_lo, self.support_hi + 1)

    def __call__(self, n: int) -> float:
        if self.support_lo <= n <= self.support_hi:
            return float(self.values[n - self.support_lo])
        return 0.0

    @staticmethod
    def zero() -> "DiscreteSignal":
        return DiscreteSignal(0, np.zeros(1))

    @staticmethod
    def indicator(lo: int, hi: int) -> "DiscreteSignal":
        if hi < lo:
            raise ValidationError(f"empty indicator window [{lo}, {hi}]")
        return DiscreteSignal(lo, np.ones(hi - lo + 1))

    @staticmethod
    def interval(N: int) -> "DiscreteSignal":
        """Indicator of [1, N]."""
        return DiscreteSignal.indicator(1, N)

    @staticmethod
    def on_points(points, values) -> "DiscreteSignal":
        """`values` (one number, or one per point) on the distinct integers
        `points`, given in any order, and 0 elsewhere in [min points, max points].

        Repeats are not checked for: a repeated point keeps one of its values.
        """
        try:
            pts = np.asarray(points, dtype=np.int64)
        except OverflowError as e:
            raise ValidationError("signal points must fit in int64") from e
        if pts.ndim != 1 or pts.size == 0:
            raise ValidationError("signal needs a one-dimensional, non-empty point array")
        lo = int(pts.min())
        vals = np.zeros(int(pts.max()) - lo + 1)
        try:
            vals[pts - lo] = values
        except ValueError as e:
            raise ValidationError(f"signal values do not match its points: {e}") from e
        return DiscreteSignal(lo, vals)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.values)


def align(f: DiscreteSignal, g: DiscreteSignal) -> tuple[int, np.ndarray, np.ndarray]:
    """Common window [lo, hi] holding both supports; returns (lo, fvals, gvals)."""
    lo = min(f.support_lo, g.support_lo)
    hi = max(f.support_hi, g.support_hi)
    fv = np.zeros(hi - lo + 1)
    gv = np.zeros(hi - lo + 1)
    fv[f.support_lo - lo: f.support_hi - lo + 1] = f.values
    gv[g.support_lo - lo: g.support_hi - lo + 1] = g.values
    return lo, fv, gv


def subtract(f: DiscreteSignal, g: DiscreteSignal) -> DiscreteSignal:
    lo, fv, gv = align(f, g)
    return DiscreteSignal(lo, fv - gv)


@dataclass(frozen=True)
class FrequencyGrid:
    """M equally spaced points j/M of the circle, j = 0..M-1."""

    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValidationError("frequency grid needs M >= 1")


@functools.cache
def _five_smooth_lengths() -> list:
    """Every 5-smooth number 2^a 3^b 5^c below 2^63, in increasing order."""
    lengths = [1]
    for p in (2, 3, 5):
        for m in lengths:  # visits what it appends: each m p^e < 2^63 joins once
            if m * p < 1 << 63:
                lengths.append(m * p)
    return sorted(lengths)


def next_fast_len(n: int) -> int:
    """The least 5-smooth number 2^a 3^b 5^c >= n, a fast length for a real FFT.

    One bisection into the table of every 5-smooth number below 2^63, built on
    first use; a larger n, which no grid or wrap modulus can reach, is refused.
    `scipy.fft.next_fast_len(n, real=True)` gives the same lengths today,
    but documents that its result may change, and the grid sizes and wrap
    moduli that reports print must not.
    """
    n = operator.index(n)
    if n < 1:
        raise ValidationError(f"next_fast_len needs n >= 1, got {n}")
    table = _five_smooth_lengths()
    i = bisect.bisect_left(table, n)
    if i == len(table):
        raise ResourceError(f"next_fast_len: no 5-smooth length below 2^63 is >= {n}")
    return table[i]


def default_grid(support_length: int) -> FrequencyGrid:
    """The check grid of a signal on `support_length` points.

    M is the first 5-smooth length (a fast real FFT) at or above
    max(4096, 4 * support_length).  A window of support_length points has
    half-width H_c <= support_length / 2 about an integer centre, so
    pi H_c / M <= pi / 8 and the multiplicative bound of `certify_sup` is at
    most grid max / cos(pi/8) ~ 1.082 grid max (plus rounding).  Rounding up
    never coarsens the grid, and no transform takes numpy's slow path for a
    length with a large prime factor.
    """
    return FrequencyGrid(next_fast_len(max(4096, 4 * max(1, support_length))))


@dataclass(frozen=True)
class CertifiedSup:
    """Two-sided certificate for sup |dhat| over the circle, from a grid evaluation.

    The upper end is the smaller of two rigorous bounds: the grid maximum plus
    lipschitz_slack, and the trivial |dhat(alpha)| <= ||d||_1, which l1_norm
    holds rounded up past the float sum's error.  lipschitz_slack keeps its
    name, but `certify_sup` stores in it the margin of its multiplicative
    bound over grid_max, capped at ||d||_1.  grid_M is the M of the grid it
    was read on, None for one built by hand; it is not serialised.
    """

    grid_max: float
    lipschitz_slack: float
    l1_norm: float
    grid_M: int | None = None

    def __post_init__(self):
        if self.lipschitz_slack < 0:
            raise ValidationError("lipschitz_slack must be nonnegative")

    @property
    def certified_lower(self) -> float:
        return self.grid_max

    @property
    def certified_upper(self) -> float:
        # never below grid_max, should rounding put the FFT maximum above ||d||_1
        return max(self.grid_max,
                   min(self.grid_max + self.lipschitz_slack, self.l1_norm))

    def as_dict(self) -> dict:
        return {
            "grid_max": self.grid_max,
            "lipschitz_slack": self.lipschitz_slack,
            "l1_norm": self.l1_norm,
            "certified_lower": self.certified_lower,
            "certified_upper": self.certified_upper,
        }


@dataclass(frozen=True)
class Claim:
    """One inequality of a report, value <= bound or value >= bound, and its verdict.

    kind is "exact" or "certified-bound".  `at_most` and `at_least` pad the bound
    by rel and abs, so a bound met up to rounding holds.  A claim with no bound
    states a value alone, and one built by hand may carry no verdict.
    """

    name: str
    kind: str
    value: float
    bound: float | None = None
    ok: bool | None = None

    @classmethod
    def at_most(cls, name: str, kind: str, value, bound, rel=0.0, abs=0.0) -> "Claim":
        return cls(name, kind, value, bound, bool(value <= bound * (1 + rel) + abs))

    @classmethod
    def at_least(cls, name: str, kind: str, value, bound, rel=0.0, abs=0.0) -> "Claim":
        return cls(name, kind, value, bound, bool(value >= bound * (1 - rel) - abs))

    def as_dict(self) -> dict:
        """Its fields in order, without an absent bound or verdict."""
        return {k: v for k, v in vars(self).items() if v is not None}


def fourier_eval(f: DiscreteSignal, alpha: float) -> complex:
    """fhat(alpha) = sum_n f(n) e(alpha n)."""
    phase = np.exp(2j * np.pi * alpha * f.indices.astype(np.float64))
    return complex(np.sum(f.values * phase))


def grid_fourier(f: DiscreteSignal, grid: FrequencyGrid) -> np.ndarray:
    """fhat at the grid points j/M, 0 <= j <= M/2 (indices fold mod M exactly).

    f is real, so one real FFT of the folded buffer gives this half, and
    fhat(-j/M) = conj(fhat(j/M)) gives the rest of the circle.
    """
    M = grid.M
    buf = np.bincount(np.mod(f.indices, M), weights=f.values, minlength=M)
    # conj(rfft(buf))[j] = sum_n buf[n] e(+jn/M), matching the e() sign convention
    half = np.fft.rfft(buf)
    return np.conjugate(half, out=half)


def fourier_at_grid_points(f: DiscreteSignal, grid: FrequencyGrid,
                           j) -> np.ndarray:
    """fhat(j/M) at the given integer grid indices j, by direct summation.

    The phase of each term is reduced exactly in integers, (j n) mod M, so the
    only rounding is in e(k/M) with 0 <= k < M and in the sum.  Costs
    O(len(j) * |supp f|) time and O(DIRECT_EVAL_BLOCK) memory; the right tool
    when only a few of the M values are needed.
    """
    M = grid.M
    if M > DIRECT_EVAL_MAX_M:
        # (j n) mod M is formed from a product below M^2 in int64
        raise ResourceError(f"direct evaluation grid M={M} exceeds cap {DIRECT_EVAL_MAX_M}")
    j = np.mod(np.asarray(j, dtype=np.int64), M)
    nz = np.nonzero(f.values)[0]
    n = np.mod(f.support_lo + nz, M).astype(np.int64)
    weights = f.values[nz]
    out = np.zeros(len(j), dtype=np.complex128)
    step = max(1, DIRECT_EVAL_BLOCK // max(1, len(n)))
    for start in range(0, len(j), step):
        k = np.mod(np.outer(j[start:start + step], n), M)
        # row sums are pairwise, so the sum adds O(u log |supp f|) relative error
        out[start:start + step] = np.sum(np.exp((2j * np.pi / M) * k) * weights, axis=1)
    return out


def fft_rounding_bound(length: int, norm_product: float) -> float:
    """rho = C u (log2 L + 2) ||x||_2 ||y||_2: FFT rounding error of one output.

    Covers every output that is an inner product sum_n x(n) y(n) computed
    through FFTs of length at most L: an entry of a convolution (`convolve`,
    where L is its output length), or fhat at a grid point (`grid_fourier`,
    where y is a character of norm sqrt(M) and L = M).  Wilkinson-style
    first-order analysis of Cooley-Tukey transforms with accurate twiddles
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 24) puts the
    error of two forward transforms, a pointwise product and an inverse below
    about 20 u log2 L ||x||_2 ||y||_2; Bluestein's algorithm for lengths with
    large prime factors is one such convolution of length below 4L, hence the
    +2.  The same products summed directly in float64 (pairwise) err by less
    than (log2 L + 20) u ||x||_2 ||y||_2.  C = 64 covers both with a factor of
    about 3 to spare, so |FFT value - direct float value| <= rho.
    """
    return (FFT_ERROR_CONSTANT * UNIT_ROUNDOFF
            * (math.log2(max(2, length)) + 2.0) * norm_product)


def grid_fourier_rounding(f: DiscreteSignal, grid: FrequencyGrid) -> float:
    """`fft_rounding_bound` for every output of `grid_fourier(f, grid)`.

    The transform acts on f folded mod M; a bin sums at most ceil(len/M)
    window entries, so the folded buffer has norm <= sqrt(ceil(len/M)) ||f||_2.
    """
    folds = -(-len(f.values) // grid.M)
    return fft_rounding_bound(grid.M, math.sqrt(grid.M * folds) * lp_norm(f, 2))


def lp_norm(f: DiscreteSignal, p: float) -> float:
    """Counting-measure L^p norm; p >= 1 or p = inf.

    Here and in `fourier_eval` numpy sums at every length.  A float sum of n
    terms, in any order, is within (n - 1) u sum |x_i| of the exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  The
    constant C of `fft_rounding_bound` and the 1e-9 relative pads of the
    claims that read a norm cover this error, and `certify_sup`'s trivial
    bound ||d||_1 is this float sum rounded up by that bound.
    """
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValidationError(f"lp_norm needs p >= 1 or p = inf, got {p}")
    a = np.abs(f.values)
    if p == 1:
        return float(np.sum(a))
    if p == 2:
        return float(math.sqrt(np.sum(a * a)))
    return float(np.sum(a ** p) ** (1.0 / p))


def _convolve_fft(fv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    out_len = len(fv) + len(gv) - 1
    size = 1
    while size < out_len:
        size *= 2
    F = np.fft.rfft(fv, size)
    G = np.fft.rfft(gv, size)
    return np.fft.irfft(F * G, size)[:out_len]


def convolve(f: DiscreteSignal, g: DiscreteSignal) -> DiscreteSignal:
    """(f*g)(n) = sum_{a+b=n} f(a) g(b) on the window [f.lo+g.lo, f.hi+g.hi]."""
    out_len = len(f.values) + len(g.values) - 1
    if out_len > MAX_CONV_LENGTH:
        raise ResourceError(
            f"convolution output length {out_len} exceeds cap {MAX_CONV_LENGTH}")
    if max(len(f.values), len(g.values)) <= FFT_CONV_THRESHOLD:
        vals = np.convolve(f.values, g.values)
    else:
        vals = _convolve_fft(f.values, g.values)
    return DiscreteSignal(f.support_lo + g.support_lo, vals)


def certify_sup(d: DiscreteSignal, dhat: np.ndarray, grid: FrequencyGrid,
                rho: float) -> CertifiedSup:
    """Certified bracket for ||dhat||_inf over the whole circle, from dhat on the grid.

    dhat holds d's transform at the grid points j/M, or at j <= M/2 only (d is
    real, so the other half has the same moduli), each within rho of its
    exact value: rho is the `grid_fourier_rounding` bound of the transform(s)
    dhat was formed from.  grid_max is attained on the grid, hence a valid
    lower bound.  The upper bound is the smaller of ||d||_1 (its float sum,
    rounded up) and, when
    M > 2 H_c, H_c = ceil((hi - lo)/2) the half-width of d's window [lo, hi],
    (grid_max + rho) / cos(pi H_c / M), rounded up.  This is the van der
    Corput-Schaake (Szego) inequality T'^2 + n^2 T^2 <= n^2 ||T||_inf^2 for
    the real trigonometric polynomials T = Re(e^{-i psi} e(-c alpha)
    dhat(alpha)) of degree n = H_c, c = lo + floor((hi - lo)/2): T >=
    ||T||_inf cos(pi H_c / M) at the grid point nearest a maximum, and the
    exact grid values are at most grid_max + rho.

    lipschitz_slack holds the multiplicative bound's margin over grid_max,
    capped at ||d||_1, or ||d||_1 itself when M <= 2 H_c.
    """
    M = grid.M
    if M < 2:
        raise ValidationError("a Fourier sup certificate needs a grid with M >= 2")
    grid_max = float(np.max(np.abs(dhat)))
    # the float sum s of the n terms |d_i| is within (n - 1) u ||d||_1 of
    # ||d||_1, so ||d||_1 <= s / (1 - (n - 1) u), and s (1 + 4 (n - 1) u) is
    # above that after its own rounding; one term, or a subnormal s, is exact
    l1 = lp_norm(d, 1) * (1.0 + 4.0 * (len(d.values) - 1) * UNIT_ROUNDOFF)
    slack = l1
    H_c = -(-(d.support_hi - d.support_lo) // 2)
    if M > 2 * H_c:
        # cos(pi H_c / M) = sin(pi (M - 2 H_c) / (2M)), which keeps a relative
        # error of a few ulps however near M is to 2 H_c; 16 u rounds up past
        # them and past the few roundings of the quotient and of grid_max + slack
        cos = math.sin(math.pi * (M - 2 * H_c) / (2 * M))
        upper = (grid_max + rho) / cos * (1.0 + 16.0 * UNIT_ROUNDOFF)
        slack = min(slack, upper - grid_max)
    return CertifiedSup(grid_max=grid_max, lipschitz_slack=slack, l1_norm=l1, grid_M=M)


def fourier_sup_diff(f: DiscreteSignal, g: DiscreteSignal,
                     grid: FrequencyGrid) -> CertifiedSup:
    """Certified bracket for ||fhat - ghat||_inf: `certify_sup` of d = f - g."""
    d = subtract(f, g)
    return certify_sup(d, grid_fourier(d, grid), grid, grid_fourier_rounding(d, grid))


def write_csv(f: DiscreteSignal, path) -> None:
    """Signal file format: header `n,value`, one row per support point.

    Zero entries are not support points and get no row, so `read_csv` gives
    back f exactly, on the window from its first to its last nonzero entry; a
    zero signal is the header alone.
    """
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "value"])
            for n, v in zip(f.indices, f.values):
                if v != 0.0:
                    w.writerow([int(n), repr(float(v))])
    except OSError as e:
        raise ValidationError(f"{path}: cannot write: {e.strerror}") from e


def read_csv(path) -> DiscreteSignal:
    """Read the `n,value` format on [least n, greatest n]; rows may be in any
    order, absent n means 0, and a span over the cap is refused unallocated."""
    entries = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if header is None or [h.strip() for h in header[:2]] != ["n", "value"]:
                raise ValidationError(f"{path}: expected header 'n,value'")
            for row in r:
                if not row:
                    continue
                try:
                    n = int(row[0])
                    v = float(row[1])
                except (ValueError, IndexError) as exc:
                    raise ValidationError(f"{path}: bad row {row!r}") from exc
                if n in entries:
                    raise ValidationError(f"{path}: duplicate index n={n}")
                entries[n] = v
    except OSError as e:
        raise ValidationError(f"{path}: cannot read: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: cannot read: not UTF-8 text") from e
    if not entries:
        return DiscreteSignal.zero()
    lo, hi = min(entries), max(entries)
    if hi - lo + 1 > MAX_CONV_LENGTH:
        raise ResourceError(
            f"{path}: index span [{lo}, {hi}] exceeds cap {MAX_CONV_LENGTH}")
    try:
        return DiscreteSignal.on_points(list(entries), list(entries.values()))
    except ValidationError as e:  # an index outside int64
        raise ValidationError(f"{path}: {e}") from e
