"""Large-spectrum extraction on an interval cover and Bohr set enumeration.

The spectrum grid has M intervals, the first 5-smooth M (a fast FFT length)
at or above ceil(4*pi*N/eta), so that any point of the true spectrum lies in a
covered interval whose representative is within eta/(4*pi*N), the radius
under which |fhat| can drop by at most half the threshold.  A real f has a
symmetric spectrum and ||n(-alpha)|| = ||n alpha||, so only the half circle
j <= M/2 is kept: B(S, eps) = B(S cap [0, 1/2], eps).  The fine grid is
searched coarse to fine: a certified Taylor bound on the cells of a grid of
at least 8 len f points rules out every fine point of most cells, and only
the rest are summed directly, unless one fine FFT costs less.  Bohr sets are enumerated by direct
scan, which at desk scale is exact, and carry the pigeonhole lower-bound
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceError, ValidationError
from .majorants import Majorant
from .signals import (
    DIRECT_EVAL_BLOCK,
    DIRECT_EVAL_MAX_M,
    MAX_CONV_LENGTH,
    DiscreteSignal,
    FrequencyGrid,
    default_grid,
    fourier_at_grid_points,
    grid_fourier,
    grid_fourier_rounding,
    lp_norm,
    next_fast_len,
)

M_CAP_DEFAULT = 1 << 22
MEMBERSHIP_TOL = 1e-12
FREQ_CHUNK = 512

# One direct term f(n) e(j n / M) of `fourier_at_grid_points` costs about as
# much as this many units of M log2 M in one fine `grid_fourier`.
DIRECT_TERM_COST = 32


@dataclass(frozen=True)
class SpectrumSet:
    """Grid intervals j <= M/2 meeting {alpha : |fhat(alpha)| >= eta * ||nu||_1}.

    f is real, so |fhat(-alpha)| = |fhat(alpha)|: the interval M - j meets the
    spectrum exactly when j does, and one of each pair {alpha, -alpha} is kept.
    """

    threshold: float
    eta: float
    M: int
    interval_indices: np.ndarray = field(repr=False)
    capped: bool = False

    def __post_init__(self):
        arr = np.asarray(self.interval_indices).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "interval_indices", arr)

    @property
    def representatives(self) -> np.ndarray:
        """The grid point j/M of each interval."""
        return self.interval_indices / self.M

    @property
    def r(self) -> int:
        return len(self.interval_indices)


def spectrum(f: DiscreteSignal, nu: Majorant, eta: float,
             strict: bool = False) -> SpectrumSet:
    """Intervals j <= M/2 of the eta-level spectrum of f.

    M is the first 5-smooth length at or above ceil(4 pi N / eta), the size
    the covering argument needs; when only this rounding would pass
    `M_CAP_DEFAULT`, M is the cap itself, which still covers.  `capped` is
    set, and `strict` refuses, only when ceil(4 pi N / eta) itself passes the
    cap.  Only j <= M/2 is thresholded: the spectrum of a real f is
    symmetric, and the Bohr set of the kept representatives equals that of
    the whole spectrum.

    A grid point is included when its value satisfies |fhat| >= threshold -
    rho, with rho the `grid_fourier_rounding` bound of the fine grid, so no
    point whose exact |fhat| reaches eta * ||nu||_1 is lost to rounding (f =
    nu, eta = 1 puts frequency 0 exactly on the threshold).  An extra point
    within rho below the threshold only shrinks the Bohr set built on the
    representatives.

    The values come from a coarse-to-fine search (`_candidates`): the fine
    points of the coarse cells that may reach threshold - 2 rho are summed
    directly, unless one fine FFT is cheaper, and then every value comes
    from `grid_fourier` on the fine grid.  Either way a fine point is kept by
    the same rule.
    """
    if not 0 < eta <= 1:
        raise ValidationError("spectrum needs 0 < eta <= 1")
    N = nu.N
    need = 4 * math.pi * N / eta  # inf for a subnormal eta
    capped = need > M_CAP_DEFAULT  # ceil(need) > the cap, an integer
    if capped and strict:
        need = math.ceil(need) if need < math.inf else need
        raise ResourceError(f"spectrum grid M={need} exceeds cap {M_CAP_DEFAULT}")
    # M must not pass the cap, which rounding up may; clamping need first keeps
    # the 5-smooth search at the cap's size however small eta is
    M = min(next_fast_len(math.ceil(min(need, M_CAP_DEFAULT))), M_CAP_DEFAULT)
    threshold = eta * nu.l1_mass
    grid = FrequencyGrid(M)
    rho = grid_fourier_rounding(f, grid)
    j = _candidates(f, M, threshold - 2.0 * rho)
    if j is None:
        mods = np.abs(grid_fourier(f, grid))
        idx = np.nonzero(mods >= threshold - rho)[0]
    else:
        idx = j[np.abs(fourier_at_grid_points(f, grid, j)) >= threshold - rho]
    return SpectrumSet(threshold=threshold, eta=eta, M=M,
                       interval_indices=idx, capped=capped)


def _candidates(f: DiscreteSignal, M: int, level: float) -> np.ndarray | None:
    """Fine indices j <= M/2 whose coarse cell may hold a |fhat| >= level.

    The coarse grid is `default_grid(2 len f)`: its M0 points are the first
    5-smooth length at or above max(4096, 8 len f); the cell of a coarse
    point a is |x - a| <= h = 1/(2 M0), and the cells cover the circle.  Re-centring f
    to half-width H leaves |fhat| as it is, and Taylor's theorem gives on
    the cell

        |fhat(x)| <= |fhat(a)| + |fhat'(a)| h + (2 pi H)^2 ||f||_1 h^2 / 2,

    where fhat'(a) = 2 pi i sum_n n f(n) e(a n) over the re-centred f, and
    |fhat''| <= (2 pi H)^2 ||f||_1.  Two real FFTs give |fhat(a)| and
    |fhat'(a)| at every coarse point to within their `grid_fourier_rounding`
    bounds rho0 and rho1, which are added in and also cover the few
    roundings of the bound itself.  A cell whose bound stays below level
    holds no fine point that reaches it.

    Returns None, so that the caller takes one fine FFT, when the coarse grid
    is not coarser than the fine one, or when summing the candidates
    directly, DIRECT_TERM_COST per term of points x |supp f|, would cost
    more than one fine FFT, M log2 M.
    """
    coarse = default_grid(2 * len(f.values))
    M0 = coarse.M
    if M0 >= M:
        return None
    c = (f.support_lo + f.support_hi) // 2
    n = f.indices - c
    H = max(-int(n[0]), int(n[-1]))
    centred = DiscreteSignal(f.support_lo - c, f.values)
    moment = DiscreteSignal(f.support_lo - c, n * f.values)
    h = 0.5 / M0
    value = (np.abs(grid_fourier(centred, coarse))
             + grid_fourier_rounding(centred, coarse))
    slope = 2.0 * math.pi * (np.abs(grid_fourier(moment, coarse))
                             + grid_fourier_rounding(moment, coarse))
    curvature = (2.0 * math.pi * H) ** 2 * lp_norm(f, 1)
    cells = np.nonzero(value + slope * h + curvature * h * h / 2.0 >= level)[0]
    # fine j lies in the cell of a = cell/M0 when |2 j M0 - 2 cell M| <= M
    lo = np.maximum(0, -((M - 2 * cells * M) // (2 * M0)))
    hi = np.minimum(M // 2, (2 * cells * M + M) // (2 * M0))
    counts = hi - lo + 1  # at least 1: a cell is M/M0 > 1 fine steps wide
    total = int(counts.sum())
    if DIRECT_TERM_COST * total * np.count_nonzero(f.values) > M * math.log2(M):
        return None
    shift = np.repeat(lo - np.cumsum(counts) + counts, counts)
    # neighbouring cells share a boundary point, kept once
    return np.unique(shift + np.arange(total))


def circle_distance(x) -> np.ndarray:
    """Distance to the nearest integer, elementwise (round half to even)."""
    x = np.asarray(x, dtype=np.float64)
    return np.abs(x - np.round(x))


@dataclass(frozen=True)
class BohrSet:
    """B(S, eps) = {n in [-eps N, eps N] : ||n alpha|| <= eps for all alpha in S}."""

    frequencies: np.ndarray = field(repr=False)
    eps: float
    N: int
    elements: np.ndarray = field(repr=False)
    pigeonhole_floor: float

    def __post_init__(self):
        for name in ("frequencies", "elements"):
            arr = np.asarray(getattr(self, name)).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        elems = self.elements
        if len(elems) == 0 or 0 not in elems:
            raise ValidationError("Bohr set must contain 0")
        if not np.array_equal(np.sort(-elems), elems):
            raise ValidationError("Bohr set must be symmetric")

    @property
    def size(self) -> int:
        return len(self.elements)

    def as_dict(self) -> dict:
        return {
            "frequencies": [float(a) for a in self.frequencies],
            "eps": self.eps,
            "N": self.N,
            "size": self.size,
            "elements": [int(n) for n in self.elements],
            "pigeonhole_floor": self.pigeonhole_floor,
        }


def bohr_enumerate(freqs, eps: float, N: int) -> BohrSet:
    """Direct scan of [0, floor(eps N)] against every frequency, mirrored to B = -B.

    The recorded pigeonhole floor eps*N/2 * ceil(2/eps)^(-r) is guaranteed for
    the half-width set B(S, eps/2), hence for this superset as well.  A scan
    window longer than the convolution cap is refused before it is allocated.
    """
    if not 0 < eps <= 0.5:
        raise ValidationError("bohr_enumerate needs 0 < eps <= 1/2")
    if N < 1:
        raise ValidationError("bohr_enumerate needs N >= 1")
    freqs = np.atleast_1d(np.asarray(freqs, dtype=np.float64))
    if not np.all(np.isfinite(freqs)):
        raise ValidationError("bohr_enumerate needs finite frequencies")
    nmax = int(math.floor(eps * N))
    if 2 * nmax + 1 > MAX_CONV_LENGTH:
        raise ResourceError(
            f"Bohr scan window [-{nmax}, {nmax}] exceeds cap {MAX_CONV_LENGTH}")
    # (-n) alpha = -(n alpha) in floats and round half to even is odd, so
    # ||(-n) alpha|| = ||n alpha|| exactly: scan n >= 0 and mirror
    cands = np.arange(nmax + 1)
    bound = eps + MEMBERSHIP_TOL
    for start in range(0, len(freqs), FREQ_CHUNK):
        chunk = freqs[start:start + FREQ_CHUNK]
        dist = circle_distance(np.outer(cands, chunk))
        cands = cands[np.all(dist <= bound, axis=1)]
    r = len(freqs)
    # 2 / eps is inf for a subnormal eps, and ceil(2 / eps)^(-r) is then 0 for r >= 1
    q = 2.0 / eps
    floor_val = 0.5 * eps * N * (math.ceil(q) ** (-r) if q < math.inf else 0.0 ** r)
    # cands[0] = 0, which every frequency keeps
    return BohrSet(frequencies=freqs, eps=eps, N=N,
                   elements=np.concatenate((-cands[:0:-1], cands)),
                   pigeonhole_floor=floor_val)


def bohr_measure(B: BohrSet) -> DiscreteSignal:
    """sigma = |B|^{-1} 1_B, the normalized counting measure of B, on [min B, max B]."""
    if B.size == 0:
        raise ValidationError("cannot normalize an empty Bohr set")
    return DiscreteSignal.on_points(B.elements, 1.0 / B.size)


def bohr_measure_fourier(B: BohrSet, grid: FrequencyGrid, j) -> np.ndarray:
    """sigmahat(j/M) for sigma = `bohr_measure(B)`, by direct summation.

    B = -B, so sigmahat is real and only B's positive half is summed:
    sigmahat(j/M) = (1 + 2 sum_{b in B, b > 0} cos(2 pi ((b j) mod M) / M)) / |B|.
    The phase is reduced exactly in integers and the terms are taken in
    blocks of DIRECT_EVAL_BLOCK, as in `fourier_at_grid_points`.
    """
    M = grid.M
    if M > DIRECT_EVAL_MAX_M:
        # (j b) mod M is formed from a product below M^2 in int64
        raise ResourceError(f"direct evaluation grid M={M} exceeds cap {DIRECT_EVAL_MAX_M}")
    j = np.mod(np.asarray(j, dtype=np.int64), M)
    pos = B.elements[B.elements > 0].astype(np.int64)
    sums = np.zeros(len(j))
    step = max(1, DIRECT_EVAL_BLOCK // max(1, len(pos)))
    for start in range(0, len(j), step):
        k = np.mod(np.outer(j[start:start + step], pos), M)
        sums[start:start + step] = np.sum(np.cos((2.0 * np.pi / M) * k), axis=1)
    return (1.0 + 2.0 * sums) / B.size
