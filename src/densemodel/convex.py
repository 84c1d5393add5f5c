"""Constructive finite-dimensional convex duality tools.

Nearest-point projection onto the convex hull of finitely many points via
Frank-Wolfe with away steps (the duality gap is the optimality certificate),
a supporting-hyperplane witness built from the projection direction, and the
bilinear saddle point over two finite hulls via the matrix-game linear
programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DenseModelError, ValidationError

DEFAULT_TOL = 1e-8
FW_MAX_ITER = 50_000


@dataclass(frozen=True)
class PointHull:
    """Convex hull of finitely many points in R^d, kept as its generators."""

    generators: np.ndarray = field(repr=False)

    def __post_init__(self):
        gens = np.atleast_2d(np.asarray(self.generators, dtype=np.float64))
        if gens.size == 0:
            raise ValidationError("a hull needs at least one generator")
        if not np.all(np.isfinite(gens)):
            raise ValidationError("hull generators must be finite")
        gens = gens.copy()
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)

    @property
    def dimension(self) -> int:
        return self.generators.shape[1]

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs) @ self.generators


@dataclass(frozen=True)
class HyperplaneWitness:
    """phi = x - y0 separating x from the hull, y0 its nearest point.

    Every hull point y satisfies y . phi <= anchor_value (up to the gap
    tolerance), while x . phi = anchor_value + |phi|^2.
    """

    normal: np.ndarray
    anchor_value: float


@dataclass(frozen=True)
class HullProjection:
    point: np.ndarray
    coefficients: np.ndarray
    distance: float
    gap: float
    iterations: int
    inside: bool
    witness: HyperplaneWitness | None


def project_onto_hull(x, A: PointHull, tol: float = DEFAULT_TOL) -> HullProjection:
    """Nearest point of hull(A) to x, certified by the Frank-Wolfe gap.

    Away steps make the active set sparse and restore linear convergence.  If
    the distance exceeds tol, a hyperplane witness with normal x - y0 is
    returned; the obtuse-angle condition (x-y0).(a_i-y0) <= 0 is what makes it
    valid, up to the gap tolerance.
    """
    x = np.asarray(x, dtype=np.float64)
    gens = A.generators
    if x.shape != (A.dimension,):
        raise ValidationError("point dimension does not match hull")
    if not np.all(np.isfinite(x)):
        raise ValidationError("point must be finite")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    with np.errstate(over="ignore"):
        scale = 1.0 + float(np.dot(x, x))
    if not math.isfinite(scale):
        raise ValidationError("point too large: |x|^2 overflows")
    with np.errstate(over="ignore"):
        dist2 = np.sum((gens - x) ** 2, axis=1)
        # with D^2 = max |a_i - x|^2, every |a_i|, |y| <= |x| + D and |y - x| <= D,
        # so each score, gap, step and anchor is at most |x|^2 + 4 D^2 in size
        reach = scale + 4.0 * float(np.max(dist2))
    if not math.isfinite(reach):
        raise ValidationError("generators too far from the point: |a_i - x|^2 overflows")
    lam = np.zeros(A.n_generators)
    lam[int(np.argmin(dist2))] = 1.0
    gap = math.inf
    it = 0
    for it in range(1, FW_MAX_ITER + 1):
        y = lam @ gens
        grad = y - x
        scores = gens @ grad
        s = int(np.argmin(scores))
        grad_y = np.dot(grad, y)
        gap = float(grad_y - scores[s])  # also the Frank-Wolfe step's improvement
        if gap <= tol * scale:
            break
        active = np.nonzero(lam > 0)[0]
        v = int(active[np.argmax(scores[active])])
        away_improve = float(scores[v] - grad_y)
        if gap >= away_improve:
            d = gens[s] - y
            gamma_max = 1.0
            toward, away_from = s, None
        else:
            d = y - gens[v]
            gamma_max = lam[v] / (1.0 - lam[v]) if lam[v] < 1.0 else 1.0
            toward, away_from = None, v
        dd = float(np.dot(d, d))
        if dd == 0.0:
            break
        gamma = min(gamma_max, max(0.0, -float(np.dot(grad, d)) / dd))
        if gamma == 0.0:
            break
        if toward is not None:
            lam *= (1.0 - gamma)
            lam[toward] += gamma
        else:
            lam *= (1.0 + gamma)
            lam[away_from] -= gamma
            lam[lam < 0] = 0.0
            lam /= lam.sum()
    y0 = lam @ gens
    dist = float(np.linalg.norm(x - y0))
    inside = dist <= tol * math.sqrt(scale)
    witness = None
    if not inside:
        phi = x - y0
        witness = HyperplaneWitness(normal=phi,
                                    anchor_value=float(np.dot(y0, phi)))
    return HullProjection(point=y0, coefficients=lam, distance=dist,
                          gap=gap, iterations=it, inside=inside,
                          witness=witness)


@dataclass(frozen=True)
class SaddleResult:
    """a . b_star <= value <= a_star . b for all a in A, b in B (up to gap)."""

    a_star: np.ndarray
    b_star: np.ndarray
    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    value: float
    gap: float


def _game_lp(G: np.ndarray):
    """Mixed maximin strategy and value for payoff G (row player maximizes)."""
    from scipy.optimize import linprog  # only here: the rest of densemodel needs numpy alone

    m, k = G.shape
    # variables (lambda_1..lambda_m, v); maximize v
    c = np.zeros(m + 1)
    c[m] = -1.0
    A_ub = np.hstack([-G.T, np.ones((k, 1))])
    b_ub = np.zeros(k)
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * m + [(None, None)], method="highs")
    if not res.success:
        raise DenseModelError(f"matrix game LP failed: {res.message}")
    return res.x[:m], float(res.x[m])


def minimax_solve(A: PointHull, B: PointHull,
                  tol: float = 1e-7) -> SaddleResult:
    """Bilinear saddle over two finite hulls, via the payoff matrix game.

    The saddle a . b0 <= a0 . b reduces to mixed strategies for the game with
    payoff G_ij = a_i . b_j; both players' linear programs are solved and the
    generator-wise gap certifies the result.
    """
    if A.dimension != B.dimension:
        raise ValidationError("hulls must share a dimension")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    with np.errstate(over="ignore"):
        G = A.generators @ B.generators.T
    if not np.all(np.isfinite(G)):
        raise ValidationError("generators too large: the payoff a_i . b_j overflows")
    lam, lower = _game_lp(G)
    mu, neg_upper = _game_lp(-G.T)
    upper = -neg_upper
    a_star = A.combine(lam)
    b_star = B.combine(mu)
    value = 0.5 * (lower + upper)
    gap = float(np.max(A.generators @ b_star) - np.min(B.generators @ a_star))
    if gap > max(tol, 1e-9 * (1.0 + abs(value))) * 100:
        raise DenseModelError(f"saddle gap {gap} exceeds tolerance")
    return SaddleResult(a_star=a_star, b_star=b_star, a_coeffs=lam,
                        b_coeffs=mu, value=value, gap=max(gap, 0.0))
