"""Four constructions of a bounded approximant g for f majorized by nu.

Three are explicit smoothings of f by the normalized Bohr-set measure sigma of
the large spectrum (two convolutions, one convolution, one convolution with a
decay-driven width), and the fourth obtains g directly as the solution of a
finite linear program minimizing the certified Fourier sup error over
0 <= g <= 1_[N].  Every report carries instance-wise certified inequalities
instead of asymptotic constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .bohr import BohrSet, bohr_enumerate, bohr_measure, bohr_measure_fourier, spectrum
from .errors import DenseModelError, ValidationError
from .majorants import Majorant, max_lag_correlation
from .signals import (
    CertifiedSup,
    Claim,
    DiscreteSignal,
    FrequencyGrid,
    align,
    certify_sup,
    convolve,
    default_grid,
    grid_fourier,
    grid_fourier_rounding,
    lp_norm,
    subtract,
)

if TYPE_CHECKING:
    from scipy.optimize._highspy._core import _Highs

HB_GRID_M = 1024
HB_DIRECTIONS = 16
HB_MAX_ROUNDS = 200
CORR_TUPLE_BUDGET = 40_000
NASLUND_C_P = 1.0


@dataclass(frozen=True)
class DenseModelReport:
    """Output of one construction: g plus measured error and boundedness."""

    variant: str
    params: dict
    g: DiscreteSignal = field(repr=False)
    fourier_err: CertifiedSup
    g_linf: float
    g_l2: float  # sum of g^2, which g_l2_over_N divides by N; not in as_dict
    g_l2_over_N: float
    mass_f: float
    mass_g: float
    g_lk_over_N: float | None = None
    checks: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    claims: list = field(default_factory=list)  # its Claim records, in order; not in as_dict

    def as_dict(self) -> dict:
        d = {
            "variant": self.variant,
            "params": self.params,
            "fourier_err": self.fourier_err.as_dict(),
            "g_linf": self.g_linf,
            "g_l2_over_N": self.g_l2_over_N,
            "mass_f": self.mass_f,
            "mass_g": self.mass_g,
            "g_support": [int(self.g.support_lo), int(self.g.support_hi)],
            "checks": self.checks,
            "flags": list(self.flags),
        }
        if self.g_lk_over_N is not None:
            d["g_lk_over_N"] = self.g_lk_over_N
        return d


def require_majorization(f: DiscreteSignal, nu: Majorant) -> None:
    lo, fv, nv = align(f, nu.signal)
    bad = np.nonzero((fv < 0) | (fv > nv))[0]
    if len(bad):
        n = lo + int(bad[0])
        raise ValidationError(
            f"majorization 0 <= f <= nu fails first at n={n}: "
            f"f(n)={fv[bad[0]]}, nu(n)={nv[bad[0]]}")


def _power_sum(sig: DiscreteSignal, k: float) -> float:
    return float(np.sum(sig.values.astype(np.float64) ** k))


def _report(variant: str, params: dict, f: DiscreteSignal, nu: Majorant,
            g: DiscreteSignal, err: CertifiedSup, checks: dict, flags: list,
            claims: list) -> DenseModelReport:
    """The report of one construction; its norms and masses are read off f and g,
    and its `grid_M` off the grid its Fourier certificate was read on."""
    l2 = _power_sum(g, 2)
    return DenseModelReport(
        variant=variant, params={**params, "grid_M": err.grid_M}, g=g,
        fourier_err=err, g_linf=lp_norm(g, np.inf), g_l2=l2, g_l2_over_N=l2 / nu.N,
        mass_f=float(np.sum(f.values)), mass_g=float(np.sum(g.values)),
        checks=checks, flags=flags, claims=claims)


def _smoothing(variant: str, f: DiscreteSignal, nu: Majorant, eps: float,
               eta: float, power: int, strict: bool,
               **params) -> tuple[DenseModelReport, BohrSet, DiscreteSignal]:
    """The report of g = f * sigma^power before its boundedness claim, with B and sigma.

    Its checks are the pointwise certified inequalities of the proof chain on
    the check grid.  Off-spectrum grid points obey |fhat - ghat| <= 2 eta
    ||nu||_1 because |sigmahat| <= 1; representatives obey |1 - sigmahat|
    <= 2 pi eps since every Bohr element n has ||n alpha_i|| <= eps.
    """
    require_majorization(f, nu)
    if not 0 < eps <= 0.5:
        raise ValidationError("need 0 < eps <= 1/2")
    if not 0 < eta <= 1:
        raise ValidationError("need 0 < eta <= 1")
    spec = spectrum(f, nu, eta, strict=strict)
    B = bohr_enumerate(spec.representatives, eps, nu.N)
    sigma = bohr_measure(B)
    g = convolve(f, sigma)
    if power == 2:
        g = convolve(g, sigma)
    grid = default_grid(g.support_hi - g.support_lo + 1)
    # f, sigma and g are real: the half j <= M/2 holds every modulus
    fhat = grid_fourier(f, grid)
    sighat = grid_fourier(sigma, grid)
    ghat = grid_fourier(g, grid)
    err = certify_sup(subtract(f, g), fhat - ghat, grid,
                      grid_fourier_rounding(f, grid) + grid_fourier_rounding(g, grid))
    fmod = np.abs(fhat)
    sig_pow = sighat ** power
    off = fmod < spec.threshold
    off_max = float(np.max(fmod * np.abs(1.0 - sig_pow), where=off, initial=0.0))
    rep_vals = bohr_measure_fourier(B, FrequencyGrid(spec.M), spec.interval_indices)
    rep_max = float(np.max(np.abs(1.0 - rep_vals))) if spec.r else 0.0
    # convolution-theorem consistency: ghat = fhat * sigmahat^power on the grid
    product = fhat * sig_pow
    scale = max(1.0, float(np.max(np.abs(ghat))))
    checks = {
        "conv_theorem_rel_err": float(np.max(np.abs(ghat - product))) / scale,
        "bohr_size": B.size,
        "spectrum_r": spec.r,
    }
    flags = ["spectrum_grid_capped"] if spec.capped else []
    if B.size == 1:
        # B = {0}: g is f itself and the Fourier certificate is 0 for free
        flags.append("bohr_trivial")
    report = _report(variant, {"eps": eps, "eta": eta, **params}, f, nu, g, err,
                     checks, flags, [])
    _bounded(report, "off_spectrum", Claim.at_most(
        "off_spectrum", "certified-bound", off_max, 2.0 * spec.threshold,
        rel=1e-12, abs=1e-12), off_spectrum_max=off_max)
    _bounded(report, "representative", Claim.at_most(
        "representative", "certified-bound", rep_max, 2.0 * math.pi * eps,
        rel=1e-9, abs=1e-9), representative_max=rep_max)
    return report, B, sigma


def _bounded(report: DenseModelReport, key: str, claim: Claim,
             **checks) -> DenseModelReport:
    """`report` with `checks` and `claim`, whose bound and verdict are also the
    checks `<key>_bound` and `<key>_ok`."""
    report.checks.update(checks, **{f"{key}_bound": claim.bound, f"{key}_ok": claim.ok})
    report.claims.append(claim)
    return report


def green_model(f: DiscreteSignal, nu: Majorant, eps: float, eta: float,
                strict: bool = False) -> DenseModelReport:
    """g = f * sigma * sigma: the doubly smoothed, L^inf-bounded approximant."""
    report, B, _ = _smoothing("green", f, nu, eps, eta, power=2, strict=strict)
    # instance form of the L^inf chain: g <= 1 + theta_decay * N / |B|
    theta_decay = nu.theta_decay
    return _bounded(report, "linf", Claim.at_most(
        "g_linf", "certified-bound", report.g_linf,
        1.0 + theta_decay * nu.N / B.size, rel=1e-9), theta_decay=theta_decay)


def hdr_model(f: DiscreteSignal, nu: Majorant, eps: float,
              strict: bool = False) -> DenseModelReport:
    """g = f * sigma with eta = eps: the singly smoothed, L^2-bounded approximant.

    Its claim is sum g^2 <= theta_L2 N^2 / |B| + corr2 N (1 - 1/|B|).  Since
    0 <= f <= nu, g(n) <= |B|^-1 sum_{b in B} nu(n - b), so with R(m) = sum_n
    nu(n) nu(n + m), sum g^2 <= |B|^-2 sum_{b, b' in B} R(b - b').  The |B|
    diagonal pairs give R(0) = theta_L2 N^2 each, and each of the |B|^2 - |B|
    others gives R(b - b') <= corr2 N.
    """
    report, B, _ = _smoothing("hdr", f, nu, eps, eps, power=1, strict=strict)
    theta_L2 = nu.theta_L2
    corr2 = nu.corr2  # exact: every shift m != 0 is tested
    l2 = report.g_l2
    return _bounded(report, "l2", Claim.at_most(
        "g_l2", "certified-bound", l2,
        theta_L2 * nu.N ** 2 / B.size + corr2 * nu.N * (1.0 - 1.0 / B.size),
        rel=1e-9), theta_L2=theta_L2, corr2=corr2, l2_sum=l2)


def _positive_differences(B: BohrSet) -> np.ndarray:
    """The differences a - b > 0 of Bohr elements a, b, in increasing order.

    Read off the autocorrelation of 1_B, whose value at lag d counts the pairs
    with a - b = d.  The counts are integers and their FFT error is at most
    fft_rounding_bound(MAX_CONV_LENGTH, |B|) <= 3.1e-6 for every autocorrelation
    under the convolution cap, so the cut at 1/2 is exact.
    """
    ind = DiscreteSignal.on_points(B.elements, 1.0).values
    # entry len(ind) - 1 + d of 1_B convolved with its reversal counts lag d
    auto = convolve(DiscreteSignal(0, ind), DiscreteSignal(0, ind[::-1])).values
    return np.nonzero(auto[len(ind):] > 0.5)[0] + 1


def _bohr_restricted_correlations(nu: Majorant, B: BohrSet, k: int) -> dict:
    """Certified per-order maxima of sum_n nu(n+m_1)...nu(n+m_l) / N, m_i in B.

    The value depends only on shift differences; differences of Bohr elements
    are enumerated exactly.  Orders whose difference-tuple count exceeds the
    budget fall back to the certified collapse corr_l <= (theta N)^{l-2} corr_2.
    """
    N = nu.N
    pos = _positive_differences(B)
    pos = pos[pos < N]
    theta = nu.theta_Linf
    out = {1: {"value": nu.l1_mass / N, "method": "exact"}}
    corr2 = max_lag_correlation(nu, pos) / N
    out[2] = {"value": corr2, "method": "exact"}
    for l in range(3, k + 1):
        if len(pos) ** (l - 1) <= CORR_TUPLE_BUDGET:
            best = max((nu.correlation((0,) + combo)
                        for combo in combinations(pos, l - 1)), default=0.0)
            out[l] = {"value": best / N, "method": "exact"}
        else:
            out[l] = {"value": (theta * N) ** (l - 2) * corr2,
                      "method": "collapse"}
    return out


def naslund_model(f: DiscreteSignal, nu: Majorant, k: int, p: float,
                  strict: bool = False) -> DenseModelReport:
    """g = f * sigma at the decay-driven width eps = (2 C_p / log(1/theta))^(1/(p+2)).

    theta is the measured L^inf level nu(n) <= theta N, and p must be finite
    with p + 2 > 0.  A width above 1/2 is cut to 1/2 and flagged
    `width_capped`.  The report certifies the L^k bound through the
    multiplicity-collapse chain with measured, Bohr-restricted correlation
    constants.
    """
    if k < 2:
        raise ValidationError("naslund_model needs k >= 2")
    if not (math.isfinite(p) and p + 2 > 0):
        raise ValidationError(f"naslund_model needs a finite p > -2, got {p}")
    theta = nu.theta_Linf
    if theta >= 1:
        raise ValidationError("naslund_model needs L^inf level theta < 1")
    log_inv = math.log(1.0 / theta)
    width = (2.0 * NASLUND_C_P / log_inv) ** (1.0 / (p + 2))
    eps = min(0.5, width)
    report, B, sigma = _smoothing("naslund", f, nu, eps, eps, power=1, strict=strict,
                                  k=k, p=p, C_p=NASLUND_C_P, theta=theta)
    flags = report.flags
    if k > 0.5 * math.sqrt(log_inv):
        flags.append("k_exceeds_hypothesis_window")
    if width > 0.5:
        # at eps = 1/2 every point of the window is in B, whatever the spectrum
        flags.append("width_capped")
    binom = math.comb(k, 2)
    with np.errstate(over="ignore"):
        collapse = float(np.ldexp(1.0, binom))  # 2^binom, inf past the float range
    bohr_condition = Claim.at_least("bohr_condition", "certified-bound", B.size,
                                    k * collapse * theta * nu.N)
    if not bohr_condition.ok:
        flags.append("unverified boundedness")
    lk = _power_sum(report.g, k)
    corr = _bohr_restricted_correlations(nu, B, k)
    # sum over numbers of distinct shifts: 2^binom |B|^l (theta N)^(k-l) corr_l N,
    # all divided by |B|^k
    chain_bound = collapse * nu.N * sum(
        B.size ** (l - k) * (theta * nu.N) ** (k - l) * corr[l]["value"]
        for l in range(1, k + 1))
    if not math.isfinite(chain_bound):
        raise ValidationError(
            f"naslund_model's L^k collapse bound is not a finite float: k = {k} is too large")
    g_lk = Claim.at_most("g_lk", "certified-bound", lk, chain_bound, rel=1e-9)
    lk_majorant = Claim.at_most("lk_majorant", "certified-bound", lk,
                                _power_sum(convolve(nu.signal, sigma), k), rel=1e-9)
    return _bounded(replace(report, g_lk_over_N=lk / nu.N), "lk_collapse", g_lk,
                    theta_Linf=theta, bohr_condition_rhs=bohr_condition.bound,
                    bohr_condition_ok=bohr_condition.ok, lk_sum=lk,
                    lk_majorant_chain=lk_majorant.bound, lk_majorant_ok=lk_majorant.ok,
                    corr_constants={str(l): corr[l] for l in corr})


def clamp_to_unit_window(g: DiscreteSignal, N: int) -> DiscreteSignal:
    """Restrict to [1, N] and clip into [0, 1]: the LP's feasible set."""
    vals = np.zeros(N)
    lo = max(g.support_lo, 1)
    hi = min(g.support_hi, N)
    if lo <= hi:
        vals[lo - 1: hi] = g.values[lo - g.support_lo: hi - g.support_lo + 1]
    return DiscreteSignal(1, np.clip(vals, 0.0, 1.0))


def _hb_constraint_row(K: int, alpha: float, psi: float,
                       fhat_alpha: complex) -> tuple[np.ndarray, float]:
    """Row of Re[(fhat - ghat)(alpha) e^(-i psi)] <= t in A_ub x <= b form.

    Column n - 1, 1 <= n <= K, carries g's sum over the residue class of n mod
    M; at a grid point alpha = j/M every member of the class has n's phase.
    """
    n = np.arange(1, K + 1)
    row = np.empty(K + 1)
    row[:K] = -np.cos(2.0 * np.pi * alpha * n - psi)
    row[K] = -1.0
    b = -float((fhat_alpha * np.exp(-1j * psi)).real)
    return row, b


def linprog(highs: _Highs, A_ub: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
    """Add the rows A_ub x <= b_ub to the HiGHS model and re-solve it; returns x.

    Rows added to a solved LP leave its basis dual feasible, so the dual simplex
    restarts from the last basis and only repairs the new rows.  This is the one
    call per LP solve: benchmarks/tracing.py wraps `models.linprog` and counts
    the rows of `A_ub`.
    """
    from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, kHighsInf

    k, n = A_ub.shape
    added = highs.addRows(k, np.full(k, -kHighsInf), b_ub, k * n,
                          np.arange(0, k * n, n, dtype=np.int32),
                          np.tile(np.arange(n, dtype=np.int32), k), A_ub.ravel())
    if added == HighsStatus.kError:
        raise DenseModelError("LP rows rejected by HiGHS")
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise DenseModelError(f"LP solve failed: {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value)


def _hb_highs(sizes: np.ndarray) -> _Highs:
    """The row-free LP: minimize t over 0 <= G_k <= sizes[k], t >= 0.

    Column k is the sum G_k of g over the k-th residue class of [1, N] mod the
    LP grid's M, and sizes[k] counts that class; when N <= M every class is
    one point and the columns are g(1), ..., g(N) themselves.  scipy, whose
    HiGHS binding scipy's own `linprog` uses, is imported here and in
    `linprog`, not with the module: the smoothing constructions need numpy
    alone.
    """
    from scipy.optimize._highspy._core import HighsLp, _Highs, kHighsInf

    K = len(sizes)
    lp = HighsLp()
    lp.num_col_ = K + 1
    lp.num_row_ = 0
    lp.col_cost_ = np.r_[np.zeros(K), 1.0]
    lp.col_lower_ = np.zeros(K + 1)
    lp.col_upper_ = np.r_[sizes, kHighsInf]
    lp.a_matrix_.start_ = np.zeros(K + 2, dtype=np.int32)
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(lp)
    return highs


def _hb_spread(G: np.ndarray, target: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The g in [0, 1] with class sums G nearest `target` in l^1; rows are class members.

    `target` is clip(f, 0, 1) and `members` its indicator, laid out (R, K): entry
    (r, k) stands for n = r K + k + 1, a member of class k when n <= N.  With C_k
    the class's target mass, every g of the fibre has ||f - g||_1 >= sum (f - 1)_+
    + sum_k |C_k - G_k|, and a split that never crosses the target attains it:
    when G_k <= C_k each member takes the share G_k / C_k of its target, else its
    target plus the share (G_k - C_k) / (|class| - C_k) of its room below 1.
    The first member takes what the others leave of G_k, so rounding never
    moves a class sum and a one-point class keeps G_k exactly.
    """
    C = target.sum(axis=0)
    room = members.sum(axis=0) - C
    lo = np.clip(np.divide(G, C, out=np.zeros_like(G), where=C > 0), 0.0, 1.0)
    hi = np.clip(np.divide(G - C, room, out=np.zeros_like(G), where=room > 0), 0.0, 1.0)
    g = target * lo + (members - target) * hi
    g[0] = np.clip(G - g[1:].sum(axis=0), 0.0, 1.0)
    return g.ravel()


def hahn_banach_model(f: DiscreteSignal, nu: Majorant,
                      tol: float = 1e-6) -> DenseModelReport:
    """Best bounded approximant 0 <= g <= 1_[N] by direct LP minimization.

    Minimizes t subject to D-direction linearizations of |fhat - ghat| <= t at
    grid frequencies, D = HB_DIRECTIONS, generating rows lazily from g = 0 and
    t = 0: each round adds, at the 24 strongest frequencies with
    |fhat - ghat| cos(pi/D) > t + tol (tol finite and >= 0), the one row of
    the direction psi_d nearest the phase of fhat - ghat.  That row is
    violated, as Re(z e^(-i psi_d)) >= |z| cos(pi/D), so short of rounding it
    is not yet in the LP and every round adds a row until none is violated.
    f and g are real, so the row at (M - j, -psi) is the row at (j, psi) and
    only 0 <= j <= M/2 is scanned.  One HiGHS model gains each new row once
    and re-solves from its last basis.  The LP value t* lower bounds the
    relaxed optimum; the returned g is feasible, so its certified Fourier
    error bounds it above.

    ghat on the grid sees g only through its sums G_k over the residue classes
    of [1, N] mod M, and g -> G maps [0, 1]^N onto the box of 0 <= G_k <=
    |class k|.  So the LP has K = min(N, M) columns G_k and the same optimum
    t*.  After each solve g is read back by `_hb_spread`, the split of each
    G_k over its class nearest f in l^1, and ghat is g's own transform.  When
    M <= 2 H_c, as at every N > M, ||f - g||_1 is the certificate, and this
    split cannot raise it; when N <= M every class is one point and g = G.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"hahn_banach_model needs a finite tol >= 0, got {tol}")
    require_majorization(f, nu)
    grid = FrequencyGrid(HB_GRID_M)
    N = nu.N
    M = grid.M
    psis = 2.0 * np.pi * np.arange(HB_DIRECTIONS) / HB_DIRECTIONS
    fhat = grid_fourier(f, grid)
    cos_gap = math.cos(math.pi / HB_DIRECTIONS)

    K = min(N, M)
    R = -(-N // K)
    # [1, N] padded to R K points and laid out (R, K): entry (r, k) is
    # n = r K + k + 1, so column k holds the residue class of k + 1 mod M
    members = (np.arange(R * K) < N).astype(np.float64).reshape(R, K)
    target = np.zeros(R * K)
    target[:N] = clamp_to_unit_window(f, N).values
    target = target.reshape(R, K)
    highs = _hb_highs(members.sum(axis=0))
    rows = set()  # (j, d) already in the LP; at j = 0 and j = M/2, d and -d give one row
    g_vals = np.zeros(N)
    ghat = np.zeros_like(fhat)
    t_star = 0.0
    solves = 0
    while True:
        mods = np.abs(fhat - ghat)
        violated = [int(j) for j in np.argsort(-mods)[:24]
                    if mods[j] * cos_gap > t_star + tol]
        if not violated or solves == HB_MAX_ROUNDS:
            break
        new = []
        for j in violated:
            diff = fhat[j] - ghat[j]
            phase = math.atan2(diff.imag, diff.real)
            d = int(round(phase / (2 * math.pi / HB_DIRECTIONS))) % HB_DIRECTIONS
            if j == 0 or 2 * j == M:
                d = min(d, -d % HB_DIRECTIONS)
            if (j, d) not in rows:
                rows.add((j, d))
                new.append(_hb_constraint_row(K, j / M, float(psis[d]), fhat[j]))
        if not new:
            break  # the row at each violated j is in: a re-solve returns the same g
        A, b = zip(*new)
        x = linprog(highs, A_ub=np.array(A), b_ub=np.array(b))
        solves += 1
        g_vals = _hb_spread(x[:K], target, members)[:N]
        t_star = float(x[K])
        ghat = grid_fourier(DiscreteSignal(1, g_vals), grid)
    converged = not violated
    g = DiscreteSignal(1, g_vals)
    # ghat is g's, at j <= M/2
    err = certify_sup(subtract(f, g), fhat - ghat, grid,
                      grid_fourier_rounding(f, grid) + grid_fourier_rounding(g, grid))
    flags = [] if converged else ["row_generation_cap_reached"]
    checks = {
        "t_star": t_star,
        "t_upper": err.certified_upper,
        "direction_secant": 1.0 / cos_gap,
        "rounds_constraints": len(rows),
        "converged": converged,
    }
    return _report("hahn_banach", {"directions": HB_DIRECTIONS, "tol": tol},
                   f, nu, g, err, checks, flags,
                   [Claim("lp_optimum", "certified-bound", t_star, err.certified_upper,
                          converged)])
