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
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize._highspy._core import (
    HighsLp,
    HighsModelStatus,
    HighsStatus,
    _Highs,
    kHighsInf,
)

from .bohr import BohrSet, bohr_enumerate, bohr_measure, spectrum
from .errors import DenseModelError, ValidationError
from .majorants import Majorant, _corr_value, _window_values, max_lag_correlation
from .signals import (
    CertifiedSup,
    DiscreteSignal,
    FrequencyGrid,
    align,
    convolve,
    default_grid,
    fourier_at_grid_points,
    fourier_sup_diff,
    grid_fourier,
    lp_norm,
)

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
    g_l2_over_N: float
    mass_f: float
    mass_g: float
    g_lk_over_N: float | None = None
    checks: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    claims: list = field(default_factory=list)  # (name, value, bound, ok); not in as_dict

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


def validate_majorization(f: DiscreteSignal, nu: Majorant) -> bool:
    """True iff 0 <= f(n) <= nu(n) for all n."""
    try:
        require_majorization(f, nu)
    except ValidationError:
        return False
    return True


def _power_sum(sig: DiscreteSignal, k: float) -> float:
    return float(np.sum(sig.values.astype(np.float64) ** k))


def _report(variant: str, params: dict, f: DiscreteSignal, nu: Majorant,
            g: DiscreteSignal, err: CertifiedSup, checks: dict, flags: list,
            claims: list, lk_sum: float | None = None) -> DenseModelReport:
    """The report of one construction; its norms and masses are read off f and g."""
    return DenseModelReport(
        variant=variant, params=params, g=g, fourier_err=err,
        g_linf=lp_norm(g, np.inf), g_l2_over_N=_power_sum(g, 2) / nu.N,
        mass_f=float(np.sum(f.values)), mass_g=float(np.sum(g.values)),
        g_lk_over_N=None if lk_sum is None else lk_sum / nu.N,
        checks=checks, flags=flags, claims=claims)


def _convolution_model(f: DiscreteSignal, nu: Majorant, eps: float,
                       eta: float, power: int, grid: FrequencyGrid | None,
                       strict: bool) -> tuple:
    """Shared core of the smoothing constructions: returns pieces for reports.

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
    if grid is None:
        grid = default_grid(g.support_hi - g.support_lo + 1)
    err = fourier_sup_diff(f, g, grid)
    fhat = grid_fourier(f, grid)
    sighat = grid_fourier(sigma, grid)
    diff = np.abs(fhat) * np.abs(1.0 - sighat ** power)
    off = np.abs(fhat) < spec.threshold
    off_max = float(np.max(diff[off])) if off.any() else 0.0
    rep_vals = fourier_at_grid_points(sigma, FrequencyGrid(spec.M),
                                      spec.interval_indices)
    rep_max = float(np.max(np.abs(1.0 - rep_vals))) if spec.r else 0.0
    # convolution-theorem consistency: ghat = fhat * sigmahat^power on the grid
    ghat = grid_fourier(g, grid)
    product = fhat * sighat ** power
    scale = max(1.0, float(np.max(np.abs(ghat))))
    checks = {
        "off_spectrum_max": off_max,
        "off_spectrum_bound": 2.0 * spec.threshold,
        "off_spectrum_ok": off_max <= 2.0 * spec.threshold * (1 + 1e-12) + 1e-12,
        "representative_max": rep_max,
        "representative_bound": 2.0 * math.pi * eps,
        "representative_ok": rep_max <= 2.0 * math.pi * eps * (1 + 1e-9) + 1e-9,
        "conv_theorem_rel_err": float(np.max(np.abs(ghat - product))) / scale,
        "bohr_size": B.size,
        "spectrum_r": spec.r,
    }
    claims = [(c, checks[f"{c}_max"], checks[f"{c}_bound"], checks[f"{c}_ok"])
              for c in ("off_spectrum", "representative")]
    flags = ["spectrum_grid_capped"] if spec.capped else []
    if B.size == 1:
        # B = {0}: g is f itself and the Fourier certificate is 0 for free
        flags.append("bohr_trivial")
    return B, sigma, g, grid, err, checks, flags, claims


def green_model(f: DiscreteSignal, nu: Majorant, eps: float, eta: float,
                grid: FrequencyGrid | None = None,
                strict: bool = False) -> DenseModelReport:
    """g = f * sigma * sigma: the doubly smoothed, L^inf-bounded approximant."""
    B, _, g, grid, err, checks, flags, claims = _convolution_model(
        f, nu, eps, eta, power=2, grid=grid, strict=strict)
    # instance form of the L^inf chain: g <= 1 + theta_decay * N / |B|
    decay = fourier_sup_diff(nu.signal, DiscreteSignal.interval(nu.N), grid)
    theta_decay = decay.certified_upper / nu.N
    linf_bound = 1.0 + theta_decay * nu.N / B.size
    g_linf = lp_norm(g, np.inf)
    checks["theta_decay"] = theta_decay
    checks["linf_bound"] = linf_bound
    checks["linf_ok"] = g_linf <= linf_bound * (1 + 1e-9)
    claims.append(("g_linf", g_linf, linf_bound, checks["linf_ok"]))
    return _report("green", {"eps": eps, "eta": eta, "grid_M": grid.M},
                   f, nu, g, err, checks, flags, claims)


def hdr_model(f: DiscreteSignal, nu: Majorant, eps: float,
              grid: FrequencyGrid | None = None,
              strict: bool = False) -> DenseModelReport:
    """g = f * sigma with eta = eps: the singly smoothed, L^2-bounded approximant."""
    B, _, g, grid, err, checks, flags, claims = _convolution_model(
        f, nu, eps, eps, power=1, grid=grid, strict=strict)
    theta_L2 = lp_norm(nu.signal, 2) ** 2 / nu.N ** 2
    # exact: every shift m != 0 is tested
    corr2 = max_lag_correlation(nu, np.arange(1, nu.N)) / nu.N
    l2 = _power_sum(g, 2)
    # proof split: diagonal pairs give theta_L2 N^2 / |B|, off-diagonal corr2 N
    l2_bound = theta_L2 * nu.N ** 2 / B.size + 2.0 * corr2 * nu.N
    checks.update({
        "theta_L2": theta_L2,
        "corr2": corr2,
        "l2_sum": l2,
        "l2_bound": l2_bound,
        "l2_ok": l2 <= l2_bound * (1 + 1e-9),
    })
    claims.append(("g_l2", l2, l2_bound, checks["l2_ok"]))
    return _report("hdr", {"eps": eps, "eta": eps, "grid_M": grid.M},
                   f, nu, g, err, checks, flags, claims)


def _positive_differences(B: BohrSet) -> np.ndarray:
    """The differences a - b > 0 of Bohr elements a, b, in increasing order.

    Read off the autocorrelation of 1_B, whose value at lag d counts the pairs
    with a - b = d.  The counts are integers and their FFT error is at most
    fft_rounding_bound(MAX_CONV_LENGTH, |B|) <= 3.1e-6 for every autocorrelation
    under the convolution cap, so the cut at 1/2 is exact.
    """
    elems = B.elements
    ind = np.zeros(int(elems[-1] - elems[0]) + 1)
    ind[elems - elems[0]] = 1.0
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
    theta = lp_norm(nu.signal, np.inf) / N
    out = {1: {"value": nu.l1_mass / N, "method": "exact"}}
    corr2 = max_lag_correlation(nu, pos) / N
    out[2] = {"value": corr2, "method": "exact"}
    for l in range(3, k + 1):
        if len(pos) ** (l - 1) <= CORR_TUPLE_BUDGET:
            v = _window_values(nu)
            best = max((_corr_value(v, (0,) + combo)
                        for combo in combinations(pos, l - 1)), default=0.0)
            out[l] = {"value": best / N, "method": "exact"}
        else:
            out[l] = {"value": (theta * N) ** (l - 2) * corr2,
                      "method": "collapse"}
    return out


def naslund_model(f: DiscreteSignal, nu: Majorant, k: int, p: float,
                  grid: FrequencyGrid | None = None,
                  strict: bool = False) -> DenseModelReport:
    """g = f * sigma at the decay-driven width eps = (2 C_p / log(1/theta))^(1/(p+2)).

    theta is the measured L^inf level nu(n) <= theta N.  A width above 1/2 is
    cut to 1/2 and flagged `width_capped`.  The report certifies the L^k bound
    through the multiplicity-collapse chain with measured, Bohr-restricted
    correlation constants.
    """
    if k < 2:
        raise ValidationError("naslund_model needs k >= 2")
    theta = lp_norm(nu.signal, np.inf) / nu.N
    if theta >= 1:
        raise ValidationError("naslund_model needs L^inf level theta < 1")
    log_inv = math.log(1.0 / theta)
    width = (2.0 * NASLUND_C_P / log_inv) ** (1.0 / (p + 2))
    eps = min(0.5, width)
    B, sigma, g, grid, err, checks, flags, claims = _convolution_model(
        f, nu, eps, eps, power=1, grid=grid, strict=strict)
    if k > 0.5 * math.sqrt(log_inv):
        flags.append("k_exceeds_hypothesis_window")
    if width > 0.5:
        # at eps = 1/2 every point of the window is in B, whatever the spectrum
        flags.append("width_capped")
    binom = math.comb(k, 2)
    bohr_condition = B.size >= k * (2 ** binom) * theta * nu.N
    if not bohr_condition:
        flags.append("unverified boundedness")
    lk = _power_sum(g, k)
    corr = _bohr_restricted_correlations(nu, B, k)
    # sum over numbers of distinct shifts: 2^binom |B|^l (theta N)^(k-l) corr_l N,
    # all divided by |B|^k
    chain_bound = (2 ** binom) * nu.N * sum(
        B.size ** (l - k) * (theta * nu.N) ** (k - l) * corr[l]["value"]
        for l in range(1, k + 1))
    nu_smoothed = convolve(nu.signal, sigma)
    majorant_chain = _power_sum(nu_smoothed, k)
    checks.update({
        "theta_Linf": theta,
        "bohr_condition_rhs": k * (2 ** binom) * theta * nu.N,
        "bohr_condition_ok": bool(bohr_condition),
        "lk_sum": lk,
        "lk_majorant_chain": majorant_chain,
        "lk_majorant_ok": lk <= majorant_chain * (1 + 1e-9),
        "lk_collapse_bound": chain_bound,
        "lk_collapse_ok": lk <= chain_bound * (1 + 1e-9),
        "corr_constants": {str(l): corr[l] for l in corr},
    })
    claims.append(("g_lk", lk, chain_bound, checks["lk_collapse_ok"]))
    return _report("naslund", {"eps": eps, "eta": eps, "k": k, "p": p,
                               "C_p": NASLUND_C_P, "theta": theta,
                               "grid_M": grid.M},
                   f, nu, g, err, checks, flags, claims, lk_sum=lk)


def clamp_to_unit_window(g: DiscreteSignal, N: int) -> DiscreteSignal:
    """Restrict to [1, N] and clip into [0, 1]: the LP's feasible set."""
    vals = np.zeros(N)
    lo = max(g.support_lo, 1)
    hi = min(g.support_hi, N)
    if lo <= hi:
        vals[lo - 1: hi] = g.values[lo - g.support_lo: hi - g.support_lo + 1]
    return DiscreteSignal(1, np.clip(vals, 0.0, 1.0))


def _hb_constraint_row(N: int, alpha: float, psi: float,
                       fhat_alpha: complex) -> tuple[np.ndarray, float]:
    """Row of Re[(fhat - ghat)(alpha) e^(-i psi)] <= t in A_ub x <= b form."""
    n = np.arange(1, N + 1)
    row = np.empty(N + 1)
    row[:N] = -np.cos(2.0 * np.pi * alpha * n - psi)
    row[N] = -1.0
    b = -float((fhat_alpha * np.exp(-1j * psi)).real)
    return row, b


def linprog(highs: _Highs, A_ub: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
    """Add the rows A_ub x <= b_ub to the HiGHS model and re-solve it; returns x.

    Rows added to a solved LP leave its basis dual feasible, so the dual simplex
    restarts from the last basis and only repairs the new rows.  This is the one
    call per LP solve: benchmarks/tracing.py wraps `models.linprog` and counts
    the rows of `A_ub`.
    """
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


def _hb_highs(N: int) -> _Highs:
    """The row-free LP: minimize t over 0 <= g <= 1_[N], t >= 0."""
    lp = HighsLp()
    lp.num_col_ = N + 1
    lp.num_row_ = 0
    lp.col_cost_ = np.r_[np.zeros(N), 1.0]
    lp.col_lower_ = np.zeros(N + 1)
    lp.col_upper_ = np.r_[np.ones(N), kHighsInf]
    lp.a_matrix_.start_ = np.zeros(N + 2, dtype=np.int32)
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(lp)
    return highs


def hahn_banach_model(f: DiscreteSignal, nu: Majorant,
                      grid: FrequencyGrid | None = None,
                      directions: int = HB_DIRECTIONS,
                      tol: float = 1e-6) -> DenseModelReport:
    """Best bounded approximant 0 <= g <= 1_[N] by direct LP minimization.

    Minimizes t subject to D-direction linearizations of |fhat - ghat| <= t at
    grid frequencies, generating rows lazily from g = 0 and t = 0: each round
    adds, at the 24 strongest frequencies with |fhat - ghat| cos(pi/D) > t + tol,
    the direction nearest the phase of fhat - ghat and its two neighbours.  f and
    g are real, so the row at (M - j, -psi) is the row at (j, psi) and only
    0 <= j <= M/2 is scanned.  One HiGHS model gains each new row once and
    re-solves from its last basis.  The LP value t* lower bounds the relaxed
    optimum; the returned g is feasible, so its certified Fourier error bounds
    it above.
    """
    require_majorization(f, nu)
    if grid is None:
        grid = FrequencyGrid(HB_GRID_M)
    if directions < 3:
        raise ValidationError("need at least 3 modulus directions")
    N = nu.N
    M = grid.M
    half = M // 2 + 1
    psis = 2.0 * np.pi * np.arange(directions) / directions
    fhat = grid_fourier(f, grid)[:half]
    cos_gap = math.cos(math.pi / directions)

    highs = _hb_highs(N)
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
            d = int(round(phase / (2 * math.pi / directions))) % directions
            for dd in (d, (d + 1) % directions, (d - 1) % directions):
                if j == 0 or 2 * j == M:
                    dd = min(dd, -dd % directions)
                if (j, dd) not in rows:
                    rows.add((j, dd))
                    new.append(_hb_constraint_row(N, j / M, float(psis[dd]), fhat[j]))
        if not new:
            break  # every row at the violated j is in: a re-solve returns the same g
        A, b = zip(*new)
        x = linprog(highs, A_ub=np.array(A), b_ub=np.array(b))
        solves += 1
        g_vals = x[:N]
        t_star = float(x[N])
        ghat = grid_fourier(DiscreteSignal(1, g_vals), grid)[:half]
    converged = not violated
    g = DiscreteSignal(1, g_vals)
    err = fourier_sup_diff(f, g, grid)
    flags = [] if converged else ["row_generation_cap_reached"]
    checks = {
        "t_star": t_star,
        "t_upper": err.certified_upper,
        "direction_secant": 1.0 / cos_gap,
        "rounds_constraints": len(rows),
        "converged": converged,
    }
    return _report("hahn_banach",
                   {"grid_M": M, "directions": directions, "tol": tol},
                   f, nu, g, err, checks, flags,
                   [("lp_optimum", t_star, checks["t_upper"], converged)])
