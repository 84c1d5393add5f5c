"""Weighted counting of solutions to c_1 x_1 + ... + c_s x_s = 0, Sum c_i = 0.

The production route transforms each distinct weight once, to its half
spectrum on Z/W past the form's reach, and reads each dilation as an index
map on it.  A brute-force nested sum and a direct spectral average provide
independent oracles.  The transfer-error chain and the threshold-extraction
certificates used by the sparse pipeline live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceError, ValidationError
from .signals import (
    CertifiedSup,
    Claim,
    DiscreteSignal,
    FrequencyGrid,
    default_grid,
    fourier_sup_diff,
    grid_fourier,
    lp_norm,
    next_fast_len,
)

BRUTE_SIZE_CAP = 10 ** 8
SPECTRAL_SIZE_CAP = 10 ** 7
WRAP_MODULUS_CAP = 1 << 26


@dataclass(frozen=True)
class LinearForm:
    """Integer coefficients with zero sum (translation invariance), s >= 3."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 3:
            raise ValidationError("linear form needs s >= 3 coefficients")
        if any(c == 0 for c in coeffs):
            raise ValidationError("linear form coefficients must be nonzero")
        if sum(coeffs) != 0:
            raise ValidationError("linear form coefficients must sum to zero")

    @property
    def s(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class CountReport:
    total: float
    diagonal: float
    method: str
    wrap_modulus: int

    def as_dict(self) -> dict:
        return {"total": self.total, "diagonal": self.diagonal,
                "method": self.method, "wrap_modulus": self.wrap_modulus}


def _diagonal(weights) -> float:
    """Weighted count of constant tuples, valid as trivial solutions (sum c_i = 0)."""
    lo = max(w.support_lo for w in weights)
    hi = min(w.support_hi for w in weights)
    if hi < lo:
        return 0.0
    prod = np.ones(hi - lo + 1)
    for w in weights:
        prod *= w.values[lo - w.support_lo: hi - w.support_lo + 1]
    return float(np.sum(prod))


def _wrap_modulus(form: LinearForm, weights) -> int:
    """The first 5-smooth W >= reach + 2.  As Sum c_i = 0, |Sum c_i x_i| =
    |Sum c_i (x_i - lo)| <= reach = (Sum |c_i| / 2)(hi - lo) on the windows' union."""
    lo = min(w.support_lo for w in weights)
    hi = max(w.support_hi for w in weights)
    W = next_fast_len(sum(abs(c) for c in form.coeffs) // 2 * (hi - lo) + 2)
    if W > WRAP_MODULUS_CAP:
        raise ResourceError(f"wrap modulus {W} exceeds cap {WRAP_MODULUS_CAP}")
    return W


def _dilated(half: np.ndarray, c: int, W: int) -> np.ndarray:
    """F(c k mod W) for k <= W/2, from F's half spectrum and F(W - m) = conj F(m)."""
    if abs(c) > 1:
        full = np.concatenate((half, np.conj(half[W - len(half):0:-1])))
        half = np.resize(full, abs(c) * (W // 2) + 1)[::abs(c)]
    return np.conj(half) if c < 0 else half


def count_weighted(form: LinearForm, weights) -> CountReport:
    """Weighted solution count, (1/W) Sum_k prod_i F_i(c_i k mod W) over Z/W.

    F_i = `grid_fourier` of w_i on Z/W, so the weight dilated by c has
    transform F_i(c k).  The weights are real, so the product P has
    P(-k) = conj P(k): the sum is P(0) + 2 Re Sum_{0<k<W/2} P(k) (+ P(W/2)
    for even W).  Each distinct weight is transformed once.
    """
    weights = list(weights)
    if len(weights) != form.s:
        raise ValidationError("need one weight per coefficient")
    W = _wrap_modulus(form, weights)
    halves, prod = {}, 1.0
    # weights too large overflow to inf or nan, which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for c, w in zip(form.coeffs, weights):
            if id(w) not in halves:
                halves[id(w)] = grid_fourier(w, FrequencyGrid(W))
            prod = prod * _dilated(halves[id(w)], c, W)
        re = prod.real
        total = re[0] + 2.0 * np.sum(re[1:(W + 1) // 2]) + (re[W // 2] if W % 2 == 0 else 0.0)
        report = CountReport(total=float(total / W), diagonal=_diagonal(weights),
                             method="half-spectrum", wrap_modulus=W)
    if not math.isfinite(report.total) or not math.isfinite(report.diagonal):
        raise ValidationError(f"weighted count is not finite (total {report.total}, "
                              f"diagonal {report.diagonal}): the weights are too large")
    return report


def count_brute(form: LinearForm, weights) -> CountReport:
    """Direct nested summation; the test oracle for count_weighted."""
    weights = list(weights)
    if len(weights) != form.s:
        raise ValidationError("need one weight per coefficient")
    sizes = [len(w.values) for w in weights]
    prod_size = math.prod(sizes[:-1])
    if prod_size > BRUTE_SIZE_CAP:
        raise ResourceError(f"brute-force size {prod_size} exceeds cap")
    c = form.coeffs
    s = form.s
    last = weights[-1]
    # iterate over x_1..x_{s-2}, vectorize x_{s-1}, solve for x_s
    penult = weights[-2]
    pen_idx = penult.indices
    pen_vals = penult.values
    total = 0.0

    def rec(i: int, partial: int, weight_prod: float):
        nonlocal total
        if weight_prod == 0.0:
            return
        if i == s - 2:
            rem = -(partial + c[s - 2] * pen_idx)
            q, r = np.divmod(rem, c[s - 1])
            ok = (r == 0) & (q >= last.support_lo) & (q <= last.support_hi)
            if ok.any():
                lv = last.values[q[ok] - last.support_lo]
                total += weight_prod * float(np.dot(pen_vals[ok], lv))
            return
        w = weights[i]
        for n, v in zip(w.indices, w.values):
            rec(i + 1, partial + c[i] * int(n), weight_prod * float(v))

    rec(0, 0, 1.0)
    return CountReport(total=total, diagonal=_diagonal(weights),
                       method="brute", wrap_modulus=0)


def count_integer(form: LinearForm, weights) -> int:
    """Exact integer count for integer-valued weights (linear convolutions)."""
    weights = list(weights)
    if len(weights) != form.s:
        raise ValidationError("need one weight per coefficient")
    for w in weights:
        if len(w.values) > 10 ** 4:
            raise ResourceError("integer verification capped at support 10^4")
        if not np.all(w.values == np.round(w.values)):
            raise ValidationError("count_integer needs integer-valued weights")
    # every entry of a partial convolution is at most prod ||w_i||_1 in modulus
    norms = [sum(abs(int(v)) for v in w.values.tolist()) for w in weights]
    if math.prod(norms) >= 1 << 63:
        raise ResourceError("integer count may overflow int64: prod ||w_i||_1 >= 2^63")
    if 0 in norms:
        return 0
    acc, acc_lo = np.ones(1, dtype=np.int64), 0
    for cf, w in zip(form.coeffs, weights):
        lo = min(cf * w.support_lo, cf * w.support_hi)
        buf = np.zeros(abs(cf) * (len(w.values) - 1) + 1, dtype=np.int64)
        buf[w.indices * cf - lo] = w.values.astype(np.int64)
        acc = np.convolve(acc, buf)
        acc_lo += lo
    return int(acc[-acc_lo]) if acc_lo <= 0 < acc_lo + len(acc) else 0


def count_spectral(form: LinearForm, weights) -> CountReport:
    """Orthogonality route: average of prod_i what_i(c_i j / W) over j.

    Evaluates each spectrum by a direct phase matrix, independently of the FFT
    route of `count_weighted`.
    """
    weights = list(weights)
    if len(weights) != form.s:
        raise ValidationError("need one weight per coefficient")
    W = _wrap_modulus(form, weights)
    size = W * max(len(w.values) for w in weights)
    if size > SPECTRAL_SIZE_CAP:
        raise ResourceError(f"spectral phase matrix size {size} exceeds cap")
    j = np.arange(W)
    prod = np.ones(W, dtype=np.complex128)
    for cf, w in zip(form.coeffs, weights):
        phases = np.exp(2j * np.pi * np.outer(j, w.indices * cf) / W)
        prod *= phases @ w.values.astype(np.complex128)
    total = float(np.mean(prod).real)
    return CountReport(total=total, diagonal=_diagonal(weights),
                       method="spectral", wrap_modulus=W)


class _Verdict:
    """A report whose verdict is its `claim`'s."""

    @property
    def ok(self) -> bool:
        return self.claim.ok


@dataclass(frozen=True)
class TransferErrorReport(_Verdict):
    """Certified telescoping budget for |count(f) - count(g)|."""

    delta: float
    sup_err: float
    count_f: float
    count_g: float

    @property
    def claim(self) -> Claim:
        return Claim.at_most("transfer", "certified-bound",
                             abs(self.count_f - self.count_g), self.delta,
                             rel=1e-9, abs=1e-9)

    def as_dict(self) -> dict:
        return {"delta": self.delta, "sup_err": self.sup_err,
                "count_f": self.count_f, "count_g": self.count_g,
                "ok": self.ok}


def transfer_error_bound(form: LinearForm, f: DiscreteSignal, g: DiscreteSignal,
                         count_f: float | None = None,
                         count_g: float | None = None,
                         sup: CertifiedSup | None = None) -> TransferErrorReport:
    """Delta = sup_err * s * max(||.||_2)^2 * max(||.||_1)^(s-3).

    Telescoping over positions: one factor takes the certified sup error, two
    take Cauchy-Schwarz in L^2 (dilation by a nonzero integer preserves the
    circle L^2 norm), the rest are bounded in sup by the L^1 norm.  sup_err
    is the `certified_upper` of a certificate for sup |fhat - ghat| over the
    circle read on the check grid, `default_grid` of the window holding f and
    g: the caller's `sup`, such as a model's Fourier error, when it was read
    on that grid, else `fourier_sup_diff` on it.  The counts on both sides are
    computed, unless the caller passes the totals of
    `count_weighted(form, [f] * s)` and `[g] * s` it already holds, and the
    inequality is checked on the instance.
    """
    grid = default_grid(max(f.support_hi, g.support_hi)
                        - min(f.support_lo, g.support_lo) + 1)
    if sup is None or sup.grid_M != grid.M:
        sup = fourier_sup_diff(f, g, grid)
    m2 = max(lp_norm(f, 2), lp_norm(g, 2))
    m1 = max(lp_norm(f, 1), lp_norm(g, 1))
    s = form.s
    delta = sup.certified_upper * s * m2 ** 2 * m1 ** (s - 3)
    cf = count_weighted(form, [f] * s).total if count_f is None else count_f
    cg = count_weighted(form, [g] * s).total if count_g is None else count_g
    return TransferErrorReport(delta, sup.certified_upper, count_f=cf, count_g=cg)


@dataclass(frozen=True)
class ThresholdReport(_Verdict):
    """B = {x : g(x) >= delta/2} with the Hoelder size certificate."""

    elements: np.ndarray = field(repr=False)
    delta: float
    k: int
    C_k: float
    certified_floor: float
    N: int
    flags: tuple = ()

    def __post_init__(self):
        arr = np.asarray(self.elements).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "elements", arr)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def claim(self) -> Claim:
        return Claim.at_least("threshold_floor", "exact", self.size,
                              self.certified_floor, rel=1e-12)

    def indicator(self) -> DiscreteSignal:
        """1_B on [min B, max B]; the zero signal when B is empty."""
        if self.size == 0:
            return DiscreteSignal.zero()
        return DiscreteSignal.on_points(self.elements, 1.0)

    def as_dict(self) -> dict:
        return {"size": self.size, "delta": self.delta, "k": self.k,
                "C_k": self.C_k, "certified_floor": self.certified_floor,
                "N": self.N, "flags": list(self.flags), "ok": self.ok}


def threshold_extract(g: DiscreteSignal, delta: float, N: int,
                      variant_k: int = 2) -> ThresholdReport:
    """Level set B = {g >= delta/2} with floor ((delta/2)^k / C_k)^(1/(k-1)) N.

    C_k = sum g^k / N.  At k = 2 the floor is the familiar delta^2 N / (4 C).
    """
    if variant_k < 2:
        raise ValidationError("threshold_extract needs k >= 2")
    # FFT convolutions leave harmless -1e-18 noise; only substantive
    # negativity is a domain error
    neg_tol = 1e-9 * max(1.0, float(np.max(np.abs(g.values))))
    if np.any(g.values < -neg_tol):
        raise ValidationError("threshold_extract needs g >= 0")
    if np.any(g.values < 0):
        g = DiscreteSignal(g.support_lo, np.maximum(g.values, 0.0))
    flags = []
    mass = float(np.sum(g.values))
    dense_enough = mass >= delta * N
    if not dense_enough:
        # the floor needs sum over B of g >= (delta/2) N, which needs mass >= delta N
        flags.append("density_precondition_failed")
    mask = g.values >= delta / 2.0
    elements = g.indices[mask]
    C_k = float(np.sum(g.values.astype(np.float64) ** variant_k)) / N
    if C_k > 0 and delta > 0 and dense_enough:
        floor_val = ((delta / 2.0) ** variant_k / C_k) ** (1.0 / (variant_k - 1)) * N
    else:
        floor_val = 0.0
    return ThresholdReport(elements=elements, delta=delta, k=variant_k,
                           C_k=C_k, certified_floor=floor_val, N=N,
                           flags=tuple(flags))


@dataclass(frozen=True)
class ComparisonReport(_Verdict):
    count_g: float
    count_indicator: float
    factor: float

    @property
    def claim(self) -> Claim:
        return Claim.at_least("count_comparison", "certified-bound", self.count_g,
                              self.factor * self.count_indicator, rel=1e-9, abs=1e-9)

    def as_dict(self) -> dict:
        return {"count_g": self.count_g, "count_indicator": self.count_indicator,
                "factor": self.factor, "ok": self.ok}


def count_comparison(form: LinearForm, g: DiscreteSignal,
                     threshold: ThresholdReport,
                     count_g: float | None = None) -> ComparisonReport:
    """Certifies count(g) >= (delta/2)^s count(1_B): g >= (delta/2) 1_B pointwise.

    count_g, when given, is the caller's total of `count_weighted(form, [g] * s)`.
    """
    s = form.s
    cg = count_weighted(form, [g] * s).total if count_g is None else count_g
    ind = threshold.indicator()
    cb = count_weighted(form, [ind] * s).total
    factor = (threshold.delta / 2.0) ** s
    return ComparisonReport(count_g=cg, count_indicator=cb, factor=factor)
