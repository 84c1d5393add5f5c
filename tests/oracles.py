"""Independent counting routes that the tests compare `count_weighted` against.

A brute-force nested sum, a direct spectral average on its own modulus and an
exact integer route by linear convolutions.  None of them is on a report path.
"""

from __future__ import annotations

import math

import numpy as np

from densemodel.counting import CountReport, LinearForm, _diagonal
from densemodel.errors import ResourceError, ValidationError

BRUTE_SIZE_CAP = 10 ** 8
SPECTRAL_SIZE_CAP = 10 ** 7


def reach(form: LinearForm, weights) -> int:
    """R = (Sum |c_i| / 2)(hi - lo) on the windows' union: as Sum c_i = 0,
    |Sum c_i x_i| = |Sum c_i (x_i - lo)| <= R."""
    lo = min(w.support_lo for w in weights)
    hi = max(w.support_hi for w in weights)
    return sum(abs(c) for c in form.coeffs) // 2 * (hi - lo)


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

    W = R + 1, the least modulus with no wrap-around (`reach`), not the
    5-smooth modulus of `count_weighted`.  Each spectrum is evaluated by a
    direct phase matrix, independently of the FFT route.
    """
    weights = list(weights)
    if len(weights) != form.s:
        raise ValidationError("need one weight per coefficient")
    W = reach(form, weights) + 1
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
