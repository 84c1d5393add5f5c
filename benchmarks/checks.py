"""Correctness checks of pipeline reports, built apart from the library.

The checker rebuilds f from the config's documented recipe, evaluates Fourier
transforms by direct summation, and counts solutions exactly in int64; it
calls nothing in `densemodel`.  It needs g, which a report does not hold, so
run.py hands over the f and g the model function was called with and
returned.  `check_report` returns the failed checks, as messages; an empty
list means the report passed.
"""

from __future__ import annotations

import math

import numpy as np

SMOOTHING = ("green", "hdr", "naslund")
REL_TOL = 1e-9
PROBES_NEAR_ARGMAX = 16
PROBES_UNIFORM = 32
GRID_CHUNK = 256


def rebuild_subset(cfg) -> tuple[float, np.ndarray]:
    """(c, A) with f = c 1_A, from the recipe `make_random_sparse` documents.

    S = {n in [1, N] : u_n < N^(exponent - 1)} with u drawn by
    default_rng(seed) (seed + 1, ... while S is empty), nu = (N/|S|) 1_S, and
    structured selection keeps every ceil(1/delta)-th element of S.
    """
    if cfg.majorant != "sparse" or cfg.selection != "structured":
        raise ValueError("the checker rebuilds sparse, structured subsets only")
    seed = cfg.seed
    while True:
        mask = np.random.default_rng(seed).random(cfg.N) < float(cfg.N) ** (cfg.exponent - 1.0)
        if mask.any():
            break
        seed += 1
    S = np.flatnonzero(mask) + 1
    return cfg.N / len(S), S[::math.ceil(1.0 / cfg.delta)]


def count_solutions(coeffs, A: np.ndarray) -> int:
    """#{x in A^s : sum c_i x_i = 0}, by sparse int64 convolution of c_i A."""
    A = np.asarray(A, dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    for c in coeffs[:-1]:
        raw = (sums[:, None] + c * A[None, :]).ravel()
        sums, inv = np.unique(raw, return_inverse=True)
        acc = np.zeros(len(sums), dtype=np.int64)
        np.add.at(acc, inv.ravel(), np.repeat(mult, len(A)))
        mult = acc
    targets = -coeffs[-1] * A
    pos = np.minimum(np.searchsorted(sums, targets), len(sums) - 1)
    hit = sums[pos] == targets
    return int(mult[pos[hit]].sum())


def _window(sig) -> tuple[np.ndarray, np.ndarray]:
    lo = int(sig.support_lo)
    return np.arange(lo, lo + len(sig.values), dtype=np.int64), np.asarray(sig.values)


def difference(f, g) -> tuple[np.ndarray, np.ndarray]:
    """(n, f(n) - g(n)) on the union of both windows."""
    fn, fv = _window(f)
    gn, gv = _window(g)
    lo, hi = min(fn[0], gn[0]), max(fn[-1], gn[-1])
    d = np.zeros(hi - lo + 1)
    d[fn - lo] += fv
    d[gn - lo] -= gv
    return np.arange(lo, hi + 1, dtype=np.int64), d


def direct_at(n: np.ndarray, d: np.ndarray, alpha: float) -> complex:
    """sum_n d(n) e(alpha n), by direct summation."""
    return complex(np.dot(d, np.exp(2j * np.pi * np.mod(alpha * n, 1.0))))


def direct_at_grid(n: np.ndarray, d: np.ndarray, j: np.ndarray, M: int) -> np.ndarray:
    """sum_n d(n) e(j n / M) for each j, with the phase reduced exactly mod M."""
    out = np.empty(len(j), dtype=np.complex128)
    for start in range(0, len(j), GRID_CHUNK):
        jj = np.asarray(j[start:start + GRID_CHUNK], dtype=np.int64)
        phase = np.mod(jj[:, None] * np.mod(n, M)[None, :], M) / M
        out[start:start + GRID_CHUNK] = np.exp(2j * np.pi * phase) @ d
    return out


def grid_argmax(n: np.ndarray, d: np.ndarray, M: int) -> int:
    """The j in [0, M) maximising |dhat(j/M)|; located by a real FFT of d folded mod M."""
    folded = np.bincount(np.mod(n, M), weights=d, minlength=M)
    return int(np.argmax(np.abs(np.fft.rfft(folded))))


def check_fourier_bracket(f, g, M: int, err: dict, rng) -> list[str]:
    """grid_max is attained at the grid argmax and nothing probed exceeds certified_upper."""
    n, d = difference(f, g)
    tol = REL_TOL * max(1.0, float(np.sum(np.abs(d))))
    upper, grid_max = err["certified_upper"], err["grid_max"]
    fails = []
    if not grid_max <= upper:
        fails.append(f"fourier: grid_max {grid_max} > certified_upper {upper}")
    j_star = grid_argmax(n, d, M)
    at_star = abs(direct_at_grid(n, d, np.array([j_star]), M)[0])
    if abs(at_star - grid_max) > tol:
        fails.append(f"fourier: |dhat| at grid argmax {j_star}/{M} is {at_star}, "
                     f"report grid_max is {grid_max}")
    alphas = np.concatenate([
        (j_star + rng.uniform(-0.5, 0.5, PROBES_NEAR_ARGMAX)) / M,
        rng.uniform(0.0, 1.0, PROBES_UNIFORM)])
    worst = max(at_star, max(abs(direct_at(n, d, a)) for a in alphas))
    if worst > upper + tol:
        fails.append(f"fourier: direct |dhat| {worst} exceeds certified_upper {upper}")
    return fails


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_input(cfg, report: dict, f) -> tuple[list[str], float, np.ndarray]:
    """The f the model received is c 1_A as rebuilt from the config."""
    c, A = rebuild_subset(cfg)
    fails = []
    fn, fv = _window(f)
    nz = fv != 0
    if not (np.array_equal(fn[nz], A) and np.all(fv[nz] == c)):
        fails.append("input: f is not c 1_A for the config's majorant and selection")
    if report["subset"]["size"] != len(A) or not _close(report["subset"]["mass_f"], c * len(A)):
        fails.append(f"input: subset size/mass {report['subset']['size']}/"
                     f"{report['subset']['mass_f']} != {len(A)}/{c * len(A)}")
    return fails, c, A


def check_counts(cfg, report: dict, c: float, A: np.ndarray) -> list[str]:
    """counts.f = c^s times the exact integer count of 1_A; same for the diagonal."""
    s = len(cfg.form)
    exact = c ** s * count_solutions(tuple(cfg.form), A)
    got = report["counts"]["f"]
    fails = []
    if not _close(got["total"], exact):
        fails.append(f"counts: f.total {got['total']} != c^s * count(1_A) = {exact}")
    if not _close(got["diagonal"], c ** s * len(A)):
        fails.append(f"counts: f.diagonal {got['diagonal']} != c^s |A| = {c ** s * len(A)}")
    return fails


def check_smoothing(report: dict, g) -> list[str]:
    """sigma is a probability measure: g keeps f's mass and f's sign."""
    model = report["model"]
    fails = []
    if not _close(model["mass_g"], model["mass_f"]):
        fails.append(f"smoothing: mass_g {model['mass_g']} != mass_f {model['mass_f']}")
    if not _close(float(np.sum(g.values)), model["mass_g"]):
        fails.append(f"smoothing: sum of g {float(np.sum(g.values))} != reported mass_g")
    if float(np.min(g.values)) < -1e-9:
        fails.append(f"smoothing: g has value {float(np.min(g.values))} < -1e-9")
    return fails


def check_hahn_banach(cfg, report: dict, f, g, A: np.ndarray) -> list[str]:
    """0 <= g <= 1 on [1, N], converged, and t* below the grid error of bounded h."""
    model = report["model"]
    checks = model["checks"]
    fails = []
    gn, gv = _window(g)
    if gn[0] < 1 or gn[-1] > cfg.N or gv.min() < -1e-9 or gv.max() > 1 + 1e-9:
        fails.append(f"hahn_banach: g leaves [0, 1] on [1, {cfg.N}]")
    if checks["converged"] is not True:
        fails.append("hahn_banach: row generation did not converge")
    M = model["params"]["grid_M"]
    j = np.arange(M)
    fn, fv = _window(f)
    window = np.arange(1, cfg.N + 1, dtype=np.int64)
    fhat = direct_at_grid(fn, fv, j, M)
    bounded = {"g": (gn, gv),
               "delta 1_[N]": (window, np.full(cfg.N, cfg.delta)),
               "1_A": (np.asarray(A, dtype=np.int64), np.ones(len(A)))}
    t_star = checks["t_star"]
    for name, (hn, hv) in bounded.items():
        worst = float(np.max(np.abs(fhat - direct_at_grid(hn, hv, j, M))))
        if t_star > worst + 1e-6 * max(1.0, worst):
            fails.append(f"hahn_banach: t_star {t_star} > max grid |fhat - hhat| "
                         f"{worst} for h = {name}")
    return fails


def check_threshold(cfg, report: dict, g) -> list[str]:
    size = int(np.count_nonzero(np.asarray(g.values) >= cfg.delta / 2.0))
    if report["threshold"]["size"] != size:
        return [f"threshold: size {report['threshold']['size']} != #{{g >= delta/2}} = {size}"]
    return []


def check_report(cfg, report: dict, f, g, rng) -> list[str]:
    """Every check that applies to this report's variant."""
    fails = [] if report["ok"] is True else ["report: ok is not true"]
    input_fails, c, A = check_input(cfg, report, f)
    fails += input_fails
    fails += check_counts(cfg, report, c, A)
    fails += check_threshold(cfg, report, g)
    model = report["model"]
    fails += check_fourier_bracket(f, g, model["params"]["grid_M"],
                                   model["fourier_err"], rng)
    if cfg.variant in SMOOTHING:
        fails += check_smoothing(report, g)
    else:
        fails += check_hahn_banach(cfg, report, f, g, A)
    return fails
