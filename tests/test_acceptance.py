"""Acceptance gate: twelve numbered criteria, each one test, each one line.

Every test records its verdict for the terminal summary (see conftest.py) and
then asserts it, so `pytest -v` shows one pass/fail line per criterion.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from densemodel.bohr import bohr_enumerate
from densemodel.counting import (
    LinearForm,
    count_comparison,
    count_weighted,
    threshold_extract,
    transfer_error_bound,
)
from densemodel.convex import PointHull, minimax_solve, project_onto_hull
from densemodel.majorants import make_random_sparse, make_uniform
from densemodel.models import (
    clamp_to_unit_window,
    green_model,
    hahn_banach_model,
    hdr_model,
    naslund_model,
)
from densemodel.pipeline import PipelineConfig, run_pipeline, select_subset
from densemodel.polyapprox import (
    build_abs_approx,
    build_positive_part,
    taylor_coeff,
    taylor_coeff_exact,
)
from densemodel.signals import DiscreteSignal, FrequencyGrid, grid_fourier

from conftest import record_acceptance
from oracles import count_brute, count_spectral

N_SPARSE = 2000
DELTA = 0.5
EPS_LIST = (0.05, 0.1, 0.2)
EXPONENTS = (2 / 3, 3 / 4)


def check(number: int, label: str, passed: bool, detail: str = "") -> None:
    record_acceptance(number, label, passed, detail)
    assert passed, f"criterion {number}: {label} {detail}"


# ---------------------------------------------------------------------------
# shared instance pools


def counting_instances():
    """200 seeded forms with nonnegative rational weights, s in {3,4}, N <= 50."""
    out = []
    rng = np.random.default_rng(20260826)
    while len(out) < 200:
        s = int(rng.integers(3, 5))
        c = rng.integers(-5, 6, size=s)
        c[c == 0] = 1
        c[-1] = -int(np.sum(c[:-1]))
        if c[-1] == 0 or abs(c[-1]) > 5:
            continue
        N = int(rng.integers(2, 51))
        weights = [DiscreteSignal(1, rng.integers(0, 8, size=N) / 4.0)
                   for _ in range(s)]
        out.append((LinearForm(tuple(int(x) for x in c)), weights))
    return out


@pytest.fixture(scope="module")
def counting_pool():
    return counting_instances()


def sparse_instances():
    """The 20 instances shared by criteria 3, 4, 6, 8, 11."""
    combos = [(e, eps, seed) for e in EXPONENTS for eps in EPS_LIST
              for seed in (0, 1, 2)]
    combos += [(EXPONENTS[0], 0.1, 3), (EXPONENTS[1], 0.1, 3)]
    pool = []
    cache = {}
    for exponent, eps, seed in combos:
        key = (exponent, seed)
        if key not in cache:
            nu = make_random_sparse(N_SPARSE, exponent, seed)
            f, _ = select_subset(nu, DELTA, "structured", seed)
            cache[key] = (nu, f)
        nu, f = cache[key]
        pool.append({"exponent": exponent, "eps": eps, "seed": seed,
                     "nu": nu, "f": f})
    return pool


@pytest.fixture(scope="module")
def sparse_pool():
    return sparse_instances()


@pytest.fixture(scope="module")
def green_reports(sparse_pool):
    start = time.time()
    reports = [green_model(inst["f"], inst["nu"], inst["eps"], inst["eps"])
               for inst in sparse_pool]
    return reports, time.time() - start


@pytest.fixture(scope="module")
def hdr_reports(sparse_pool):
    return [hdr_model(inst["f"], inst["nu"], inst["eps"])
            for inst in sparse_pool]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_counting_oracle_equivalence(counting_pool) -> None:
    start = time.time()
    worst = 0.0
    for form, weights in counting_pool:
        conv = count_weighted(form, weights).total
        brute = count_brute(form, weights).total
        worst = max(worst, abs(conv - brute))
    elapsed = time.time() - start
    check(1, "convolution count equals brute force on 200 instances",
          worst <= 1e-6 and elapsed < 60.0,
          f"max abs gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_orthogonality_identity(counting_pool) -> None:
    worst = 0.0
    for form, weights in counting_pool:
        conv = count_weighted(form, weights).total
        spec = count_spectral(form, weights).total
        worst = max(worst, abs(conv - spec) / max(1.0, abs(conv)))
    check(2, "spectral route equals convolution route on 200 instances",
          worst <= 1e-6, f"max rel gap {worst:.2e}")


def test_criterion_03_green_bounds(sparse_pool, green_reports) -> None:
    reports, build_time = green_reports
    start = time.time()
    ok = True
    details = []
    for inst, rep in zip(sparse_pool, reports):
        eps = inst["eps"]
        budget = 8 * (eps + eps) * N_SPARSE
        good = (rep.checks["off_spectrum_ok"]
                and rep.checks["representative_ok"]
                and rep.fourier_err.certified_upper <= budget)
        ok = ok and good
        if not good:
            details.append(f"seed={inst['seed']} eps={eps}")
    elapsed = build_time + time.time() - start
    check(3, "off-spectrum, representative, and 8(eps+eta)N bounds on 20 instances",
          ok and elapsed < 300.0,
          f"{elapsed:.1f}s" + ("; failures: " + ",".join(details) if details else ""))


def test_criterion_04_hdr_l2_chain(sparse_pool, hdr_reports) -> None:
    ok = all(rep.checks["l2_ok"] for rep in hdr_reports)
    worst = max(rep.checks["l2_sum"] / rep.checks["l2_bound"]
                for rep in hdr_reports)
    check(4, "L2 chain sum g^2 <= theta_L2 N^2/|B| + corr2 N (1 - 1/|B|) instance-wise",
          ok, f"worst ratio {worst:.3f}")


def test_criterion_05_lk_chain() -> None:
    ok = True
    certified = 0
    count = 0
    for exponent in EXPONENTS:
        for seed in range(5):
            nu = make_random_sparse(N_SPARSE, exponent, seed)
            f, _ = select_subset(nu, DELTA, "structured", seed)
            rep = naslund_model(f, nu, k=3, p=4.0)
            count += 1
            ok = ok and rep.checks["lk_collapse_ok"] and rep.checks["lk_majorant_ok"]
            if rep.checks["bohr_condition_ok"]:
                certified += 1
                ok = ok and (rep.checks["lk_sum"]
                             <= rep.checks["lk_collapse_bound"] * (1 + 1e-9))
    check(5, "L3 multiplicity-collapse chain holds on 10 instances",
          ok and count == 10,
          f"{count} instances, {certified} with Bohr size condition")


@pytest.fixture(scope="module")
def hb_reports(sparse_pool):
    out = {}
    for inst in sparse_pool:
        key = (inst["exponent"], inst["seed"])
        if key not in out:
            out[key] = hahn_banach_model(inst["f"], inst["nu"])
    return out


def test_criterion_06_lp_dominance(sparse_pool, green_reports, hdr_reports,
                                   hb_reports) -> None:
    grid = FrequencyGrid(1024)
    ok = True
    for inst, g_rep, h_rep in zip(sparse_pool, green_reports[0], hdr_reports):
        hb = hb_reports[(inst["exponent"], inst["seed"])]
        t_star = hb.checks["t_star"]
        fhat = grid_fourier(inst["f"], grid)
        for cand in (g_rep.g, h_rep.g):
            clamped = clamp_to_unit_window(cand, N_SPARSE)
            err = float(np.max(np.abs(fhat - grid_fourier(clamped, grid))))
            ok = ok and t_star <= err + 1e-6
    nu = make_uniform(N_SPARSE)
    hb_flat = hahn_banach_model(nu.signal, nu)
    flat_ok = hb_flat.checks["t_star"] < 0.03 * N_SPARSE
    check(6, "LP optimum below clamped green/hdr errors; flat optimum < 0.03N",
          ok and flat_ok,
          f"flat t*={hb_flat.checks['t_star']:.2e}")


def test_criterion_07_bohr_certificates() -> None:
    rng = np.random.default_rng(7)
    ok = True
    for r in range(5):
        for eps in EPS_LIST:
            for N in (100, 1500, 10 ** 4):
                freqs = rng.random(r)
                B = bohr_enumerate(freqs, eps, N)
                elems = np.asarray(B.elements)
                window = np.arange(-int(eps * N), int(eps * N) + 1)
                dist = np.ones(len(window))
                member = np.abs(window) <= eps * N
                for a in freqs:
                    x = a * window
                    member &= np.abs(x - np.round(x)) <= eps
                ok = ok and np.array_equal(elems, window[member])
                ok = ok and np.array_equal(np.sort(-elems), elems)
                floor = 0.5 * eps * N * math.ceil(2 / eps) ** (-r)
                ok = ok and len(elems) >= floor
                if r >= 1:
                    sub = bohr_enumerate(freqs[:-1], eps, N)
                    ok = ok and set(elems).issubset(set(sub.elements))
    check(7, "Bohr membership, symmetry, nesting, pigeonhole floor exact", ok)


def test_criterion_08_threshold_extraction(sparse_pool, hdr_reports) -> None:
    form = LinearForm((1, 1, -2))
    ok = True
    for inst, rep in zip(sparse_pool, hdr_reports):
        thresh = threshold_extract(rep.g, DELTA, N_SPARSE)
        C2 = thresh.C_k
        floor = DELTA ** 2 * N_SPARSE / (4 * C2)
        ok = ok and thresh.size >= floor * (1 - 1e-12)
        ok = ok and "density_precondition_failed" not in thresh.flags
        comp = count_comparison(form, rep.g, thresh)
        ok = ok and comp.ok
    check(8, "level-set floor delta^2 N/(4 C2) and count(g) >= (delta/2)^3 count(1_B)",
          ok)


def test_criterion_09_minimax_projection() -> None:
    simplex2 = PointHull(np.eye(2))
    res = minimax_solve(simplex2, simplex2)
    ok = abs(res.value - 0.5) <= 1e-6

    proj = project_onto_hull(np.array([1.0, 1.0]), simplex2)
    ok = ok and np.allclose(proj.point, [0.5, 0.5], atol=1e-6)
    ok = ok and proj.witness is not None
    if proj.witness is not None:
        w = proj.witness
        ok = ok and float(w.normal @ np.array([1.0, 1.0])) > w.anchor_value
        for g in simplex2.generators:
            ok = ok and float(w.normal @ g) <= w.anchor_value + proj.gap + 1e-9

    rng = np.random.default_rng(99)
    h = 1e-3
    a1 = np.arange(0.0, 1.0 + h / 2, h)
    grid_pts = []
    for x in a1:
        ys = np.arange(0.0, 1.0 - x + h / 2, h)
        grid_pts.append(np.column_stack([np.full_like(ys, x), ys, 1 - x - ys]))
    simplex_grid = np.vstack(grid_pts)
    worst = 0.0
    for _ in range(50):
        G = rng.standard_normal((3, 3))
        res = minimax_solve(PointHull(np.eye(3)), PointHull(G.T))
        brute = float(np.max(np.min(simplex_grid @ G, axis=1)))
        # the grid undershoots by at most the payoff Lipschitz constant times h
        slack = 2 * float(np.max(np.abs(G))) * h + 1e-6
        gap = max(brute - res.value - 1e-6, res.value - brute - slack)
        worst = max(worst, gap)
        ok = ok and gap <= 0
    check(9, "minimax value, hull projection, and 50 games vs grid brute force",
          ok, f"worst saddle gap {worst:.2e}")


def test_criterion_10_polynomial_approximation() -> None:
    start = time.time()
    approx = build_positive_part(0.1)
    cert_ok = approx.measured_sup_error <= 0.1

    rational_ok = (taylor_coeff_exact(0) == Fraction(-1)
                   and taylor_coeff_exact(1) == Fraction(1, 2)
                   and taylor_coeff(0) == -1.0 and taylor_coeff(1) == 0.5)

    # The sup error of the order-n |x| approximant sits at x = 0 and equals
    # the series tail sum_{k>n} |c_k| = C(2n, n) / 4^n ~ (pi n)^(-1/2).  The
    # certified error must bracket that tail (never below the true sup, at
    # most the between-sample slack above it) and decay at its rate.
    orders = np.array([8, 16, 32, 60])  # 60 is the order cap
    approxes = [build_abs_approx(int(n)) for n in orders]
    errs = np.array([a.measured_sup_error for a in approxes])
    tails = np.array([math.comb(2 * int(n), int(n)) / 4 ** int(n)
                      for n in orders])
    bracket_ok = all(tail <= a.measured_sup_error
                     <= tail + a.derivative_slack + 1e-12
                     for tail, a in zip(tails, approxes))
    slope = float(np.polyfit(np.log(orders), np.log(errs), 1)[0])
    ref_slope = float(np.polyfit(np.log(orders), np.log(tails), 1)[0])
    slope_ok = bracket_ok and abs(slope - ref_slope) <= 0.01
    elapsed = time.time() - start
    time_ok = elapsed < 10.0

    detail = (f"certified err {approx.measured_sup_error:.4f}, "
              f"slope {slope:.3f} vs exact tail {ref_slope:.3f}, "
              f"tail bracket {'ok' if bracket_ok else 'violated'}, "
              f"{elapsed:.1f}s")
    check(10, "positive-part certification, rational coefficients, error slope",
          cert_ok and rational_ok and slope_ok and time_ok, detail)


def test_criterion_11_transfer_chain(sparse_pool, green_reports) -> None:
    form = LinearForm((1, 1, -2))
    ok = True
    worst = 0.0
    for inst, rep in zip(sparse_pool, green_reports[0]):
        t = transfer_error_bound(form, inst["f"], rep.g)
        lhs = abs(t.count_f - t.count_g)
        ok = ok and lhs <= t.delta * (1 + 1e-6) + 1e-6
        worst = max(worst, lhs / t.delta if t.delta > 0 else 0.0)
    check(11, "|count(f) - count(g)| <= transfer budget on 20 instances",
          ok, f"worst usage {worst:.3f} of budget")


def test_criterion_12_determinism() -> None:
    cfg = PipelineConfig(N=5000, majorant="sparse", exponent=2 / 3, seed=7,
                         delta=0.5, variant="hdr", form=(1, 1, -2))
    first = run_pipeline(cfg).to_json()
    second = run_pipeline(cfg).to_json()
    check(12, "identical configs yield byte-identical reports",
          first == second, f"{len(first)} bytes")
