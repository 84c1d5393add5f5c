"""Hull projection and saddle points over hulls."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemodel.convex import (
    PointHull,
    minimax_solve,
    project_onto_hull,
)
from densemodel.errors import ValidationError


def brute_game_value(G: np.ndarray, steps: int = 1000) -> float:
    """Fine-grid maximin over the probability simplex for 3x3 payoffs."""
    best = -np.inf
    ts = np.linspace(0, 1, steps + 1)
    for a1 in ts:
        for a2 in np.linspace(0, 1 - a1, max(1, int((1 - a1) * steps) + 1)):
            a = np.array([a1, a2, 1 - a1 - a2])
            best = max(best, float(np.min(a @ G)))
    return best


class TestProjection:
    def test_simplex_example(self) -> None:
        hull = PointHull(np.array([[1.0, 0.0], [0.0, 1.0]]))
        proj = project_onto_hull(np.array([1.0, 1.0]), hull)
        assert proj.point == pytest.approx([0.5, 0.5], abs=1e-6)
        assert proj.distance == pytest.approx(np.sqrt(0.5), abs=1e-6)
        assert not proj.inside
        assert proj.witness is not None

    def test_interior_point(self) -> None:
        hull = PointHull(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
        proj = project_onto_hull(np.array([0.5, 0.5]), hull)
        assert proj.inside
        assert proj.distance <= 1e-4

    def test_witness_separates(self) -> None:
        rng = np.random.default_rng(2)
        gens = rng.standard_normal((8, 4))
        x = rng.standard_normal(4) * 5
        proj = project_onto_hull(x, PointHull(gens))
        if proj.witness is None:
            pytest.skip("point inside hull")
        w = proj.witness
        # phi(x) exceeds the hull's supporting value by distance^2
        assert float(w.normal @ x) == pytest.approx(
            w.anchor_value + proj.distance ** 2, rel=1e-9)
        for g in gens:
            assert float(w.normal @ g) <= w.anchor_value + proj.gap + 1e-9

    def test_coefficients_convex(self) -> None:
        rng = np.random.default_rng(3)
        gens = rng.standard_normal((6, 3))
        proj = project_onto_hull(np.zeros(3), PointHull(gens))
        assert np.all(proj.coefficients >= -1e-12)
        assert float(np.sum(proj.coefficients)) == pytest.approx(1.0)
        assert proj.point == pytest.approx(proj.coefficients @ gens, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_projection_is_nearest_among_generators(self, seed) -> None:
        rng = np.random.default_rng(seed)
        gens = rng.standard_normal((5, 3))
        x = rng.standard_normal(3) * 3
        proj = project_onto_hull(x, PointHull(gens))
        for g in gens:
            assert proj.distance <= np.linalg.norm(x - g) + 1e-6

    def test_dimension_mismatch(self) -> None:
        with pytest.raises(ValidationError):
            project_onto_hull(np.zeros(3), PointHull(np.zeros((2, 2))))


class TestMinimax:
    def test_identity_game(self) -> None:
        simplex = PointHull(np.eye(2))
        res = minimax_solve(simplex, simplex)
        assert res.value == pytest.approx(0.5, abs=1e-6)
        assert res.a_star == pytest.approx([0.5, 0.5], abs=1e-6)
        assert res.b_star == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_saddle_inequalities_on_generators(self) -> None:
        rng = np.random.default_rng(7)
        A = PointHull(rng.standard_normal((4, 3)))
        B = PointHull(rng.standard_normal((5, 3)))
        res = minimax_solve(A, B)
        tol = 1e-7 * (1 + abs(res.value))
        for a in A.generators:
            assert float(a @ res.b_star) <= res.value + res.gap + tol
        for b in B.generators:
            assert float(res.a_star @ b) >= res.value - res.gap - tol

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_matches_grid_brute_force(self, seed) -> None:
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((3, 3))
        res = minimax_solve(PointHull(np.eye(3)), PointHull(np.eye(3).T @ G.T @ np.eye(3)))
        # the payoff of simplex-vs-hull(rows of G^T) is a^T G b
        res = minimax_solve(PointHull(np.eye(3)), PointHull(G.T))
        assert res.value == pytest.approx(brute_game_value(G, steps=100),
                                          abs=2e-2)
