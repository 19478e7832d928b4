"""Independent checks: exhaustive grid search and direct mutual information."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bridgehead as bh
from bridgehead.core import Coupling, mutual_information, shifted_gain
from bridgehead.oracle import _BATCH_ROWS, TooManyActions, _lattice_pieces

from conftest import TIGHT, random_plausible_coupling
from reference import exhaustive_mi, simplex_lattice


class TestSimplexLattice:
    def test_count_is_stars_and_bars(self):
        for m, denom in [(2, 10), (3, 7), (4, 5)]:
            points = list(simplex_lattice(m, denom))
            assert len(points) == math.comb(denom + m - 1, m - 1)

    def test_points_sum_to_denominator(self):
        for point in simplex_lattice(3, 6):
            assert sum(point) == 6
            assert all(c >= 0 for c in point)

    def test_ascending_lexicographic_order(self):
        points = list(simplex_lattice(3, 4))
        assert points == sorted(points)
        assert points[0] == (0, 0, 4)
        assert points[-1] == (4, 0, 0)

    def test_no_duplicates(self):
        points = list(simplex_lattice(4, 6))
        assert len(points) == len(set(points))


class TestLatticeBlocks:
    """The pieces grid_search_f evaluates: non-empty, at most _BATCH_ROWS rows
    each, and simplex_lattice in order when concatenated; an empty lattice
    is rejected by simplex_lattice."""

    @staticmethod
    def check_pieces(m, denom):
        pieces = list(_lattice_pieces(denom, m))
        assert all(0 < len(piece) <= _BATCH_ROWS for piece in pieces)
        points = [tuple(row) for row in np.concatenate(pieces).tolist()]
        assert points == list(simplex_lattice(m, denom))
        return pieces

    @pytest.mark.parametrize("m, denom", [(1, 5), (2, 1000), (3, 7), (3, 100), (4, 100), (5, 20)])
    def test_blocks_concatenate_to_simplex_lattice(self, m, denom):
        self.check_pieces(m, denom)

    # one direct piece up to 4,096 points (m=3 to denominator 89, m=4 to
    # 27); beyond that, pieces that span several leading values, and for
    # m >= 3 leading values whose rows are split over two pieces
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, (60, 9000, 150, 100)[m - 1]))))
    @example((1, 1))
    @example((2, 4095))
    @example((2, 4096))
    @example((3, 89))
    @example((3, 150))
    @example((4, 27))
    @example((4, 100))
    def test_pieces_concatenate_to_simplex_lattice(self, shape):
        m, denom = shape
        pieces = self.check_pieces(m, denom)
        assert all(len(piece) == _BATCH_ROWS for piece in pieces[:-1])
        assert (len(pieces) == 1) == (math.comb(denom + m - 1, m - 1) <= _BATCH_ROWS)

    @pytest.mark.parametrize(
        "m, denom",
        [(0, 5), (3, 0), (2.5, 3), (3, 2.5), (2, "3"), (True, 3), (2, True), (np.float64(2.0), 3)],
        ids=repr,
    )
    def test_empty_lattice_rejected(self, m, denom):
        with pytest.raises(bh.InvalidInput):
            next(simplex_lattice(m, denom))

    def test_numpy_integers_accepted(self):
        assert list(simplex_lattice(np.int64(2), np.int32(2))) == [(0, 2), (1, 1), (2, 0)]


def _tuple_grid_search(problem, denom=None):
    """grid_search_f's scan fed from simplex_lattice tuples, _BATCH_ROWS at a time,
    returning the least concavity bound without its rounding allowance."""
    m = problem.num_actions
    denom = (1000 if m == 2 else 100) if denom is None else denom
    gain, shift = shifted_gain(problem)
    best_f, best_point, least_bound, count = -np.inf, None, np.inf, 0
    points = simplex_lattice(m, denom)
    while batch := list(itertools.islice(points, _BATCH_ROWS)):
        z = (np.array(batch, dtype=np.float64) / denom) @ gain
        f_vals = (np.log(z) + shift[None, :]) @ problem.prior
        bounds = f_vals + (gain @ (problem.prior / z).T).max(axis=0) - 1.0
        least_bound = min(least_bound, float(bounds[np.isfinite(bounds)].min(initial=np.inf)))
        idx = int(np.argmax(f_vals))
        if f_vals[idx] > best_f:
            best_f, best_point = float(f_vals[idx]), batch[idx]
        count += len(batch)
    return best_f, np.array(best_point, dtype=np.float64) / denom, least_bound, count


class TestGridSpec:
    def test_default_pitch_by_size(self):
        for m, pitch in ((2, 1e-3), (3, 1e-2), (4, 1e-2)):
            assert bh.grid_search_f(bh.random_problem(1, m, 2)).resolution == pitch

    def test_explicit_resolution_wins(self):
        assert bh.grid_search_f(bh.random_problem(1, 2, 2), resolution=0.05).resolution == 0.05

    @pytest.mark.parametrize("resolution", [0, 0.7, float("nan"), "0.1", True, 5e-324, 1e-310])
    def test_resolution_outside_range_rejected(self, resolution):
        with pytest.raises(bh.InvalidInput, match="resolution"):
            bh.grid_search_f(bh.random_problem(1, 2, 2), resolution=resolution)


class TestGridSearchF:
    def test_symmetric_optimum_on_grid(self, symmetric_2x2):
        res = bh.grid_search_f(symmetric_2x2)
        assert_allclose(res.marginal.weights, [0.5, 0.5], atol=1e-6)
        assert_allclose(res.f_best, np.log((np.e + 1.0) / 2.0), atol=1e-7)
        assert res.resolution == 1e-3

    def test_state_independent_corner(self, state_independent):
        res = bh.grid_search_f(state_independent)
        assert_allclose(res.marginal.weights, [1.0, 0.0], atol=0)
        assert_allclose(res.f_best, 2.0, atol=1e-12)

    def test_too_many_actions_rejected(self):
        p = bh.random_problem(1, 5, 3)
        with pytest.raises(TooManyActions):
            bh.grid_search_f(p)

    def test_no_actions_rejected(self):
        with pytest.raises(bh.InvalidInput):
            bh.grid_search_f(bh.random_problem(1, 0, 3))

    def test_points_evaluated_matches_lattice(self):
        p = bh.random_problem(2, 3, 3)
        res = bh.grid_search_f(p, resolution=0.1)
        assert res.points_evaluated == math.comb(10 + 2, 2)

    def test_flat_objective_breaks_ties_lexicographically(self):
        prior = np.full(3, 1.0 / 3.0)
        p = bh.Problem(("a", "b", "c"), ("x", "y", "z"), np.zeros((3, 3)), 1.0, prior)
        res = bh.grid_search_f(p, resolution=0.25)
        assert_allclose(res.marginal.weights, [0.0, 0.0, 1.0], atol=0)
        assert res.f_best == 0.0

    def test_certificate_brackets_solver_value(self):
        for seed in (5, 6, 7):
            p = bh.random_problem(seed, 3, 4, lam=0.8)
            solution = bh.solve(p, TIGHT)
            res = bh.grid_search_f(p, resolution=0.02)
            assert solution.f_value >= res.f_best - 1e-10
            assert solution.f_value <= res.upper_bound + 1e-10
            # the Lipschitz margin these instances used to get was 5.9e-3 to 9.2e-3
            assert res.margin <= 2e-4

    def test_bit_identical_to_tuple_scan(self, suite):
        problems = [p for p in suite if p.num_actions <= 4]
        assert problems
        for problem in problems:
            result = bh.grid_search_f(problem)
            f_best, marginal, least_bound, count = _tuple_grid_search(problem)
            assert float.hex(result.f_best) == float.hex(f_best)
            assert result.marginal.weights.tobytes() == marginal.tobytes()
            scale = 1.0 + float(np.abs(problem.utility / problem.lam).max())
            allowance = float(8.0 * np.finfo(np.float64).eps * sum(problem.utility.shape) * scale)
            assert float.hex(result.upper_bound) == float.hex(least_bound + allowance)
            assert result.points_evaluated == count

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam", [1e-3, 0.05, 1.0, 100.0])
    def test_bit_identical_to_tuple_scan_on_random_problems(self, m, lam):
        # at lam = 1e-3 z underflows at some points, where f is -inf and the
        # bound inf or nan
        problem = bh.random_problem(19 + m, m, 5, lam)
        scale = 1.0 + float(np.abs(problem.utility / problem.lam).max())
        allowance = float(8.0 * np.finfo(np.float64).eps * (m + 5) * scale)
        for resolution, denom in ((None, None), (0.02, 50), (0.005, 200)):
            result = bh.grid_search_f(problem, resolution=resolution)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                f_best, marginal, least_bound, count = _tuple_grid_search(problem, denom)
            assert float.hex(result.f_best) == float.hex(f_best)
            assert result.marginal.weights.tobytes() == marginal.tobytes()
            assert float.hex(result.upper_bound) == float.hex(least_bound + allowance)
            assert result.points_evaluated == count

    def test_lattice_is_never_held_whole(self):
        # 1,373,701 points, 44 MB as one float64 array; the template has
        # 20,301 rows (0.5 MB) and a piece at most 4,096 (0.13 MB)
        problem = bh.random_problem(7, 4, 5, 0.5)
        tracemalloc.start()
        try:
            result = bh.grid_search_f(problem, resolution=0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.points_evaluated == 1_373_701
        assert peak < 4e6

    def test_nested_lattice_never_loosens_the_bracket(self):
        # the optimum is a vertex, so at every pitch the margin is the
        # rounding allowance alone
        p = bh.random_problem(8, 2, 3, lam=0.5)
        coarse = bh.grid_search_f(p, resolution=0.1)
        fine = bh.grid_search_f(p, resolution=0.01)
        assert fine.f_best >= coarse.f_best
        assert fine.upper_bound <= coarse.upper_bound
        assert fine.margin <= coarse.margin < 1e-12

    def test_margin_shrinks_with_resolution(self):
        p = bh.random_problem(1, 3, 6, lam=1.0)
        coarse = bh.grid_search_f(p, resolution=0.1)
        fine = bh.grid_search_f(p, resolution=0.01)
        assert fine.f_best >= coarse.f_best
        assert fine.margin < coarse.margin / 10.0

    @pytest.mark.parametrize("lam", [0.01, 0.05, 0.1])
    def test_bracket_stays_tight_at_small_lambda(self, lam):
        p = bh.random_problem(1, 3, 6, lam)
        res = bh.grid_search_f(p)
        assert res.margin <= 2e-3
        assert res.f_best <= bh.solve(p, TIGHT).f_value <= res.upper_bound

    def test_bound_skips_points_where_z_underflows(self):
        # at lam = 1e-3 the vertices' partition functions underflow to zero
        p = bh.random_problem(1, 3, 6, lam=1e-3)
        res = bh.grid_search_f(p, resolution=0.1)
        assert np.isfinite(res.upper_bound)
        assert res.f_best <= bh.solve(p, TIGHT).f_value <= res.upper_bound

    def test_no_finite_bound_gives_infinity(self):
        # pitch 0.5 with three actions leaves no interior lattice point, and
        # off the diagonal the gain is exp(-740), subnormal: every point has
        # a state whose z is so small that prior / z overflows
        u = np.eye(3) * 0.74 - 0.74
        p = bh.Problem(("a", "b", "c"), ("x", "y", "z"), u, 1e-3, np.full(3, 1.0 / 3.0))
        res = bh.grid_search_f(p, resolution=0.5)
        assert res.points_evaluated == 6
        assert np.isfinite(res.f_best)
        assert res.upper_bound == np.inf

    def test_minus_inf_everywhere_rejected(self):
        # off the diagonal the gain is exp(-1000) = 0, and every pitch-0.5
        # point gives some state no weight on the action that pays in it
        p = bh.Problem(("a", "b", "c"), ("x", "y", "z"), np.eye(3) - 1, 1e-3, np.full(3, 1.0 / 3.0))
        with pytest.raises(bh.InvalidInput, match="-inf at every lattice point"):
            bh.grid_search_f(p, resolution=0.5)


def test_suite_check_holds_on_every_small_instance(solved_suite):
    """The benchmark's suite check: |f - f_best| <= margin for m <= 4."""
    checked = 0
    for problem, solution in solved_suite:
        if problem.num_actions <= 4:
            grid = bh.grid_search_f(problem)
            assert abs(solution.f_value - grid.f_best) <= grid.margin
            checked += 1
    assert checked == 6


class TestExhaustiveMi:
    def test_product_coupling_is_zero(self):
        joint = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
        assert 0.0 <= exhaustive_mi(Coupling(joint)) <= 1e-15

    def test_diagonal_coupling_is_log_two(self):
        assert_allclose(exhaustive_mi(Coupling(np.eye(2) / 2.0)), math.log(2.0))

    def test_handles_zero_cells(self):
        joint = np.array([[0.5, 0.0], [0.25, 0.25]])
        value = exhaustive_mi(Coupling(joint))
        assert np.isfinite(value)
        assert value > 0

    def test_matches_vectorized_implementation(self):
        rng = np.random.default_rng(12)
        problem = bh.random_problem(12, 4, 3)
        for _ in range(20):
            coupling = random_plausible_coupling(rng, problem)
            assert_allclose(
                exhaustive_mi(coupling),
                mutual_information(coupling),
                atol=1e-13,
            )
