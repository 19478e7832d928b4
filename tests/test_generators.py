"""Seeded instance factories used across the test corpus."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bridgehead as bh
from bridgehead.core import validate


class TestRandomProblem:
    def test_deterministic_in_seed(self):
        a = bh.random_problem(123, 4, 5, lam=0.7)
        b = bh.random_problem(123, 4, 5, lam=0.7)
        assert np.array_equal(a.utility, b.utility)
        assert np.array_equal(a.prior, b.prior)
        assert a.actions == b.actions
        assert a.lam == b.lam

    def test_different_seeds_differ(self):
        a = bh.random_problem(1, 3, 3)
        b = bh.random_problem(2, 3, 3)
        assert not np.array_equal(a.utility, b.utility)

    def test_valid_by_construction(self):
        p = bh.random_problem(55, 6, 4, lam=0.3)
        assert validate(p) == []
        assert p.actions == ("a0", "a1", "a2", "a3", "a4", "a5")
        assert p.states == ("s0", "s1", "s2", "s3")
        assert_allclose(p.prior.sum(), 1.0, atol=1e-15)
        assert np.all(p.prior > 0)

    @pytest.mark.parametrize(
        "args",
        [
            (1.5, 3, 3),
            (-1, 3, 3),
            (1, True, 3),
            (1, 3, -2),
            (1, 3.0, 3),
            (1, 3, 3, "1.0"),
            (1, 3, 3, True),
        ],
    )
    def test_rejects_malformed_arguments(self, args):
        with pytest.raises(bh.InvalidInput):
            bh.random_problem(*args)

    def test_accepts_numpy_numbers(self):
        p = bh.random_problem(np.int64(7), np.int64(3), np.int64(2), np.float64(0.5))
        q = bh.random_problem(7, 3, 2, 0.5)
        assert np.array_equal(p.utility, q.utility) and np.array_equal(p.prior, q.prior)


class TestSuites:
    def test_standard_suite_size_and_shapes(self):
        suite = bh.standard_suite()
        assert len(suite) == 20
        shapes = {(p.num_actions, p.num_states) for p in suite}
        assert (2, 2) in shapes and (16, 16) in shapes

    def test_standard_suite_cycles_lambdas(self):
        suite = bh.standard_suite(count=6)
        assert {p.lam for p in suite} == {0.25, 1.0, 4.0}

    def test_standard_suite_deterministic(self):
        one = bh.standard_suite(count=3)
        two = bh.standard_suite(count=3)
        for p, q in zip(one, two):
            assert np.array_equal(p.utility, q.utility)

    def test_small_suite_fits_grid_oracle(self):
        for p in bh.small_suite():
            assert p.num_actions in (2, 3)
            assert p.num_states in (2, 3, 4)


class TestDuplicatedActionProblem:
    def test_contains_exact_duplicate_row(self):
        p = bh.duplicated_action_problem()
        assert p.num_actions == 4
        assert np.array_equal(p.utility[3], p.utility[0])
        assert p.actions[3] == "a0_twin"
        assert validate(p) == []
