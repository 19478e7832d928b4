"""Serialization: exact float round-trips, validation on load, manifests."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bridgehead as bh
from bridgehead.io import (
    _dumps,
    load_problem,
    load_solution,
    problem_from_dict,
    problem_to_dict,
    report_to_dict,
    save_problem,
    save_report,
    save_solution,
    sha256_of,
    solution_from_dict,
    solution_to_dict,
    write_csv,
    write_manifest,
)

from conftest import TIGHT


class TestProblemRoundTrip:
    def test_dict_round_trip_is_exact(self):
        p = bh.random_problem(77, 4, 5, lam=0.35)
        q = problem_from_dict(problem_to_dict(p))
        assert np.array_equal(p.utility, q.utility)
        assert np.array_equal(p.prior, q.prior)
        assert p.actions == q.actions and p.states == q.states
        assert p.lam == q.lam

    def test_file_round_trip_through_json(self, tmp_path):
        p = bh.random_problem(78, 3, 3, lam=1.7)
        path = save_problem(p, tmp_path / "problem.json")
        q = load_problem(path)
        assert np.array_equal(p.utility, q.utility)
        assert np.array_equal(p.prior, q.prior)

    def test_rewrite_is_byte_identical(self, tmp_path):
        p = bh.random_problem(79, 3, 4, lam=0.6)
        first = save_problem(p, tmp_path / "a.json").read_bytes()
        second = save_problem(load_problem(tmp_path / "a.json"), tmp_path / "b.json").read_bytes()
        assert first == second

    def test_schema_keys(self):
        data = problem_to_dict(bh.random_problem(1, 2, 2))
        assert set(data) == {"actions", "states", "utility", "lambda", "prior"}

    def test_invalid_payload_lists_issue_codes(self, tmp_path):
        payload = {
            "actions": ["a"],
            "states": ["x", "y"],
            "utility": [[1.0, float("nan")]],
            "lambda": -1.0,
            "prior": [0.7, 0.7],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(bh.InvalidInput) as exc:
            load_problem(path)
        message = str(exc.value)
        assert "NonPositiveLambda" in message
        assert "NonFiniteUtility" in message
        assert "PriorNotSimplex" in message

    def test_zero_prior_state_dropped_with_warning(self, tmp_path):
        payload = {
            "actions": ["a", "b"],
            "states": ["x", "y", "z"],
            "utility": [[1.0, 0.0, 3.0], [0.0, 1.0, 3.0]],
            "lambda": 1.0,
            "prior": [0.5, 0.5, 0.0],
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning):
            p = load_problem(path)
        assert p.states == ("x", "y")
        assert p.utility.shape == (2, 2)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(bh.InvalidInput, match="no such file"):
            load_problem(tmp_path / "absent.json")

    def test_missing_key_rejected(self):
        with pytest.raises(bh.InvalidInput):
            problem_from_dict({"actions": ["a"], "states": ["x"]})


class TestSolutionRoundTrip:
    def test_full_round_trip(self, tmp_path):
        p = bh.random_problem(80, 4, 4, lam=0.9)
        solution = bh.solve(p, TIGHT)
        path = save_solution(p, solution, tmp_path / "solution.json")
        back = load_solution(path)
        assert np.array_equal(back.marginal.weights, solution.marginal.weights)
        assert np.array_equal(back.coupling.joint, solution.coupling.joint)
        assert np.array_equal(back.potentials.action, solution.potentials.action)
        assert back.f_value == solution.f_value
        assert back.consideration_set == solution.consideration_set
        assert back.converged == solution.converged

    def test_dict_form_carries_labels_and_support(self):
        p = bh.random_problem(81, 3, 3)
        solution = bh.solve(p, TIGHT)
        data = solution_to_dict(p, solution)
        assert data["actions"] == list(p.actions)
        assert data["consideration_labels"] == [
            p.actions[i] for i in solution.consideration_set
        ]
        rebuilt = solution_from_dict(data)
        assert rebuilt.iterations == solution.iterations

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("normalization", "E_b=0", "normalization must be 'E_nu[action]=0', got 'E_b=0'"),
            ("converged", "false", "converged must be true or false, got 'false'"),
            ("iterations", 1.5, "iterations must be an integer, got 1.5"),
            ("iterations", -1, "iterations must be >= 0, got -1"),
            ("f_value", "0.5", "f_value must be a real number, got '0.5'"),
        ],
    )
    def test_malformed_fields_are_named(self, key, value, message):
        p = bh.random_problem(81, 3, 3)
        data = solution_to_dict(p, bh.solve(p))
        if key == "normalization":
            data["potentials"] = dict(data["potentials"], normalization=value)
        else:
            data[key] = value
        with pytest.raises(bh.InvalidInput) as exc:
            solution_from_dict(data)
        assert str(exc.value) == message

    def test_diagnostics_accept_reloaded_solution(self, tmp_path):
        p = bh.random_problem(82, 3, 4, lam=0.8)
        solution = bh.solve(p, TIGHT)
        back = load_solution(save_solution(p, solution, tmp_path / "s.json"))
        report = bh.run_diagnostics(p, back)
        assert report.all_pass, [c for c in report if not c.passed]


class TestReportSerialization:
    def test_rows_cover_every_check(self, solved_suite):
        problem, solution = solved_suite[0]
        report = bh.run_diagnostics(problem, solution)
        rows = report_to_dict(report)["checks"]
        assert [row["name"] for row in rows] == [c.name for c in report]
        for row in rows:
            assert isinstance(row["passed"], bool)
            assert row["tolerance"] > 0

    def test_saved_report_is_valid_json(self, tmp_path, solved_suite):
        problem, solution = solved_suite[0]
        report = bh.run_diagnostics(problem, solution)
        path = save_report(report, tmp_path / "report.json")
        data = json.loads(path.read_text())
        assert data["all_pass"] is True
        assert len(data["checks"]) == 14


class TestCsvAndManifest:
    def test_repr_cells_survive_float_round_trip(self, tmp_path):
        values = [0.1, 1 / 3, 1e-300, 123456.789e-12, np.nextafter(1.0, 2.0)]
        path = write_csv(tmp_path / "t.csv", ["v"], [[v] for v in values])
        lines = path.read_text().splitlines()[1:]
        assert [float(s) for s in lines] == values

    def test_same_rows_same_bytes(self, tmp_path):
        rows = [[1, "x", 0.25], [2, "y", 1e-9]]
        a = write_csv(tmp_path / "a.csv", ["i", "n", "v"], rows).read_bytes()
        b = write_csv(tmp_path / "b.csv", ["i", "n", "v"], rows).read_bytes()
        assert a == b

    def test_manifest_hashes_and_sorting(self, tmp_path):
        f1 = tmp_path / "one.csv"
        f1.write_text("a\n1\n")
        f2 = tmp_path / "two.json"
        f2.write_text("{}")
        path = write_manifest(
            tmp_path,
            command="solve",
            input_path="problem.json",
            arguments={"b": 2, "a": 1},
            files=[f2, f1],
            wall_time=0.5,
        )
        data = json.loads(path.read_text())
        assert list(data["outputs"]) == ["one.csv", "two.json"]
        assert data["outputs"]["one.csv"] == sha256_of(f1)
        assert list(data["arguments"]) == ["a", "b"]
        assert data["wall_time_seconds"] == 0.5
        assert data["command"] == "solve"


# floats that format differently: non-finite, signed zero, subnormal, and the
# two exponents where repr switches between positional and scientific notation
_EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1e-5]
_SCALARS = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f éλ→€😀, :[]{}'),
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(_DOCUMENTS)
    @example({"a": [[], {"b": ()}], "c": {}})
    def test_same_text_as_the_indenting_encoder(self, document):
        assert _dumps(document) == json.dumps(document, indent=2)
