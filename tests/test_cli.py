"""Command-line entry points: exit codes, output files, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bridgehead as bh
import bridgehead.io
from bridgehead.cli import main
from bridgehead.io import problem_to_dict, sha256_of

from conftest import make_symmetric_2x2


def write_problem(path, problem):
    path.write_text(json.dumps(problem_to_dict(problem), indent=2))
    return str(path)


@pytest.fixture()
def problem_file(tmp_path):
    return write_problem(tmp_path / "problem.json", make_symmetric_2x2())


@pytest.fixture(autouse=True)
def json_is_indent_2(monkeypatch):
    """Every JSON file a command writes here is the text of the standard
    library's indenting encoder, read when written (some tests edit it later)."""
    written = []
    write = bridgehead.io._write_json

    def recorded(document, path):
        path = write(document, path)
        written.append((path, path.read_text()))
        return path

    monkeypatch.setattr(bridgehead.io, "_write_json", recorded)
    yield
    for path, text in written:
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path


class TestSolveCommand:
    def test_happy_path_writes_bundle(self, tmp_path, problem_file, capsys):
        out = tmp_path / "run"
        assert main(["solve", problem_file, "--output-dir", str(out)]) == 0
        for name in ("solution.json", "solution_actions.csv", "solution_states.csv", "manifest.json"):
            assert (out / name).exists(), name
        printed = capsys.readouterr().out
        assert "f_value" in printed and "consideration set" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert set(manifest["outputs"]) == {
            "solution.json",
            "solution_actions.csv",
            "solution_states.csv",
        }

    def test_action_table_rows(self, tmp_path, problem_file):
        out = tmp_path / "run"
        main(["solve", problem_file, "--output-dir", str(out)])
        lines = (out / "solution_actions.csv").read_text().splitlines()
        assert lines[0] == "index,action,weight,action_potential,foc_residual,supported"
        assert len(lines) == 3
        assert lines[1].startswith("0,a0,")

    def test_deterministic_reruns_hash_identically(self, tmp_path, problem_file):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["solve", problem_file, "--output-dir", str(out1)])
        main(["solve", problem_file, "--output-dir", str(out2)])
        for name in ("solution.json", "solution_actions.csv", "solution_states.csv"):
            assert sha256_of(out1 / name) == sha256_of(out2 / name)

    def test_invalid_problem_exits_one_with_code_on_stderr(self, tmp_path, capsys):
        p = make_symmetric_2x2()
        bad = dict(problem_to_dict(p), **{"lambda": 0.0})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["solve", str(path), "--output-dir", str(tmp_path / "o")]) == 1
        assert "NonPositiveLambda" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err != ""

    def test_budget_exhaustion_exits_two_but_writes(self, tmp_path, capsys):
        p = bh.random_problem(5, 6, 6, lam=0.2)
        path = write_problem(tmp_path / "p.json", p)
        out = tmp_path / "run"
        assert main(["solve", path, "--max-iters", "1", "--output-dir", str(out)]) == 2
        assert (out / "solution.json").exists()
        data = json.loads((out / "solution.json").read_text())
        assert data["converged"] is False
        assert "warning" in capsys.readouterr().err

    def test_failed_final_inner_solve_exits_two_but_writes(self, tmp_path, capsys):
        # no 6x6 bridge reaches a residual of 1e-17 within its sweep budget
        path = write_problem(tmp_path / "p.json", bh.random_problem(3, 6, 6, 1.0))
        out = tmp_path / "run"
        assert main(["solve", path, "--tolerance", "1e-17", "--output-dir", str(out)]) == 2
        for name in ("solution.json", "solution_actions.csv", "solution_states.csv", "manifest.json"):
            assert (out / name).exists(), name
        assert json.loads((out / "solution.json").read_text())["converged"] is False
        assert "final inner solve" in capsys.readouterr().err

    def test_log_domain_miss_exits_two_but_writes(self, tmp_path, capsys):
        # the plain-domain plateau passes at 1e-15 and the log-domain one misses
        problem = bh.random_problem(846428920, 4, 10, 0.0509548473469122)
        path = write_problem(tmp_path / "p.json", problem)
        out = tmp_path / "run"
        assert main(["solve", path, "--foc-tolerance", "1e-15", "--output-dir", str(out)]) == 2
        assert json.loads((out / "solution.json").read_text())["converged"] is False
        captured = capsys.readouterr()
        assert "converged: False" in captured.out
        assert "log-domain plateau violation" in captured.err

    def test_dead_action_writes_minus_inf_without_warning(self, tmp_path, capsys):
        # at lam = 1e-300 the sixth action dies: its residual is exactly -1
        path = write_problem(tmp_path / "p.json", bh.random_problem(3, 6, 6, 1e-300))
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", path, "--output-dir", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err
        last = (out / "solution_actions.csv").read_text().splitlines()[-1]
        assert last.split(",")[3:5] == ["-inf", "-1.0"]

    def test_random_init_flag(self, tmp_path, problem_file):
        out = tmp_path / "run"
        code = main(
            ["solve", problem_file, "--init", "random", "--seed", "3", "--output-dir", str(out)]
        )
        assert code == 0
        data = json.loads((out / "solution.json").read_text())
        assert abs(sum(data["marginal"]) - 1.0) < 1e-12


class TestBridgeCommand:
    def test_bare_array_marginal(self, tmp_path, problem_file):
        marginal = tmp_path / "nu.json"
        marginal.write_text("[0.5, 0.5]")
        out = tmp_path / "run"
        code = main(
            ["bridge", problem_file, str(marginal), "--output-dir", str(out)]
        )
        assert code == 0
        data = json.loads((out / "bridge.json").read_text())
        assert abs(data["duality_gap"]) <= 1e-8
        assert abs(data["value_primal"] - np.log((np.e + 1) / 2)) <= 1e-9

    def test_newton_counts_are_written(self, tmp_path, capsys):
        # 6x6 at lam = 0.01 hands over to Newton after sweep 2, whose 11
        # LAPACK moves end the solve there; stdout is as before the counts
        problem = bh.random_problem(6, 6, 6, lam=0.01)
        path = write_problem(tmp_path / "p.json", problem)
        marginal = tmp_path / "nu.json"
        marginal.write_text(json.dumps([1 / 6] * 6))
        out = tmp_path / "run"
        assert main(["bridge", path, str(marginal), "--output-dir", str(out)]) == 0
        data = json.loads((out / "bridge.json").read_text())
        assert list(data) == [
            "value_primal", "value_dual", "duality_gap", "iterations", "residual",
            "newton_steps", "gth_steps", "coupling", "potentials",
        ]
        result = bh.sinkhorn_bridge(problem, bh.ActionMarginal(np.full(6, 1 / 6)), bh.SinkhornConfig(1e-12))
        assert (data["iterations"], data["newton_steps"], data["gth_steps"]) == (2, 11, 0)
        assert (result.newton_steps, result.gth_steps) == (11, 0)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["value_primal", "value_dual", "duality_gap", "residual"]
        assert lines[-1] == f"residual: {result.residual!r} after 2 sweeps"

    def test_wrapped_marginal_document(self, tmp_path, problem_file):
        marginal = tmp_path / "nu.json"
        marginal.write_text(json.dumps({"marginal": [0.25, 0.75]}))
        out = tmp_path / "run"
        assert main(
            ["bridge", problem_file, str(marginal), "--output-dir", str(out)]
        ) == 0

    def test_length_mismatch_exits_one(self, tmp_path, problem_file, capsys):
        marginal = tmp_path / "nu.json"
        marginal.write_text("[0.2, 0.3, 0.5]")
        assert main(["bridge", problem_file, str(marginal)]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_budget_exhaustion_exits_two_but_writes(self, tmp_path, capsys):
        # the budget ends at sweep 2, before the earliest Newton hand-over
        path = write_problem(tmp_path / "p.json", bh.random_problem(8, 6, 6, lam=0.01))
        marginal = tmp_path / "nu.json"
        marginal.write_text(json.dumps([1 / 6] * 6))
        out = tmp_path / "run"
        code = main(["bridge", path, str(marginal), "--max-iters", "2", "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("warning: no convergence after 2 sweeps")
        data = json.loads((out / "bridge.json").read_text())
        assert data["iterations"] == 2 and data["residual"] > 1e-12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == {"bridge.json": sha256_of(out / "bridge.json")}

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--tolerance", "-1", "tolerance must be > 0"), ("--max-iters", "0", "max_iterations")],
    )
    def test_bad_config_flag_exits_one(self, tmp_path, problem_file, capsys, flag, value, message):
        marginal = tmp_path / "nu.json"
        marginal.write_text("[0.5, 0.5]")
        out = tmp_path / "run"
        code = main(["bridge", problem_file, str(marginal), flag, value, "--output-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestDiagnoseCommand:
    def solve_then(self, tmp_path, problem, *diagnose_args):
        path = write_problem(tmp_path / "p.json", problem)
        out = tmp_path / "solved"
        assert main(["solve", path, "--output-dir", str(out)]) == 0
        report_dir = tmp_path / "report"
        code = main(
            ["diagnose", path, str(out / "solution.json"), "--output-dir", str(report_dir)]
            + list(diagnose_args)
        )
        return code, report_dir, out

    def test_certified_solution_exits_zero(self, tmp_path):
        code, report_dir, _ = self.solve_then(tmp_path, make_symmetric_2x2())
        assert code == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert report["all_pass"] is True
        lines = (report_dir / "report.csv").read_text().splitlines()
        assert lines[0] == "check,max_violation,tolerance,passed"
        assert len(lines) == 15
        for line in lines[1:]:
            _, _, tolerance, passed = line.split(",")
            assert passed in ("True", "False")
            assert float(tolerance) > 0

    def test_edited_residuals_fail_kt_plateau(self, tmp_path, capsys):
        problem = make_symmetric_2x2()
        path = write_problem(tmp_path / "p.json", problem)
        out = tmp_path / "solved"
        assert main(["solve", path, "--output-dir", str(out)]) == 0
        doc = json.loads((out / "solution.json").read_text())
        doc["foc_residuals"] = [5.0, -3.0]
        (out / "solution.json").write_text(json.dumps(doc))
        report_dir = tmp_path / "report"
        code = main(
            ["diagnose", path, str(out / "solution.json"), "--output-dir", str(report_dir)]
        )
        assert code == 2
        report = json.loads((report_dir / "report.json").read_text())
        failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
        assert set(failed) == {"kt_plateau"}
        assert failed["kt_plateau"]["max_violation"] == 5.0
        assert "stored foc_residuals off by 5.000e+00" in failed["kt_plateau"]["details"]

    def test_tampered_solution_exits_two_and_reports(self, tmp_path, capsys):
        problem = make_symmetric_2x2()
        path = write_problem(tmp_path / "p.json", problem)
        out = tmp_path / "solved"
        main(["solve", path, "--output-dir", str(out)])
        doc = json.loads((out / "solution.json").read_text())
        doc["coupling"][0][0] *= 1.5
        mass = sum(sum(row) for row in doc["coupling"])
        doc["coupling"] = [[v / mass for v in row] for row in doc["coupling"]]
        (out / "solution.json").write_text(json.dumps(doc))
        report_dir = tmp_path / "report"
        code = main(
            ["diagnose", path, str(out / "solution.json"), "--output-dir", str(report_dir)]
        )
        assert code == 2
        report = json.loads((report_dir / "report.json").read_text())
        assert report["all_pass"] is False
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed

    def test_small_lambda_probe_bracket_exits_zero(self, tmp_path, capsys):
        # at lam=0.01 every probe solve reaches 1e-12, but the inner value
        # curves on a scale far below h, so the central difference misses by
        # 0.247; the one-sided quotients bracket the analytic derivative
        code, report_dir, _ = self.solve_then(
            tmp_path, bh.random_problem(3, 6, 6, 0.01), "--seed", "1"
        )
        assert code == 0
        for name in ("report.json", "report.csv", "manifest.json"):
            assert (report_dir / name).exists(), name
        report = json.loads((report_dir / "report.json").read_text())
        assert report["all_pass"] is True
        details = {c["name"]: c["details"] for c in report["checks"]}
        assert details["gateaux_value"] == "one-sided brackets at [0, 1, 3], widest 8.093e+00"
        assert "Traceback" not in capsys.readouterr().err

    def test_shape_mismatch_exits_one(self, tmp_path):
        p2 = make_symmetric_2x2()
        p3 = bh.random_problem(2, 3, 3)
        path2 = write_problem(tmp_path / "p2.json", p2)
        path3 = write_problem(tmp_path / "p3.json", p3)
        out = tmp_path / "solved"
        assert main(["solve", path2, "--output-dir", str(out)]) == 0
        assert main(["diagnose", path3, str(out / "solution.json")]) == 1


class TestSweepCommand:
    def run_sweep(self, tmp_path, jobs):
        problem_path = write_problem(tmp_path / "p.json", make_symmetric_2x2())
        out = tmp_path / f"sweep_{jobs}"
        code = main(
            [
                "sweep",
                problem_path,
                "--lambdas",
                "4.0,1.0,0.25",
                "--jobs",
                str(jobs),
                "--output-dir",
                str(out),
            ]
        )
        return code, out

    def test_summary_schema_and_monotonicity(self, tmp_path):
        code, out = self.run_sweep(tmp_path, 1)
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "lambda,consideration_size,f_value,mutual_information"
        assert len(lines) == 4
        lams = [float(r.split(",")[0]) for r in lines[1:]]
        infos = [float(r.split(",")[3]) for r in lines[1:]]
        assert lams == [4.0, 1.0, 0.25]
        # attention is cheaper at small lambda, so information acquired rises
        assert infos[0] <= infos[1] <= infos[2]

    def test_per_lambda_bundles_written(self, tmp_path):
        _, out = self.run_sweep(tmp_path, 1)
        for k in range(3):
            assert (out / f"solution_{k:02d}.json").exists()
            assert (out / f"solution_{k:02d}_actions.csv").exists()

    def test_parallel_run_is_byte_identical(self, tmp_path):
        _, serial = self.run_sweep(tmp_path, 1)
        _, parallel = self.run_sweep(tmp_path, 3)
        assert sha256_of(serial / "summary.csv") == sha256_of(parallel / "summary.csv")
        for k in range(3):
            name = f"solution_{k:02d}.json"
            assert sha256_of(serial / name) == sha256_of(parallel / name)

    def test_bad_lambda_list_exits_one(self, tmp_path, capsys):
        problem_path = write_problem(tmp_path / "p.json", make_symmetric_2x2())
        assert main(["sweep", problem_path, "--lambdas", "1.0,zero"]) == 1
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1", "0"])
    def test_invalid_lambda_exits_one(self, tmp_path, capsys, lam):
        problem_path = write_problem(tmp_path / "p.json", make_symmetric_2x2())
        out = tmp_path / "sweep"
        assert main(["sweep", problem_path, "--lambdas", f"1.0,{lam}", "--output-dir", str(out)]) == 1
        assert "NonPositiveLambda" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_final_inner_solve_exits_two_but_writes(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", bh.random_problem(3, 6, 6, 1.0))
        out = tmp_path / "sweep"
        argv = ["sweep", path, "--lambdas", "1,2", "--tolerance", "1e-17", "--output-dir", str(out)]
        assert main(argv) == 2
        assert len((out / "summary.csv").read_text().splitlines()) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["arguments"]["failures"]
        assert "final inner solve" in capsys.readouterr().err

    def test_jobs_below_one_exits_one(self, tmp_path, capsys):
        problem_path = write_problem(tmp_path / "p.json", make_symmetric_2x2())
        assert main(["sweep", problem_path, "--lambdas", "1.0", "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err


class TestMalformedInput:
    """Documents holding the wrong kind of value exit 1 with one error line."""

    @pytest.fixture()
    def paths(self, tmp_path, problem_file):
        solved = tmp_path / "solved"
        assert main(["solve", problem_file, "--output-dir", str(solved)]) == 0
        problem = problem_to_dict(make_symmetric_2x2())
        solution = json.loads((solved / "solution.json").read_text())
        documents = {
            "utility_x": dict(problem, utility=[["x", 0.0], [0.0, 1.0]]),
            "lambda_cheap": dict(problem, **{"lambda": "cheap"}),
            "lambda_subnormal": dict(problem, **{"lambda": 1e-310}),
            "bare_list": [problem],
            "marginal_strings": dict(solution, marginal=["a", "b"]),
            "potentials_list": dict(solution, potentials=[0.0, 0.0]),
            "nu_strings": ["a", "b"],
            "nu_dict": {"marginal": {"x": 1}},
            "marginal_3": dict(solution, marginal=[0.2, 0.3, 0.5]),
            "state_potentials_3": dict(
                solution, potentials=dict(solution["potentials"], state=[0.0, 0.0, 0.0])
            ),
            "set_0_7": dict(solution, consideration_set=[0, 7]),
            "converged_string": dict(solution, converged="false"),
            "iterations_fraction": dict(solution, iterations=1.5),
            "set_0": dict(solution, consideration_set=[0]),
        }
        paths = {"problem": problem_file, "solution": str(solved / "solution.json")}
        for name, document in documents.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document))
            paths[name] = str(path)
        (tmp_path / "folder").mkdir()
        paths["folder"] = str(tmp_path / "folder")
        (tmp_path / "binary.json").write_bytes(b'{"actions": ["\xff\xfe"]}')
        paths["binary"] = str(tmp_path / "binary.json")
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        paths["deep"] = str(tmp_path / "deep.json")
        return paths

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "utility_x"],
            ["solve", "lambda_cheap"],
            ["solve", "lambda_subnormal"],
            ["solve", "bare_list"],
            ["sweep", "lambda_cheap", "--lambdas", "1"],
            ["sweep", "bare_list", "--lambdas", "1"],
            ["sweep", "problem", "--lambdas", "1,1e-320"],
            ["diagnose", "utility_x", "solution"],
            ["diagnose", "problem", "marginal_strings"],
            ["diagnose", "problem", "potentials_list"],
            ["bridge", "bare_list", "nu_strings"],
            ["bridge", "problem", "nu_strings"],
            ["bridge", "problem", "nu_dict"],
            ["solve", "folder"],
            ["sweep", "folder", "--lambdas", "1"],
            ["diagnose", "problem", "folder"],
            ["bridge", "problem", "folder"],
            ["solve", "binary"],
            ["solve", "deep"],
            ["diagnose", "problem", "binary"],
            ["diagnose", "problem", "marginal_3"],
            ["diagnose", "problem", "state_potentials_3"],
            ["diagnose", "problem", "set_0_7"],
            ["solve", "problem", "--init", "random", "--seed", "-1"],
            ["sweep", "problem", "--lambdas", "1", "--init", "random", "--seed", "-1"],
            ["diagnose", "problem", "solution", "--seed", "-1"],
            ["diagnose", "problem", "converged_string"],
            ["diagnose", "problem", "iterations_fraction"],
            ["diagnose", "problem", "set_0"],
        ],
    )
    def test_exits_one_without_traceback(self, tmp_path, paths, capsys, argv):
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([paths.get(arg, arg) for arg in argv] + ["--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()


@pytest.fixture()
def command_inputs(tmp_path, problem_file):
    """Argument lists of the four commands on the 2x2 problem."""
    marginal = tmp_path / "nu.json"
    marginal.write_text("[0.5, 0.5]")
    solved = tmp_path / "solved"
    assert main(["solve", problem_file, "--output-dir", str(solved)]) == 0
    return {
        "solve": ["solve", problem_file],
        "bridge": ["bridge", problem_file, str(marginal)],
        "diagnose": ["diagnose", problem_file, str(solved / "solution.json")],
        "sweep": ["sweep", problem_file, "--lambdas", "1.0,2.0"],
    }


class TestOutputDir:
    @pytest.mark.parametrize("command", ["solve", "bridge", "diagnose", "sweep"])
    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_path_that_cannot_be_a_directory_exits_one(
        self, tmp_path, command_inputs, capsys, command, where
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker if where == "file" else blocker / "run"
        capsys.readouterr()
        assert main(command_inputs[command] + ["--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot use {out} as output directory")
        assert "Traceback" not in captured.err
        assert captured.out == ""  # nothing was solved
        assert blocker.read_text() == "not a directory"


# what each command may not load: the modules it does not use, and SciPy
_NOT_LOADED = {
    "solve": ("bridgehead.diagnostics", "bridgehead.generators", "bridgehead.oracle", "concurrent.futures"),
    "bridge": (
        "bridgehead.solver", "bridgehead.diagnostics", "bridgehead.generators", "bridgehead.oracle",
        "concurrent.futures",
    ),
    "diagnose": ("bridgehead.generators", "bridgehead.oracle"),
    "sweep": ("bridgehead.diagnostics", "bridgehead.generators", "bridgehead.oracle"),
}


@pytest.mark.parametrize("command", sorted(_NOT_LOADED))
def test_command_loads_only_what_it_runs(tmp_path, command_inputs, command):
    argv = command_inputs[command] + ["--output-dir", str(tmp_path / "run")]
    code = (
        "import sys; from bridgehead.cli import main; "
        f"code = main({argv!r}); print(); print(code, *sorted(sys.modules))"
    )
    src = str(Path(bh.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    exit_code, *modules = out.stdout.splitlines()[-1].split()
    assert exit_code == "0"
    assert "bridgehead.cli" in modules
    assert [m for m in _NOT_LOADED[command] if m in modules] == []
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


class TestManifest:
    def test_arguments_record_every_flag(self, tmp_path, problem_file):
        marginal = tmp_path / "nu.json"
        marginal.write_text("[0.5, 0.5]")
        solved = tmp_path / "solve" / "solution.json"
        runs = {
            "solve": ["solve", problem_file],
            "bridge": ["bridge", problem_file, str(marginal)],
            "diagnose": ["diagnose", problem_file, str(solved)],
            "sweep": ["sweep", problem_file, "--lambdas", "1.0"],
        }
        expected = {
            "solve": {"tolerance", "max_iters", "foc_tolerance", "seed", "init"},
            "bridge": {"marginal", "tolerance", "max_iters"},
            "diagnose": {"solution", "seed"},
            "sweep": {
                "lambdas", "jobs", "tolerance", "max_iters", "foc_tolerance", "seed", "init",
                "failures",
            },
        }
        for command, argv in runs.items():
            out = tmp_path / command
            assert main(argv + ["--output-dir", str(out)]) == 0, command
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["command"] == command
            assert manifest["input"] == problem_file
            assert set(manifest["arguments"]) == expected[command], command


class TestParser:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_module_entry_point_exists(self):
        import bridgehead.__main__  # noqa: F401
