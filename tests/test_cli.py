"""Command-line entry point: exit codes, artifacts, config merging."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import lanslab
from lanslab import BesovIndex, DyadicPartition, Trajectory, build_partition, l2_norm, read_field, sobolev_norm
from lanslab import cli
from lanslab.cli import _solve_config, _solve_once, _suite_partition, build_parser, main


def read_report(path):
    return json.loads(path.read_text())["report"]


class TestVerify:
    def test_partition_suite_passes(self, tmp_path):
        out = tmp_path / "o"
        assert main(["verify", "--suite", "partition", "--n", "16", "--out", str(out)]) == 0
        records = read_report(out / "verify.json")["records"]
        assert {r["status"] for r in records} == {"pass"}
        lines = (out / "verify_summary.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest=")
        assert lines[1] == "case,status"

    def test_partition_built_once_per_grid(self, tmp_path, monkeypatch):
        # the product suite measures on a 16^3 grid and its 32^3 refinement
        built = []
        init = DyadicPartition.__init__

        def counting_init(self, grid):
            built.append(grid)
            init(self, grid)

        monkeypatch.setattr(DyadicPartition, "__init__", counting_init)
        build_partition.cache_clear()
        main(["verify", "--suite", "product", "--n", "16", "--out", str(tmp_path / "o")])
        assert len(built) <= 2

    def test_partition_suite_reads_the_cubes(self):
        # the unity and disjointness checks run on the nested half cubes: a
        # 128^3 partition keeps 1.1 MB of them, where its dense stack is 84 MB
        build_partition.cache_clear()
        tracemalloc.start()
        try:
            records = _suite_partition(128, 0)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [r["status"] for r in records] == ["pass", "pass"]
        assert kept < 10 * 2**20
        build_partition.cache_clear()

    def test_under_resolved_grid_is_inconclusive(self, tmp_path):
        # too few dyadic levels for a slope fit: refuse to certify
        rc = main(["verify", "--suite", "bernstein", "--n", "16", "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_unknown_suite_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", "--suite", "nope", "--out", str(tmp_path / "o")]) == 2
        assert "--suite must be one of" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_suite_is_usage_error(self):
        assert main(["verify"]) == 2

    def test_reports_are_byte_reproducible(self, tmp_path):
        argv = ["verify", "--suite", "partition", "--n", "16", "--seed", "3"]
        main(argv + ["--out", str(tmp_path / "a")])
        main(argv + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "verify.json").read_bytes() == (
            tmp_path / "b" / "verify.json"
        ).read_bytes()


class TestConfigFile:
    def test_config_fills_unset_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# resolution\nn = 16\nsuite = partition\n")
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_report(out / "verify.json")["n"] == 16

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 16\n")
        out = tmp_path / "o"
        main(["verify", "--suite", "partition", "--n", "32",
              "--config", str(cfg), "--out", str(out)])
        assert read_report(out / "verify.json")["n"] == 32

    @pytest.mark.parametrize("text", ["stpes = 8\n", '{"steps": 8, "func": 1}'])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--n", "16", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown --config key" in err
        assert ("stpes" if "stpes" in text else "func") in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, '{"n": 16,}', "[16]"], ids=["missing", "bad JSON", "JSON list"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "partition", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_json_config_accepted(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "partition", "n": 16}))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0

    def test_null_value_leaves_option_unset(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "partition", "n": 16, "seed": None}))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_report(out / "verify.json")["seed"] == 0


class TestSolve:
    def test_artifacts_and_exit_code(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["solve", "--n", "16", "--dt", "0.0025", "--t-end", "0.01",
                   "--out", str(out)])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"final_state.field", "final_state.csv", "norms.csv", "solve.json"}
        state = read_field(out / "final_state.field")
        assert state.grid.points_per_axis == 16
        # manifest line, header, then one row per stored node
        assert len((out / "norms.csv").read_text().splitlines()) == 2 + 5
        assert read_report(out / "solve.json")["steps"] == 4

    @pytest.mark.parametrize("equation", ["lans", "mlans"])
    def test_rows_are_the_norms_of_the_nodes(self, equation):
        # each row is read from the node's stored half cube; the lattice
        # norms of the completed node are the oracle, the energy pair
        # composed from l2_norm and the homogeneous H^1 sobolev_norm
        cfg = _solve_config(16, 0.1, 1.0, 0.0025, 0.01)
        traj, rows = _solve_once(equation, cfg, 0.0025, 0.01, 3, 0.01)
        part, idx = build_partition(cfg.grid), BesovIndex(1.5, 2.0, 2.0)
        assert len(rows) == len(traj) == 5
        for (t, l2, besov, pair), node, time in zip(rows, traj, traj.times):
            assert t == time
            assert l2 == pytest.approx(l2_norm(node), rel=1e-14)
            assert besov == part.besov_norm(node, idx)
            assert pair == pytest.approx(l2_norm(node) ** 2 + cfg.alpha**2 * sobolev_norm(node, 1.0) ** 2,
                                         rel=1e-14)

    def test_rows_complete_no_node(self, monkeypatch):
        # the rows read the stored half cubes; completing a node is the lattice path
        def complete(traj, i):
            raise AssertionError("a node was completed to the lattice")

        monkeypatch.setattr(Trajectory, "__getitem__", complete)
        cfg = _solve_config(16, 0.1, 1.0, 0.0025, 0.01)
        traj, rows = _solve_once("mlans", cfg, 0.0025, 0.01, 3, 0.01)
        assert len(rows) == len(traj) == 5
        with pytest.raises(AssertionError, match="completed"):
            traj.final

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_returns_failure(self, tmp_path, capsys):
        rc = main(["solve", "--n", "16", "--nu", "1e-6", "--data-norm", "1e6",
                   "--dt", "0.25", "--t-end", "1.0", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "solver aborted" in capsys.readouterr().err


class TestSweep:
    def test_grid_fanout(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["sweep", "--alpha", "0.1,0.2", "--n", "16", "--dt", "0.005",
                   "--t-end", "0.01", "--out", str(out)])
        assert rc == 0
        cells = read_report(out / "sweep.json")["cells"]
        assert [c["alpha"] for c in cells] == [0.1, 0.2]
        assert all(c["status"] == "ok" for c in cells)

    def test_bad_cell_is_isolated(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["sweep", "--alpha", "0.1", "--n", "16,12", "--dt", "0.005",
                   "--t-end", "0.01", "--out", str(out)])
        assert rc == 1
        cells = read_report(out / "sweep.json")["cells"]
        assert [c["status"] for c in cells] == ["ok", "failed"]
        assert "ValueError" in cells[1]["error"]

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        rc = main(["sweep", "--alpha", "", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "empty sweep grid" in capsys.readouterr().err

    def test_dt_sweep_builds_convergence_table(self, tmp_path):
        out = tmp_path / "o"
        main(["sweep", "--alpha", "0.1", "--n", "16", "--dt", "0.005,0.0025",
              "--t-end", "0.01", "--out", str(out)])
        conv = read_report(out / "sweep.json")["convergence"]
        assert len(conv) == 1
        assert conv[0]["dt"] == 0.005
        assert 0.0 < conv[0]["error_vs_finest"] < 1e-9


class TestPipeline:
    def test_pass_run_emits_trace(self, tmp_path):
        out = tmp_path / "o"
        assert main(["pipeline", "--n", "16", "--out", str(out)]) == 0
        doc = read_report(out / "pipeline.json")
        assert doc["status"] == "pass"
        assert (out / "discrepancy.csv").exists()

    def test_oversized_data_aborts(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["pipeline", "--n", "16", "--data-scale", "1.0", "--out", str(out)])
        assert rc == 1
        doc = read_report(out / "pipeline.json")
        assert doc["status"] == "aborted"
        assert doc["reason"].startswith("split:")

    def test_contraction_gate_abort(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["pipeline", "--n", "16", "--steps", "8", "--data-scale", "400", "--epsilon", "1e4",
                   "--out", str(out)])
        assert rc == 1
        doc = read_report(out / "pipeline.json")
        assert doc["status"] == "aborted"
        assert doc["reason"].startswith("contraction gate:")
        assert not (out / "discrepancy.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solver_blowup_aborts(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["pipeline", "--n", "16", "--steps", "8", "--data-scale", "1e5", "--epsilon", "1e9",
                   "--out", str(out)])
        assert rc == 1
        doc = read_report(out / "pipeline.json")
        assert doc["status"] == "aborted"
        assert doc["reason"].startswith("solver: non-finite state at step")
        assert "pipeline status: aborted (solver:" in capsys.readouterr().out

    def test_alpha_zero_is_rejected_before_the_run(self, tmp_path, capsys, monkeypatch):
        # the energy envelope needs alpha > 0: a usage error, not a traceback after the whole run
        def run(pcfg):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(cli, "run_pipeline", run)
        out = tmp_path / "o"
        assert main(["pipeline", "--n", "16", "--steps", "8", "--alpha", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["pipeline: alpha must be finite and > 0, got 0.0"]
        assert not out.exists()

    def test_flags_types_and_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["pipeline", "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert re.findall(r"\[(--[a-z-]+)", usage) == [
            "--n", "--alpha", "--nu", "--p", "--p-tilde", "--q", "--epsilon",
            "--t-end", "--steps", "--seed", "--data-scale", "--out", "--config"]
        args = build_parser().parse_args(["pipeline", "--steps", "8", "--p", "6"])
        assert args.steps == 8 and type(args.steps) is int
        assert args.p == 6.0 and type(args.p) is float
        assert args.defaults == {
            "n": 32, "alpha": 0.1, "nu": 1.0, "p": 6.0, "p_tilde": 30.0, "q": 2.0,
            "epsilon": 1e-3, "t_end": 0.05, "steps": 32, "seed": 0, "data_scale": 0.01,
            "out": "lanslab-out"}


def exit_code(argv) -> int:
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


BAD_VALUES = [
    ["solve", "--n", "12"],
    ["solve", "--dt", "0"],
    ["solve", "--alpha", "-1"],
    ["solve", "--n", "8"],
    ["solve", "--n", "8", "--equation", "mlans"],
    ["pipeline", "--steps", "30"],
    ["pipeline", "--p", "2"],
    ["pipeline", "--epsilon", "0"],
    ["pipeline", "--p-tilde", "5"],
    ["pipeline", "--q", "0"],
    ["pipeline", "--n", "8"],
    ["sweep", "--alpha", "abc"],
    ["sweep", "--n", "16.5"],
    ["verify", "--suite", "all", "--n", "12"],
    # numpy rejects a negative seed only once a command is running
    ["solve", "--seed", "-1"],
    ["pipeline", "--seed", "-1"],
    ["verify", "--suite", "all", "--seed", "-1"],
    ["sweep", "--seed", "-1"],
    # NaN fails every x < 0 or x <= 0 comparison
    ["solve", "--alpha", "nan"],
    ["solve", "--nu", "nan"],
    ["solve", "--data-norm", "nan"],
    ["solve", "--t-end", "inf"],
    # t_end / dt overflows the step count
    ["solve", "--n", "16", "--t-end", "1e308", "--dt", "1e-10"],
    ["solve", "--n", "16", "--dt", "5e-324"],
    ["pipeline", "--alpha", "nan"],
    ["pipeline", "--alpha", "0"],
    # alpha^-2 of the energy envelope overflows a double
    ["pipeline", "--n", "16", "--steps", "8", "--alpha", "1e-200"],
    # alpha^2, or alpha^2 max|k|^2 of the stress multiplier, overflows a double
    ["solve", "--n", "16", "--alpha", "1e160", "--t-end", "0.0025"],
    ["solve", "--n", "16", "--alpha", "1.3e154", "--t-end", "0.0025"],
    ["pipeline", "--n", "16", "--steps", "8", "--alpha", "1e160"],
    ["pipeline", "--epsilon", "nan"],
    ["pipeline", "--q", "nan"],
    ["pipeline", "--data-scale", "nan"],
    ["sweep", "--t-end", "0"],
    ["sweep", "--data-norm", "nan"],
]

BAD_CONFIGS = [(command, text, "--n") for command in ("solve", "pipeline", "verify")
               for text in ("n = 16.0\n", '{"n": "abc"}')] + [("solve", "equation = euler\n", "--equation")]


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_VALUES, ids=" ".join)
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert exit_code([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(argv[0] + ": ")
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize("command, text, flag", BAD_CONFIGS)
    def test_config_value_is_parsed_like_its_flag(self, tmp_path, capsys, command, text, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert exit_code([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"argument {flag}: invalid" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "solve", "pipeline", "sweep"])
    def test_config_seed_meets_the_flags_check(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        out = tmp_path / "o"
        assert exit_code([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"{command}: --seed must be >= 0, got -1"]
        assert not out.exists()

    def test_sweep_config_list_is_usage_error(self, tmp_path, capsys):
        # sweep lists are comma-separated strings, not JSON lists
        cfg = tmp_path / "run.json"
        cfg.write_text('{"alpha": [0.1, 0.2]}')
        out = tmp_path / "o"
        assert exit_code(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["sweep: --alpha must be a comma-separated list of floats, got '[0.1, 0.2]'"]
        assert not out.exists()

    def test_coarse_valid_grid_stays_inconclusive(self, tmp_path):
        # 8^3 is a grid, just too coarse for a partition: not a usage error
        assert main(["verify", "--suite", "partition", "--n", "8", "--out", str(tmp_path / "o")]) == 3


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point():
    # `python -m lanslab` runs the same command line from a source checkout
    src = Path(lanslab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "lanslab", "--version"], env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout == f"lanslab-{lanslab.__version__}\n"


def test_cli_imports_only_the_standard_library_and_numpy():
    # every command pays for the imports at start-up, so scipy and friends stay out
    src = Path(lanslab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys; before = set(sys.modules); import lanslab.cli; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "lanslab" in loaded and "numpy" in loaded
    assert sorted(loaded - sys.stdlib_module_names - {"lanslab", "numpy"}) == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(lanslab.__file__).resolve().parents[2] / "pyproject.toml"
    assert lanslab.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]
