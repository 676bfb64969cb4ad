"""Benchmark CLI: config validation, row formatting, run/sweep commands.

Runs use tiny instances so the whole module stays fast; determinism is
asserted by comparing emitted CSV bytes with the timing column removed.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pfbe.cli import (
    CSV_HEADER,
    BenchRow,
    RunConfig,
    main,
    rows_to_csv,
    run_single,
)


def _strip_time(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def _write_config(path, **overrides):
    cfg = {
        "problem": "synthetic",
        "solver": "spg",
        "n": 3,
        "p": 3,
        "c": 1.0,
        "seed": 1,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# configuration


def test_roundtrip_stability():
    for cfg in (
        RunConfig(),
        RunConfig(problem="example1", solver=["spg", "gda"], repeats=2),
        RunConfig(n=5, p=7, c=0.5, seed=99, eta=0.1, alpha=30.0,
                  gda_step_grid=[[1, 1], [3, 2]], output="x.csv"),
    ):
        assert RunConfig.from_dict(json.loads(cfg.emit())) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"problem": "synthetic", "stepsize": 0.1})


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(problem="quadratic")
    with pytest.raises(ValueError):
        RunConfig(solver="lbfgs")
    with pytest.raises(ValueError):
        RunConfig(solver=["spg", "nope"])
    with pytest.raises(ValueError):
        RunConfig(n=0)
    with pytest.raises(ValueError):
        RunConfig(gtol=-1e-7)
    with pytest.raises(ValueError):
        RunConfig(repeats=0)
    with pytest.raises(ValueError):
        RunConfig(gda_step_grid=[[1.0]])


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "override",
    [
        {"seed": -1},
        {"seed": 2**64},
        {"seed": True},
        {"n": 10.5},
        {"max_iter": 2.5},
        {"gda_pilot_iters": True},
        {"c": "abc"},
        {"eta": -1},
        {"alpha": 0},
        {"solver": []},
        # below max(1, 2/(eta*mu)), with eta given and with eta = min(1, 1/(2L))
        {"eta": 0.5, "alpha": 1.5},
        {"alpha": 1.5},
        # steps a1 * 10^-a2 that overflow, are negative, zero or underflow, and no steps
        {"gda_step_grid": [[1, -400]]},
        {"gda_step_grid": [[-1, 1]]},
        {"gda_step_grid": [[0, 1]]},
        {"gda_step_grid": [[1, 400]]},
        {"gda_step_grid": []},
    ],
    ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()),
)
def test_invalid_config_exits_before_any_solve(tmp_path, monkeypatch, capsys, command, override):
    import pfbe.cli as cli_mod

    def no_solve(cfg, solver):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli_mod, "run_single", no_solve)
    monkeypatch.delenv("PFBE_THREADS", raising=False)
    d = tmp_path / "configs"
    d.mkdir()
    _write_config(d / "a.json")  # valid and first in sweep order: it must not run either
    bad = _write_config(d / "b.json", **override)
    out = tmp_path / "out.csv"
    if command == "run":
        rc = main(["run", "--config", str(bad), "--out", str(out)])
    else:
        rc = main(["sweep", "--config-dir", str(d), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert not out.exists()
    assert err.startswith("invalid config: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5"])
def test_invalid_thread_budget_exits_before_any_solve(tmp_path, monkeypatch, capsys, value):
    import pfbe.cli as cli_mod

    def no_solve(cfg, solver):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli_mod, "run_single", no_solve)
    monkeypatch.setenv("PFBE_THREADS", value)
    d = tmp_path / "configs"
    d.mkdir()
    _write_config(d / "a.json")
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--config-dir", str(d), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert not out.exists()
    assert err == f"invalid config: PFBE_THREADS must be a positive integer, got {value!r}\n"


def test_config_solvers_property():
    assert RunConfig(solver="gda").solvers == ("gda",)
    assert RunConfig(solver=["spg", "subgda"]).solvers == ("spg", "subgda")


# ---------------------------------------------------------------------------
# row formatting


def test_csv_header_exact():
    assert CSV_HEADER == "solver,n,p,c,seed,fval,iter,stat,feas,time_s"


def test_row_formatting():
    row = BenchRow(
        solver="spg", n=10, p=10, c=1.0, seed=7,
        fval=-0.4669, iter=93, stat=6.53e-08, feas=2.2e-07, time_s=0.0312,
    )
    assert row.csv() == "spg,10,10,1,7,-4.67e-01,93,6.53e-08,2.20e-07,0.031"
    frac = BenchRow(
        solver="gda", n=1, p=2, c=0.5, seed=1,
        fval=12345.6, iter=10000, stat=1.0, feas=0.0, time_s=1.5,
    )
    assert frac.csv() == "gda,1,2,0.5,1,1.23e+04,10000,1.00e+00,0.00e+00,1.500"


def test_rows_to_csv_has_header_and_newline():
    text = rows_to_csv([])
    assert text == CSV_HEADER + "\n"


# ---------------------------------------------------------------------------
# single runs


def test_run_single_synthetic_pinned():
    cfg = RunConfig(problem="synthetic", n=10, p=10, c=1.0, seed=7)
    row = run_single(cfg, "spg")
    assert row.stat <= 1e-7
    assert row.feas <= 1e-6
    assert row.iter < 10000
    assert row.failure is None


def test_run_single_example_two_point_set():
    cfg = RunConfig(problem="example1", solver="spg", max_iter=20000)
    row = run_single(cfg, "spg")
    assert row.n == 1 and row.p == 1
    assert row.feas <= 1e-6
    # the run lands on one of the two first-order points; the penalized
    # objective there equals the plain objective (the residual vanishes)
    assert min(abs(row.fval - (-50.0)), abs(row.fval - (-0.5))) <= 1e-6


def test_run_single_repeat_determinism():
    cfg = RunConfig(problem="synthetic", n=3, p=3, seed=5)
    a = run_single(cfg, "spg")
    b = run_single(cfg, "spg")
    assert a.csv().rsplit(",", 1)[0] == b.csv().rsplit(",", 1)[0]


# ---------------------------------------------------------------------------
# run command


def test_cmd_run_writes_csv(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "cfg.json", repeats=2)
    out_path = tmp_path / "rows.csv"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out_path)])
    assert rc == 0
    text = out_path.read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # two repeats of one solver
    assert _strip_time(lines[1]) == _strip_time(lines[2])
    table = capsys.readouterr().out
    assert "solver" in table and "spg" in table


def test_cmd_run_output_field_fallback(tmp_path):
    out_path = tmp_path / "fromcfg.csv"
    cfg_path = _write_config(tmp_path / "cfg.json", output=str(out_path))
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 0
    assert out_path.exists()


def test_cmd_run_malformed_json(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{ not json", encoding="utf-8")
    out_path = tmp_path / "never.csv"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out_path)])
    assert rc == 1
    assert not out_path.exists()  # no partial CSV
    assert "invalid config" in capsys.readouterr().err


def test_cmd_run_unknown_key(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "cfg.json")
    data = json.loads(cfg_path.read_text())
    data["mystery"] = 1
    cfg_path.write_text(json.dumps(data))
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_cmd_run_missing_file(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json")])
    assert rc == 1


def test_cmd_run_step_failure_exit_code(tmp_path, monkeypatch, capsys):
    import pfbe.cli as cli_mod

    cfg_path = _write_config(tmp_path / "cfg.json")
    failed = BenchRow(
        solver="spg", n=3, p=3, c=1.0, seed=1,
        fval=0.0, iter=4, stat=1.0, feas=0.0, time_s=0.0,
        failure="StepFailure",
    )
    monkeypatch.setattr(cli_mod, "run_single", lambda cfg, s: failed)
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
    assert rc == 2


# ---------------------------------------------------------------------------
# sweep command


def _sweep_dir(tmp_path):
    d = tmp_path / "configs"
    d.mkdir()
    # written in an order that disagrees with the required sorting
    _write_config(d / "b.json", n=4, p=4, seed=2, solver=["spg", "subgda"])
    _write_config(d / "a.json", n=2, p=2, seed=1)
    _write_config(d / "c.json", n=2, p=2, seed=3, c=0.5)
    return d


def test_cmd_sweep_ordering(tmp_path):
    d = _sweep_dir(tmp_path)
    out = tmp_path / "agg.csv"
    rc = main(["sweep", "--config-dir", str(d), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    keys = []
    for line in lines[1:]:
        cells = line.split(",")
        keys.append((int(cells[1]), int(cells[2]), float(cells[3]), cells[0], int(cells[4])))
    assert keys == sorted(keys)
    assert len(keys) == 4  # three files, one with two solvers


def test_cmd_sweep_empty_dir(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    out = tmp_path / "agg.csv"
    rc = main(["sweep", "--config-dir", str(d), "--out", str(out)])
    assert rc == 0
    assert out.read_text() == CSV_HEADER + "\n"


def test_cmd_sweep_invalid_config_no_partial_output(tmp_path, capsys):
    d = tmp_path / "configs"
    d.mkdir()
    _write_config(d / "ok.json")
    (d / "bad.json").write_text("{", encoding="utf-8")
    out = tmp_path / "agg.csv"
    rc = main(["sweep", "--config-dir", str(d), "--out", str(out)])
    assert rc == 1
    assert not out.exists()


def test_cmd_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    d = _sweep_dir(tmp_path)
    out_serial = tmp_path / "serial.csv"
    out_parallel = tmp_path / "parallel.csv"
    monkeypatch.setenv("PFBE_THREADS", "1")
    assert main(["sweep", "--config-dir", str(d), "--out", str(out_serial)]) == 0
    monkeypatch.setenv("PFBE_THREADS", "3")
    assert main(["sweep", "--config-dir", str(d), "--out", str(out_parallel)]) == 0
    assert _strip_time(out_serial.read_text()) == _strip_time(out_parallel.read_text())


def test_cmd_sweep_not_a_directory(tmp_path):
    rc = main(["sweep", "--config-dir", str(tmp_path / "nope"), "--out",
               str(tmp_path / "o.csv")])
    assert rc == 1


# ---------------------------------------------------------------------------
# packaging


def test_console_script_runs(tmp_path):
    cfg_path = _write_config(tmp_path / "cfg.json", n=2, p=2)
    out_path = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from pfbe.cli import main; sys.exit(main(sys.argv[1:]))",
         "run", "--config", str(cfg_path), "--out", str(out_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out_path.read_text().startswith(CSV_HEADER)
