"""The benchmark's own smoke tests.

    python3 -m pytest -q perfbench/test_perfbench.py

Each test uses the ``--smoke`` jobs (one small instance per workload,
short fixed-step budgets), so the file runs in well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
import pfbe.problems  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
HUMAN_ONLY = {
    "sweep-c6": ("spg_s", "subgda_s", "gda_s", "failed_frac", "converged_frac"),
    "spg-large": ("spg_s", "failed_frac", "converged_frac"),
}


@pytest.fixture(autouse=True)
def _restore_env(monkeypatch):
    # run.main pins BLAS threads and clears PFBE_THREADS in this process
    for var in run.BLAS_THREAD_VARS + ("PFBE_THREADS",):
        monkeypatch.delenv(var, raising=False)


def _run(capsys, *argv):
    code = run.main(list(argv))
    out = capsys.readouterr().out.splitlines()
    return code, out, json.loads(out[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_minimal_pass_prints_every_metric(capsys, workload, trace):
    code, lines, result = _run(capsys, "--workload", workload, "--trace", str(trace), "--smoke")
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} ") and f" {m['unit']}" in line for line in lines)
    if not trace:
        for name in HUMAN_ONLY[workload]:
            assert any(line.startswith(f"metric {name} ") for line in lines), name


def test_tampered_golden_row_is_counted():
    rows = [harness.run_job(job).row for job in harness.workload_jobs("sweep-c6", 0, smoke=True)]
    golden = harness.rows_text(rows)
    assert harness.rows_changed(rows, golden) == 0
    lines = golden.splitlines()
    fields = lines[1].split(",")
    fields[6] = str(int(fields[6]) + 1)  # iter
    tampered = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    assert harness.rows_changed(rows, tampered) == 1
    assert harness.rows_changed(rows, "\n".join(lines[:-1]) + "\n") == 1


def test_raising_oracle_counts_as_failed(capsys, monkeypatch):
    make = pfbe.problems.make_synthetic

    def boom(x, y):
        raise RuntimeError("oracle made to raise")

    def broken(*args, **kwargs):
        inst = make(*args, **kwargs)
        prob = inst.lifted.problem
        lifted = replace(inst.lifted, problem=replace(prob, f=replace(prob.f, grad_x=boom)))
        return replace(inst, lifted=lifted)

    monkeypatch.setattr(pfbe.problems, "make_synthetic", broken)
    code, lines, result = _run(capsys, "--workload", "sweep-c6", "--smoke")
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3
    assert any(line.startswith("metric failed_frac 1 ") for line in lines)
    assert sum(line.startswith("failed ") and "RuntimeError" in line for line in lines) == 3


def test_raising_setup_counts_as_failed(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("generation made to raise")

    monkeypatch.setattr(pfbe.problems, "make_synthetic", broken)
    code, lines, result = _run(capsys, "--workload", "spg-large", "--smoke")
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert any(line.startswith("failed ") and "setup raised" in line for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    jobs = harness.workload_jobs(workload, 0, smoke=True)

    def counts():
        metrics = harness.traced(jobs)[0]
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    first, second = counts(), counts()
    assert first == second
    assert first["solvers.spg.iters"] > 0 and first["solvers.spg.ls_trials"] > 0
    assert first["lagrangian.oracle.hvp_xy.calls"] > 0


def test_traced_rows_match_untraced():
    jobs = harness.workload_jobs("sweep-c6", 0, smoke=True)
    _, _, traced_results, everything = harness.traced(jobs)
    plain = everything[: len(everything) - len(traced_results)]
    assert [r.job for r in plain] == jobs
    assert harness.rows_text([r.row for r in plain]) == harness.rows_text(
        [r.row for r in traced_results]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spg-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
