"""The n = p = 10 rows of the benchmark's golden criterion-6 sweep.

Runs the nine n = 10 jobs of ``perfbench/golden/sweep-c6/seed-0.csv``
(``spg``, ``subgda`` and ``gda`` on instance seeds 1-3, default config)
through :func:`pfbe.cli.run_single` and compares each CSV row without
``time_s`` to the golden one, which this test only reads. A change that
moves a row fails here without a benchmark run.
"""

from pathlib import Path

import pytest

from pfbe.cli import RunConfig, run_single

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "sweep-c6" / "seed-0.csv"


def _golden_rows() -> dict:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "solver,n,p,c,seed,fval,iter,stat,feas"
    rows = {}
    for line in lines[1:]:
        solver, n, p, c, seed = line.split(",")[:5]
        if (n, p) == ("10", "10"):
            rows[(solver, int(seed))] = line
    return rows


GOLDEN_ROWS = _golden_rows()


def test_golden_file_has_the_nine_jobs():
    assert sorted(GOLDEN_ROWS) == [(s, i) for s in ("gda", "spg", "subgda") for i in (1, 2, 3)]


@pytest.mark.parametrize("solver, seed", sorted(GOLDEN_ROWS))
def test_row_matches_golden(solver, seed):
    row = run_single(RunConfig(solver=solver, n=10, p=10, c=1.0, seed=seed), solver)
    assert row.failure is None
    assert row.csv().rsplit(",", 1)[0] == GOLDEN_ROWS[(solver, seed)]
