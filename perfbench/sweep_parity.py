"""Check that a workload's golden rows are what ``pfbe sweep`` writes.

    python3 perfbench/sweep_parity.py --workload sweep-c6 --seed 0

Writes one ``pfbe`` config per instance of the workload seed (all of the
workload's solvers, config defaults otherwise) under
``.perfbench_out/parity-<workload>-seed<seed>/``, runs ``pfbe sweep`` on
them in this process, drops the ``time_s`` column and compares the text
with ``perfbench/golden/<workload>/seed-<seed>.csv``. Exit code 0 when
they are identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/sweep_parity.py")
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run.prepare_process()
    import harness
    from pfbe import cli

    golden = harness.golden_path(run.BENCH, args.workload, args.seed)
    work = run.OUT / f"parity-{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    for old in work.glob("*.json"):
        old.unlink()
    instances: dict = {}
    for job in harness.workload_jobs(args.workload, args.seed):
        instances.setdefault((job.n, job.p, job.c, job.seed), []).append(job.solver)
    for (n, p, c, seed), names in instances.items():
        cfg = cli.RunConfig(solver=names, n=n, p=p, c=c, seed=seed)
        (work / f"n{n}-p{p}-c{c:g}-s{seed}.json").write_text(cfg.emit(), encoding="utf-8")
    out_csv = work / "sweep.csv"
    code = cli.main(["sweep", "--config-dir", str(work), "--out", str(out_csv)])
    sweep = "".join(
        line.rsplit(",", 1)[0] + "\n"
        for line in out_csv.read_text(encoding="utf-8").splitlines()
    )
    same = golden.is_file() and sweep == golden.read_text(encoding="utf-8")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "sweep_exit": code,
                      "configs": len(instances), "identical": same}))
    return 0 if same and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
