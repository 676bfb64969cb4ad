"""pfbe benchmark driver: one client, jobs run one after another.

    python3 perfbench/run.py --workload sweep-c6 --seed 0 --seconds 30 --trace 0

Run from a checkout: the package is imported from its ``src/``. BLAS is
pinned to one thread in this process and ``PFBE_THREADS`` is cleared.
With ``--trace 0`` it repeats passes over the workload's jobs for about
``--seconds`` (always at least one pass) and reports the end-to-end
metrics; with ``--trace 1`` it runs every job once traced (and the jobs
of one instance seed also untraced) and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying the metrics
``BENCHMARK.json`` lists for that mode. A job fails when it raises,
returns a solver ``failure`` or fails the output check
(``harness.output_problem``). Results, rows, environment and the trace go
to ``.perfbench_out/`` in the checkout. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep-c6", "spg-large")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_process() -> None:
    """Pin BLAS to one thread before numpy loads and import pfbe from the checkout."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PFBE_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; s gives instance seeds 3s+1..3s+3 (default 0: seeds 1-3)")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small instance and short fixed-step budgets (the benchmark's own tests)")
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's rows as the golden rows of the workload seed")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "pfbe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
    }


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "pfbe" / "__init__.py").is_file():
        print(f"perfbench: no pfbe source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    prepare_process()
    import harness
    import pfbe

    if Path(pfbe.__file__).resolve().parent != (SRC / "pfbe").resolve():
        print(f"perfbench: pfbe imported from {pfbe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    jobs = harness.workload_jobs(args.workload, args.seed, smoke=args.smoke)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"instance_seeds={harness.instance_seeds(args.seed)} trace={args.trace} "
          f"jobs_per_pass={len(jobs)}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        metrics, tracer, first, everything = harness.traced(jobs)
        notes = {}
    else:
        metrics, notes, first, everything = harness.end_to_end(jobs, args.seconds, args.smoke)

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if notes.get(name) else ""
        shown = value if isinstance(value, int) else (
            f"{value:.6g}" if math.isfinite(value) else "n/a")
        print(f"metric {name} {shown} {unit}{note}")

    rows = [r.row for r in first if r.row is not None]
    print(f"rows_sha256 {harness.rows_sha256(rows)}")
    golden = harness.golden_path(BENCH, args.workload, args.seed)
    changed = None
    if args.write_golden and not args.smoke:
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(harness.rows_text(rows), encoding="utf-8")
        print(f"golden written: {golden.relative_to(ROOT)}")
    if golden.is_file() and not args.smoke:
        changed = harness.rows_changed(rows, golden.read_text(encoding="utf-8"))
        print(f"rows_changed {changed} of {len(jobs)} (golden {golden.relative_to(ROOT)})")
    else:
        print(f"rows_changed n/a (no golden rows for seed {args.seed})")
    problems = [(r.job, r.problem) for r in everything if r.problem is not None]
    for job, problem in problems:
        print(f"failed {job.solver} n={job.n} c={job.c:g} seed={job.seed}: {problem}")

    out = {}
    for name in listed:
        value, unit = metrics.get(name, (None, "missing"))
        out[name] = {"value": _finite(value), "unit": unit}
    correct = not problems and all(v["value"] is not None for v in out.values())

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = {
        "args": vars(args), "env": env, "correct": correct,
        "attempted": len(everything), "failed": len(problems), "rows_changed": changed,
        "rows": harness.rows_text(rows),
        "job_times": [[r.job.solver, r.job.n, r.job.c, r.job.seed, r.setup_s, r.solve_s]
                      for r in everything],
        "metrics": {k: {"value": _finite(v), "unit": u, "note": notes.get(k)}
                    for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": len(everything),
                      "failed": len(problems), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
