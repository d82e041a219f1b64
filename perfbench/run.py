"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run. A full record (inputs, output digests, versions, every
latency) is written under ``perfbench/_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp() -> dict:
    """Versions, CPUs, thread settings and source revision of this run."""
    import numpy
    import scipy

    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "git_dirty": dirty,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geoprofile" / "cli.py").is_file():
        print(f"error: no library source at {SRC}/geoprofile", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    start = time.perf_counter()
    import geoprofile.cli  # noqa: F401  (numpy and scipy come with it)

    import_s = time.perf_counter() - start
    if not Path(geoprofile.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: geoprofile imported from {geoprofile.cli.__file__}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]

    out_dir = ROOT / "perfbench" / "_out"
    work = ROOT / "perfbench" / "_work" / f"{w.name}-s{args.seed}-p{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    try:
        record = workloads.run(
            w,
            args.seed,
            args.seconds,
            bool(args.trace),
            work,
            spans_path=out_dir / f"{tag}-spans.jsonl.gz" if args.trace else None,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(workload=w.name, why=w.why, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, import_s=import_s, stamp=stamp())
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    facts = record["facts"]
    print(
        f"{w.name} seed={args.seed} offenders={facts['offenders']} "
        f"crimes={facts['crimes']} subtypes={facts['subtypes']} grid={facts['grid']}"
    )
    print(f"output sha256={facts['output_sha256']} calls={record['calls']}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
