"""Run one doccat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sixway --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout: doccat is imported from ``src/``,
never from an installed copy, and the command fails without printing a
result when those sources are missing. The seed generates the corpora (in
a child process, so generation counts in neither set-up time nor peak
memory); the program only reads the generated JSONL files.

With ``--trace 0`` the set-up is repeated and timed, passes of the
workload's operation are timed until ``--seconds`` of CPU time have been
measured, and every output is checked. Times are CPU seconds corrected for
the machine's speed at the moment (``speed.py``). The last stdout line is
one JSON object with the end-to-end metrics listed in ``BENCHMARK.json``;
the lines above it report all metrics by name and unit, corpus statistics
and run metadata.

With ``--trace 1`` the same untraced passes run first, then one traced
set-up, pass and check; the JSON line carries the per-layer metrics and
``trace.overhead_ratio`` (traced pass time / untraced median pass time).
Spans and a record of each run are kept in ``perfbench/.work/runs``.

The exit code is 0 when every check passed, 1 when one failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import secrets
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_ROOT = BENCH_DIR / ".work"

# The end-to-end metrics every workload reports, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("macro_f1", "ratio"),
)


def import_program():
    """Import doccat from this checkout's ``src/``; exit non-zero if it is not there."""
    src = ROOT / "src"
    if not (src / "doccat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no doccat sources under {src}")
    sys.path.insert(0, str(src))
    import doccat

    if Path(doccat.__file__).resolve().parent != (src / "doccat").resolve():
        raise SystemExit(f"perfbench: doccat was imported from {doccat.__file__}, not {src}")
    return doccat


def generate(seed: int, splits: dict[str, int], work: Path) -> dict:
    command = [sys.executable, str(BENCH_DIR / "corpusgen.py"), "--seed", str(seed), "--out", str(work)]
    command += [f"{name}={per_class}" for name, per_class in splits.items()]
    subprocess.run(command, check=True, timeout=170)
    return json.loads((work / "stats.json").read_text(encoding="utf-8"))


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
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
    return "unknown"


def metadata(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one doccat benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import numpy
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        stats = generate(args.seed, workload_cls.splits, work)
        workload = workload_cls(work)
        measured = workloads.measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = metadata(numpy.__version__)
    rows = workloads.all_metrics(workload, measured)
    correct = measured["failed"] == 0
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + " ".join(f"{key}={value}" for key, value in meta.items()))
    for split, split_stats in stats.items():
        print(f"corpus {split} " + " ".join(f"{k}={v:g}" for k, v in split_stats.items()))
    if workload.convergence_warnings:
        print(f"warnings ConvergenceWarning={workload.convergence_warnings}")
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name:<18} {shown:>12} {unit:<5} {note}")

    by_name = {name: value for name, value, _, _ in rows}
    if args.trace:
        tracer = measured["tracer"]
        values, absent = measured["per_layer"]
        for name, unit, _ in tracing.PER_LAYER:
            note = "absent" if name in absent else ""
            print(f"layer {name:<38} {values[name]:>12.6g} {unit:<6} {note}")
        if tracer.missing:
            print("layer missing functions: " + " ".join(tracer.missing))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": by_name[name], "unit": unit} for name, unit in END_TO_END}
    print(f"checks attempted={measured['attempted']} failed={measured['failed']} "
          f"verdict={'PASS' if correct else 'FAIL'}")

    runs = WORK_ROOT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "corpus": stats, "metrics": rows, "result": metrics}
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        measured["tracer"].write_spans(runs / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # Hash order is left random, as users run it, but each run's seed is
    # recorded so a run can be repeated: pick one and restart with it.
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = str(1 + secrets.randbelow(2**32 - 1))
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
