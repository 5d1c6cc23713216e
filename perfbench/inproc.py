"""Run a workload's commands in this process through `ellcover.cli.main`.

Started as a child by `run.py` for the traced run, once per mode:

- `plain`: untraced; the baseline for `trace.overhead_frac` and the
  `jobs=1` side of `covers.jobs2_speedup`;
- `traced`: spans around every layer (see tracing.py), written out at the end;
- `jobs2`: untraced, only the verify commands, with `--jobs` set.

Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import ellcover  # noqa: E402
from ellcover import cli  # noqa: E402

import workloads  # noqa: E402


def _timed(fn, totals: dict, key: str):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - start

    return wrapper


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "jobs2"), required=True)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True, help="directory for reports and spans")
    args = parser.parse_args()

    if Path(ellcover.__file__).resolve().parent != SRC / "ellcover":
        print(f"error: ellcover imported from {ellcover.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(cli.SEED_ENV_VAR, None)
    out_dir = Path(args.out)
    report_path = out_dir / f"report-{args.mode}.json"

    commands = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    totals = {"galois_verify_s": 0.0}
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        entry = {k: tracer.span(f"cli.{k}", cli.main) for k in ("construct", "verify", "intersection")}
    else:
        cli.galois_verify = _timed(cli.galois_verify, totals, "galois_verify_s")
        entry = {k: cli.main for k in ("construct", "verify", "intersection")}
    if args.mode == "jobs2":
        commands = [c for c in commands if c["kind"] == "verify"]

    records = []
    start = time.perf_counter()
    for cmd in commands:
        argv = [cmd["kind"], *cmd["argv"]]
        if cmd["kind"] == "verify":
            argv += ["--output", str(report_path)]
            if args.mode == "jobs2":
                argv += ["--jobs", str(args.jobs)]
            report_path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.config = cmd["cfg"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = entry[cmd["kind"]](argv)
            except Exception:  # a raw exception is a result to record, not to stop on
                traceback.print_exc()
                rc = 1
        report = report_path.read_bytes() if report_path.exists() else None
        outcome = workloads.check(cmd, rc, stdout.getvalue(), stderr.getvalue(), report)
        records.append({"label": cmd["label"], "kind": cmd["kind"], **outcome})
    total = time.perf_counter() - start

    result = {"total_s": total, "records": records, **totals}
    if tracer is not None:
        result["layers"] = tracer.summary()
        spans_path = out_dir / "spans.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
