"""The ellcover benchmark: CLI wall time per workload, and a traced per-layer split.

    python3 perfbench/run.py --workload verify_small --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

`--trace 0` is one closed-loop client: it runs the workload's `ellcover`
commands one at a time as CLI subprocesses, each between two runs of a fixed
reference program, for `round(seconds / PASS_S)` passes over the list,
checks every output, and reports the end-to-end metrics.  `--trace 1` runs
the same commands in-process in three child interpreters (untraced, traced,
verify at `--jobs 2`) and reports the per-layer metrics.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  Full results, with
the machine facts and the sha256 of every verify report, go to
`perfbench/out/`.  See NOTES.md for why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: the metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

COMMAND_TIMEOUT_S = 170

#: BLAS helper threads only spin on a small box: the linear algebra here is
#: at most (d+1) x (d+1), and the spinning made timings jitter by ~20%.
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: The reference program: interpreter start, a numpy import and a pure-Python
#: loop, the kinds of work an `ellcover` command does, and no code of the
#: package.  Its wall time tracks the speed this host gives the benchmark,
#: which on a shared 2-core VM drifts by +-20% over tens of seconds.
REFERENCE = "import fractions, numpy\ns = 0\nfor i in range(300000):\n    s += i * i % 7\n"
#: A command's time is reported as if the reference took exactly this long.
REFERENCE_S = 0.2
#: Wall time of one pass (its commands and references) on a 2-core Xeon at
#: the seed.  A run makes `round(seconds / PASS_S)` passes, so `attempted`
#: and `failed` depend only on the workload, the seed and `--seconds`.
PASS_S = {"verify_small": 24.0, "verify_large": 18.0, "exact": 40.0}

IMPORT_PROBE = "import time; t = time.perf_counter(); import ellcover.cli; print(time.perf_counter() - t)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(SINGLE_THREADED_BLAS)
    env.pop("GALOIS_EMBED_SEED", None)
    return env


def _timed_process(argv: list[str], work: Path, stdout, stderr) -> tuple[float, int, object]:
    """Run argv to its end: wall time, exit code and resource usage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=work, env=child_env())
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage


def reference_time(work: Path) -> float:
    """Wall time of one run of the fixed reference program."""
    wall, rc, _ = _timed_process(
        [sys.executable, "-c", REFERENCE], work, subprocess.DEVNULL, subprocess.DEVNULL
    )
    if rc != 0:
        raise RuntimeError(f"the reference program exited with {rc}")
    return wall


def run_cli(cmd: dict, work: Path) -> dict:
    """One `ellcover` command as a subprocess: wall time, peak RSS, checked output."""
    argv = [sys.executable, "-m", "ellcover.cli", cmd["kind"], *cmd["argv"]]
    report = work / "report.json"
    if cmd["kind"] == "verify":
        argv += ["--output", str(report)]
        report.unlink(missing_ok=True)
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        wall, rc, usage = _timed_process(argv, work, out, err)
    outcome = workloads.check(
        cmd,
        rc,
        out_path.read_text(),
        err_path.read_text(),
        report.read_bytes() if report.exists() else None,
    )
    return {
        "label": cmd["label"],
        "kind": cmd["kind"],
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        **outcome,
    }


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes for a run of about `seconds`, fixed by the arguments alone."""
    return max(1, round(seconds / PASS_S[workload]))


def untraced_run(commands: list[dict], passes: int, work: Path) -> dict:
    """Closed loop over the command list; end-to-end metrics from the CLI runs.

    Every command runs between two runs of the reference program, and its
    time is `wall / mean(reference before, reference after) * REFERENCE_S`.
    A time metric is the median, over the commands of its kind, of each
    command's median over the passes, so every command weighs the same.
    """
    records = []
    reference = [reference_time(work)]
    for index_pass in range(passes):
        for index, cmd in enumerate(commands):
            record = run_cli(cmd, work)
            reference.append(reference_time(work))
            ref = (reference[-2] + reference[-1]) / 2
            records.append(
                {"index": index, "pass": index_pass, "ref_s": ref,
                 "time_s": record["wall_s"] / ref * REFERENCE_S, **record}
            )

    def per_command(kind, key):
        return [
            statistics.median(r[key] for r in records if r["index"] == index)
            for index, cmd in enumerate(commands)
            if cmd["kind"] == kind
        ]

    def batch(key):
        return statistics.median(
            sum(r[key] for r in records if r["pass"] == p) for p in range(passes)
        )

    failed = sum(r["status"] != "ok" for r in records)
    samples = sum(r["samples"] for r in records)
    generic = sum(r["generic"] for r in records)
    metrics = {
        "setup_s": statistics.median(per_command("construct", "time_s")),
        "verify_s": statistics.median(per_command("verify", "time_s")),
        "intersection_s": statistics.median(per_command("intersection", "time_s")),
        "batch_s": batch("time_s"),
        "pass_frac": 1 - failed / len(records),
        "generic_frac": generic / samples,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    extra = {
        "passes": passes,
        "fail_frac": failed / len(records),
        "nongeneric_frac": (samples - generic) / samples,
        "samples": samples,
        "reference_median_s": statistics.median(reference),
        "wall_setup_s": statistics.median(per_command("construct", "wall_s")),
        "wall_verify_s": statistics.median(per_command("verify", "wall_s")),
        "wall_intersection_s": statistics.median(per_command("intersection", "wall_s")),
        "wall_batch_s": batch("wall_s"),
    }
    return {"metrics": metrics, "extra": extra, "records": records}


def _child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "inproc.py"), *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=COMMAND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"inproc.py {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_time() -> float:
    """Median over three fresh interpreters of the time to import ellcover.cli."""
    times = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, text=True, env=child_env(), timeout=COMMAND_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def traced_run(workload: str, seed: int, tiny: bool, work: Path) -> dict:
    """Per-layer metrics from in-process children: untraced, traced, jobs=2."""
    base = ["--workload", workload, "--seed", str(seed), "--out", str(work)]
    if tiny:
        base.append("--tiny")
    jobs = min(2, os.cpu_count() or 1)
    plain = _child(base + ["--mode", "plain"])
    traced = _child(base + ["--mode", "traced"])
    jobs2 = _child(base + ["--mode", "jobs2", "--jobs", str(jobs)])

    layers = traced["layers"]
    metrics = {name: layers.get(name, 0) for name in PER_LAYER}
    metrics["cli.import_s"] = import_time()
    metrics["covers.jobs2_speedup"] = plain["galois_verify_s"] / jobs2["galois_verify_s"]
    metrics["trace.overhead_frac"] = traced["total_s"] / plain["total_s"] - 1

    # Tracing and the thread pool must not change a single byte of a report.
    plain_sha = {r["label"]: r["sha256"] for r in plain["records"]}
    mismatched = [
        r["label"]
        for r in traced["records"] + jobs2["records"]
        if r["sha256"] != plain_sha[r["label"]]
    ]
    records = traced["records"]
    for r in records:
        if r["label"] in mismatched:
            r["status"], r["detail"] = "wrong", "report differs from the untraced run"
    extra = {
        "jobs": jobs,
        "plain_total_s": plain["total_s"],
        "traced_total_s": traced["total_s"],
        "galois_verify_jobs1_s": plain["galois_verify_s"],
        "galois_verify_jobs2_s": jobs2["galois_verify_s"],
        "spans_file": traced["spans_file"],
    }
    return {"metrics": metrics, "extra": extra, "records": records}


def _git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts() -> dict:
    import numpy
    import sympy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "git_sha": _git_sha(),
    }


def tally(records: list[dict]) -> dict:
    """`correct` holds only if every exact check ran and held.

    An honest non-PASS verdict is a failed command but not an incorrect
    one; a wrong exact value, a crash, a missing or malformed report, or an
    exit code that disagrees with the verdict makes the run incorrect.
    """
    return {
        "correct": all(r["status"] in ("ok", "verdict") for r in records),
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-tiny" if tiny else "")
    work = HERE / "out" / tag
    work.mkdir(parents=True, exist_ok=True)
    commands = workloads.generate(workload, seed, tiny=tiny)
    if trace:
        result = traced_run(workload, seed, tiny, work)
        units = PER_LAYER
    else:
        result = untraced_run(commands, pass_count(workload, seconds), work)
        units = END_TO_END
    records = result["records"]
    summary = {
        **tally(records),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    for r in records:
        if r["status"] != "ok":
            print(f"{r['status'].upper()}: {r['label']}: {r['detail']}")
    for name, entry in summary["metrics"].items():
        value = entry["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload} {name} = {shown} {entry['unit']}")
    for name, value in result["extra"].items():
        print(f"{workload} {name} = {value}")
    machine = machine_facts()
    print(f"{workload} machine = {json.dumps(machine)}")
    full = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "machine": machine,
        "configs": commands,
        **summary,
        "extra": result["extra"],
        "records": records,
    }
    (HERE / "out" / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced CLI run, 1: traced run; default both")
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "ellcover" / "cli.py").is_file():
        print(f"error: no ellcover sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.trace is None else (bool(args.trace),)
    results = {}
    for name in names:
        for trace in traces:
            results[f"{name}/trace{int(trace)}"] = run_one(
                name, args.seed, args.seconds, trace, args.tiny
            )
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
