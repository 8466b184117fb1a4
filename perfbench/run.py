"""Run the reduxwords benchmark and check every output.

    python3 perfbench/run.py --workload binary-2048 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one after another
    python3 perfbench/run.py --smoke           # every workload at tiny sizes

Each workload run happens in fresh worker processes (worker.py), started one
after another from this process, so memory and set-up are measured per run.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass wall
time of the timed operations), ``setup_s`` (median over SETUP_SAMPLES fresh
processes of the time from process start until reduxwords is imported and
the sequences are resolved) and ``peak_rss_mb``. ``--trace 1`` runs one
untraced pass and one traced pass, each in its own process, and reports the
per-layer metrics from the traced pass's spans plus the tracing overhead.

Metric lines and one JSON record of the run (seed, machine, per-operation
times, failures) are printed first; the last line of stdout is the JSON
result. The exit code is 0 when every output passed its check, 1 when any
failed, and 2 when a run could not complete, in which case no result is
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("binary-2048", "claims-512", "morphic-spec", "long-prefix")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 175

# Self-time metrics whose sum, with trace.unattributed_s, is trace.wall_s.
SELF_TIME_METRICS = ("sequences.self_s", "complexity.self_s", "theorems.self_s", "words.s", "cli.emit_s")


class RunError(Exception):
    """A worker process failed or overran, so the run has no result."""


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left for another worker process")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *worker_args, "--t0", repr(t0)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {worker_args} overran the {RUN_LIMIT_S} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {worker_args} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
    }


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Run one workload; return (result, record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common += ["--smoke", "--one-pass"]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}.json")
        one_pass = common if smoke else common + ["--one-pass"]
        base = spawn(one_pass, deadline)
        traced = spawn(one_pass + ["--trace-out", spans_path], deadline)
        runs = [base, traced]
        metrics = traced_metrics(spans_path, base, traced)
        setups = []
    else:
        setups = [] if smoke else [
            spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
        ]
        main_run = spawn(common, deadline)
        runs = [main_run]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in main_run["passes"]),
            "setup_s": statistics.median(setups + [main_run["setup_s"]]),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "machine": dict(machine(), numpy=runs[0]["numpy"]),
        "failed_frac": failed / attempted,
        "runs": [{k: r[k] for k in ("setup_s", "passes", "peak_rss_mb", "failures")} for r in runs],
        "setup_samples": setups + [runs[-1]["setup_s"]],
    }
    return result, record


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for "end_to_end" and "per_layer", as BENCHMARK.json declares them."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {group: {m["name"]: m["unit"] for m in bench[group]} for group in ("end_to_end", "per_layer")}


def traced_metrics(spans_path: str, base: dict, traced: dict) -> dict:
    import spans

    with open(spans_path, encoding="utf-8") as fh:
        metrics = spans.layer_metrics(json.load(fh))
    (traced_pass,), (base_pass,) = traced["passes"], base["passes"]
    metrics["cli.output_bytes"] = traced_pass["output_bytes"]
    metrics["trace.wall_s"] = traced_pass["wall_s"]
    metrics["trace.untraced_wall_s"] = base_pass["wall_s"]
    metrics["trace.overhead_s"] = traced_pass["wall_s"] - base_pass["wall_s"]
    metrics["trace.unattributed_s"] = traced_pass["wall_s"] - sum(metrics[k] for k in SELF_TIME_METRICS)
    return metrics


def print_result(name: str, result: dict, record: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:14s} {metric:30s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{name:14s} {'failed_frac':30s} {record['failed_frac']:>16.6g} fraction")
    for run in record["runs"]:
        for failure in run["failures"]:
            print(f"{name:14s} FAILED {failure}")
    print("record " + json.dumps(record))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass, for the benchmark's tests")
    args = parser.parse_args()

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except RunError as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 2
        print_result(name, result, record)
        results[name] = result
        sys.stdout.flush()

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
