"""Run the benchmark on two checkouts in alternating pairs and summarize it.

    git clone -q <repository> runs/parent && git -C runs/parent checkout -q <parent commit>
    git clone -q <repository> runs/change
    python runs/change/scripts/bench.py --parent runs/parent --label index --pairs 10 --seed 14001
    python scripts/bench.py --parent . --smoke --pairs 1 --label smoke --out-dir /tmp

The change is the checkout holding this script. Each checkout runs its
own, unchanged ``perfbench/run.py`` in a new process, on every workload
that this checkout's ``BENCHMARK.json`` declares, for its
``run_seconds``. Clone both sides into one directory under names of equal
length, as above: a run starts its worker by absolute path, and the
length of that path alone moves the worker's heap layout, and with it
``peak_rss_mb`` and ``wall_s``. The script warns on stderr when the two
paths differ in length.
Pair i runs both sides with seed ``--seed + i``, the parent first on even
pairs and the change first on odd ones. The summary goes to
``BENCH_<label>.json`` in ``--out-dir`` (default: this checkout): the
machine, both commits, every pair's end-to-end metrics and each side's
failed and attempted operations, and per workload each side's failed
share over all its pairs and, per metric, each side's median and
quartiles and the number of pairs the change won (ties count for neither
side). The exit code is 0 when every run checked its outputs correct, 1
when any failed a check, and 2 when a run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class BenchError(Exception):
    """A benchmark run exited without a result."""


def run_once(checkout: str, workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run of one workload; returns (result, record)."""
    command = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    if smoke:
        command.append("--smoke")
    proc = subprocess.run(command, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    record = next(json.loads(line[len("record "):]) for line in lines if line.startswith("record "))
    return json.loads(lines[-1]), record


def spread(values: list[float]) -> dict:
    """Median and quartiles, with the sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarize(pairs: list[dict], declared: dict) -> dict:
    """Per metric: both sides' spread and how many pairs the change won."""
    metrics = {}
    for name, spec in declared.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = -1 if spec["better"] == "lower" else 1
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return metrics


def failed_share(pairs: list[dict]) -> dict:
    """Each side's failed operations as a share of those it attempted, over all pairs."""
    return {
        side: sum(p["failed"][side] for p in pairs) / sum(p["attempted"][side] for p in pairs)
        for side in ("parent", "change")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass, for a quick check")
    parser.add_argument("--out-dir", default=ROOT, help="where to write the summary (default: this checkout)")
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    if len(sides["parent"]) != len(sides["change"]):
        sys.stderr.write(
            f"warning: the checkouts' paths differ in length ({len(sides['parent'])} and "
            f"{len(sides['change'])} characters), which moves the numbers of one side; "
            "clone both into one directory under names of equal length\n"
        )
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    summary = {
        "label": args.label,
        "settings": {"seconds": seconds, "smoke": args.smoke, "first_seed": args.seed, "pairs": args.pairs},
        "machine": None,
        "commits": {},
        "workloads": {},
    }
    correct = True
    try:
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0], "failed": {}, "attempted": {}}
                for side in order:
                    result, record = run_once(sides[side], workload, seed, seconds, args.smoke)
                    pair[side] = {name: result["metrics"][name]["value"] for name in declared}
                    pair["failed"][side] = result["failed"]
                    pair["attempted"][side] = result["attempted"]
                    correct = correct and result["correct"]
                    summary["commits"][side] = record["machine"]["commit"]
                    machine = {k: v for k, v in record["machine"].items() if k != "commit"}
                    summary["machine"] = summary["machine"] or machine
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}" for name in declared
                ), flush=True)
            summary["workloads"][workload] = {
                "pairs": pairs,
                "failed_share": failed_share(pairs),
                "metrics": summarize(pairs, declared),
            }
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
