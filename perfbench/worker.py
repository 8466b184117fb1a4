"""One run of one workload, in a fresh process; started by run.py.

The process imports reduxwords from the checkout's ``src``, resolves the
workload's sequences, and reports ``setup_s``: the time from ``--t0`` (the
parent's monotonic clock just before it started this process) to that
point. Then it runs passes of the workload's operations in a closed loop,
one operation at a time with no threads, in an order shuffled by ``--seed``.
It starts another pass only if the longest pass so far still fits in
``--seconds``, so one run lasts about ``--seconds`` or one pass, whichever
is longer. Each operation is timed alone and its output checked after the
clock stops.

The last line of stdout is one JSON record of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def run_passes(ops, seed: int, seconds: float, one_pass: bool) -> tuple[list[dict], list[str]]:
    rng = random.Random(seed)
    passes, failures = [], []
    started = time.perf_counter()
    while True:
        order = rng.sample(ops, len(ops))
        op_s, output_bytes = {}, 0
        for op in order:
            t = time.perf_counter()
            try:
                output = op.run()
            except Exception:
                op_s[op.name] = time.perf_counter() - t
                failures.append(f"{op.name}: raised\n{traceback.format_exc()}")
                continue
            op_s[op.name] = time.perf_counter() - t
            output_bytes += len(getattr(output, "stdout", b""))
            try:
                problem = op.check(output)
            except Exception:
                problem = f"check raised\n{traceback.format_exc()}"
            if problem is not None:
                failures.append(f"{op.name}: {problem}")
            del output
        passes.append({
            "order": [op.name for op in order],
            "op_s": op_s,
            "wall_s": sum(op_s.values()),
            "output_bytes": output_bytes,
        })
        longest = max(p["wall_s"] for p in passes)
        if one_pass or time.perf_counter() - started + longest > seconds:
            return passes, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--one-pass", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None, help="record spans and write them here")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "reduxwords")):
        sys.stderr.write(f"error: no reduxwords package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if not os.path.abspath(workloads.rw.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: reduxwords imported from {workloads.rw.__file__}, not {SRC}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    for token in workload.sequences:
        workloads.resolve_sequence(token)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = workload.build(args.smoke)
    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    passes, failures = run_passes(ops, args.seed, args.seconds, args.one_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write(args.trace_out)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "setup_s": setup_s,
        "passes": passes,
        "attempted": len(ops) * len(passes),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": workloads.np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
