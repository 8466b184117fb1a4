#!/usr/bin/env python3
"""Run every registered theorem and lemma check and summarize the outcomes.

Exits 0 when everything passes (declared small-case exceptions count as
passes), 1 when any claim reports counterexamples, 2 when a claim cannot
be run (the message names the claim).
"""

import argparse
import sys
import time

from reduxwords import CLAIMS, ReduxwordsError, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n-max", type=int, default=512,
        help="range passed to every claim (default 512); the exhaustive "
        "mu_alternation check stops at 14",
    )
    args = parser.parse_args()

    failures = 0
    profiles: dict = {}
    for claim_id, claim in sorted(CLAIMS.items()):
        if claim.kind == "conjecture":
            continue
        t0 = time.perf_counter()
        try:
            report = verify(claim_id, args.n_max, profiles=profiles)
        except ReduxwordsError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        elapsed = time.perf_counter() - t0
        marker = "ok " if report.ok else "FAIL"
        line = (
            f"{marker} {claim_id:16s} [{claim.kind:7s}] n={report.n_lo}..{report.n_hi} "
            f"{report.status:22s} {elapsed:6.2f}s"
        )
        if report.declared_exceptions:
            line += f"  exceptions={report.declared_exceptions}"
        if report.counterexamples:
            line += f"  first={report.counterexamples[0]}"
            failures += 1
        print(line)
    print("all claims pass" if failures == 0 else f"{failures} claims FAILED")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
