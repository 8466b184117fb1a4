"""Tests of the benchmark itself: smoke runs of every workload, the span
arithmetic, and the output checks that feed the failure count.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from run import SELF_TIME_METRICS, WORKLOAD_NAMES, declared_metrics  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def test_smoke_runs_every_workload_and_passes_its_checks():
    code, lines, err = bench("--smoke", "--seed", "3")
    assert code == 0, err
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] == 2 + 3 + 4 + 3
    for name in WORKLOAD_NAMES:
        for metric, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")):
            entry = final["metrics"][f"{name}/{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0
    records = [json.loads(line[len("record "):]) for line in lines if line.startswith("record ")]
    assert [r["workload"] for r in records] == list(WORKLOAD_NAMES)
    assert all(r["seed"] == 3 and r["machine"]["nproc"] for r in records)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_smoke_reports_every_layer_metric(name):
    code, lines, err = bench("--smoke", "--workload", name, "--trace", "1", "--seed", "1")
    assert code == 0, err
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    assert set(metrics) == set(declared_metrics()["per_layer"])
    # The layers' self times cover nearly all of the timed operations.
    wall, rest = metrics["trace.wall_s"], metrics["trace.unattributed_s"]
    assert 0 <= rest < 0.1 * wall
    assert rest + sum(metrics[k] for k in SELF_TIME_METRICS) == pytest.approx(wall)


def test_seed_orders_operations():
    orders = []
    for seed in (1, 2, 1):
        code, lines, err = bench("--smoke", "--workload", "morphic-spec", "--seed", str(seed))
        assert code == 0, err
        record = next(json.loads(l[len("record "):]) for l in lines if l.startswith("record "))
        orders.append(record["runs"][0]["passes"][0]["order"])
    assert orders[0] == orders[2]
    assert sorted(orders[0]) == sorted(orders[1])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench("--workload", "binary-2048", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_layer_metrics_self_times_scans_and_requests():
    prof = {"sequence": "tm", "n_max": 4}
    trace = [
        span("cli.main", 0.0, 10.0),
        span("theorems.verify", 1.0, 9.0, 0),
        span("complexity.profile.reduced_factor_complexity", 1.0, 5.0, 1, prof),
        span("sequences.prefix", 1.0, 1.5, 2, {"n": 128, "bytes": 1080}),
        span("complexity.index", 1.5, 2.0, 2),
        span("sequences.prefix", 2.5, 3.0, 2, {"n": 256, "bytes": 2104}),
        span("complexity.profile.reduced_factor_complexity", 5.0, 8.0, 1, prof),
        span("sequences.prefix", 5.0, 6.0, 6, {"n": 128, "bytes": 1080}),
        span("words.Word", 8.0, 8.5, 1),
    ]
    m = spans.layer_metrics(trace)
    assert m["cli.s"] == 10.0 and m["cli.emit_s"] == 2.0
    assert m["theorems.verify_s"] == 8.0 and m["theorems.compare_s"] == 0.5
    assert m["complexity.profile_s"] == 7.0 and m["complexity.index_s"] == 0.5
    assert m["complexity.count_s"] == 7.0 - 0.5 - 0.5 - 0.5 - 1.0
    assert m["complexity.scans"] == 3 and m["complexity.scanned_symbols"] == 512
    assert m["complexity.certify_s"] == 5.0 - 2.5
    assert m["complexity.certify_frac"] == 256 / 512
    assert m["theorems.profile_requests"] == 2 and m["theorems.distinct_profile_frac"] == 0.5
    assert m["sequences.max_prefix_symbols"] == 256 and m["sequences.buffer_bytes"] == 2104
    assert m["words.calls"] == 1 and m["words.s"] == 0.5
    total = sum(m[k] for k in SELF_TIME_METRICS)
    assert total == pytest.approx(10.0)


def cli_result(text, code=0):
    return workloads.CliResult(code, text.encode(), "")


def test_checks_reject_wrong_outputs():
    expected = workloads.tm_symbols(12)
    good = "".join(f"{n} {s}\n" for n, s in enumerate(expected, start=1))
    check = workloads.check_bfile_symbols(expected)
    assert check(cli_result(good)) is None
    assert check(cli_result(good.replace("12 1", "12 0"))) is not None
    assert check(cli_result(good.replace("5 1\n", "5 1\n\n"))) is not None
    assert check(cli_result(good, code=1)) is not None

    raw = workloads.check_raw_symbols(workloads.pf_symbols(8))
    assert raw(cli_result("00100110\n")) is None
    assert raw(cli_result("00100111\n")) is not None

    csv = workloads.check_csv_profile("tm red", [2, 4, 4])
    assert csv(cli_result("n,value\n1,2\n2,4\n3,4\n")) is None
    assert csv(cli_result("n,value\n1,2\n2,4\n3,6\n")) is not None

    ranks = workloads.check_kernel_ranks([1, 2, 4])
    assert ranks(cli_result("... ranks by depth = [1, 2, 4]\n")) is None
    assert ranks(cli_result("... ranks by depth = [1, 2, 5]\n")) is not None

    conj = "conj_odd_halving: pass over n=0..16\nconj_mod4_gap: fail over n=1..16 (1 counterexamples)\n"
    assert workloads.check_conjecture_all(cli_result(conj)) is not None

    reports = [{"claim_id": cid, "status": "pass"} for cid in sorted(workloads.NON_CONJECTURE_IDS)]
    assert workloads.check_verify_all(cli_result(json.dumps(reports))) is None
    reports[0]["status"] = "fail"
    assert workloads.check_verify_all(cli_result(json.dumps(reports))) is not None
    assert workloads.check_verify_all(cli_result(json.dumps(reports[1:]))) is not None


def test_independent_references_match_known_prefixes():
    tm = "011010011001011010010110011010011001011001101001011010"
    pf = "0010011000110110001001110011011000100110001101110010011"
    assert "".join(map(str, workloads.tm_symbols(len(tm)))) == tm
    assert "".join(map(str, workloads.pf_symbols(len(pf)))) == pf
    assert np.array_equal(workloads.tm_symbols(1 << 12)[1::2], 1 - workloads.tm_symbols(1 << 11))
