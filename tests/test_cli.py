"""CLI behavior: formats, byte-exact outputs, exit codes, policy flags."""

import ast
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reduxwords as rw
from reduxwords import cli, complexity
from reduxwords.cli import main
from reduxwords.theorems import CLAIMS, Claim, VerificationReport

from conftest import PF_PREFIX_55, RHO_ABRED_F_22, RHO_RED_T_23, TM_PREFIX_54, pointwise_handle
from window_oracle import oracle_counts, oracle_extremes


ROOT = Path(__file__).resolve().parent.parent
# stdout, stderr and exit code of each command, frozen from the CLI; a
# change that alters one of them must regenerate the file and say why
GOLDEN = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_text(got, want, label):
    """Fail at the first character where ``got`` and ``want`` differ.

    pytest's own diff of two megabyte strings takes minutes.
    """
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        near = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"{label} differs at {at}: {got[near]!r} != {want[near]!r}")


class TestGen:
    def test_raw_tm(self, capsys):
        code, out, _ = run(capsys, "gen", "tm", "--count", "54")
        assert code == 0
        assert out == TM_PREFIX_54 + "\n"

    def test_raw_pf(self, capsys):
        code, out, _ = run(capsys, "gen", "pf", "--count", "55")
        assert code == 0
        assert out == PF_PREFIX_55 + "\n"

    def test_start_offset(self, capsys):
        code, out, _ = run(capsys, "gen", "tm", "--start", "3", "--count", "4")
        assert code == 0
        assert out.strip() == TM_PREFIX_54[2:6]

    def test_count_zero_empty_output(self, capsys):
        # no rows: json is still an empty list and csv still has its header
        for fmt, out in (("raw", ""), ("bfile", ""), ("csv", "n,value\n"), ("json", "[]\n")):
            assert run(capsys, "gen", "tm", "--count", "0", "--format", fmt) == (0, out, ""), fmt

    def test_bfile(self, capsys):
        code, out, _ = run(capsys, "gen", "pf", "--count", "3", "--format", "bfile")
        assert code == 0
        assert out == "1 0\n2 0\n3 1\n"

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "gen", "tm", "--count", "2", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert records == [
            {"n": 1, "value": 0, "sequence": "tm", "kind": "symbols"},
            {"n": 2, "value": 1, "sequence": "tm", "kind": "symbols"},
        ]

    def test_bad_start(self, capsys):
        code, _, err = run(capsys, "gen", "tm", "--start", "0", "--count", "3")
        assert code == 2
        assert "start" in err

    def test_negative_count(self, capsys):
        assert run(capsys, "gen", "tm", "--count", "-1") == (2, "", "error: --count must be >= 0, got -1\n")


    # (99_990, 70_000) crosses a change of decimal width (99,999 to 100,000)
    # and the writer's slice boundaries
    @pytest.mark.parametrize("start, count", [(1000, 300), (99_990, 70_000)])
    @pytest.mark.parametrize("seq, rule", [("tm", rw.thue_morse_at), ("pf", rw.paperfolding_at)])
    def test_byte_identical_formats_past_the_start(self, capsys, seq, rule, start, count):
        rows = [(n, rule(n)) for n in range(start, start + count)]
        expected = {
            "raw": "".join(str(value) for _, value in rows) + "\n",
            "bfile": "".join(f"{n} {value}\n" for n, value in rows),
            "csv": "n,value\n" + "".join(f"{n},{value}\n" for n, value in rows),
            "json": json.dumps(
                [{"n": n, "value": value, "sequence": seq, "kind": "symbols"} for n, value in rows],
                indent=2,
            ) + "\n",
        }
        for fmt, text in expected.items():
            code, out, _ = run(capsys, "gen", seq, "--start", str(start), "--count", str(count),
                               "--format", fmt)
            assert code == 0
            assert_same_text(out, text, fmt)

    def test_eleven_letters_raw_is_space_separated(self, capsys, tmp_path):
        path = tmp_path / "eleven.conf"
        path.write_text("kind = morphic\nalphabet_size = 11\nseed = 0\n"
                        "image.0 = 0,10\nimage.10 = 10,3,0\nimage.3 = 3,10\n")
        images = {0: (0, 10), 10: (10, 3, 0), 3: (3, 10)}
        word = [0]
        while len(word) < 200:
            word = [s for sym in word for s in images[sym]]
        code, out, _ = run(capsys, "gen", str(path), "--start", "5", "--count", "150")
        assert code == 0
        assert out == " ".join(str(s) for s in word[4:154]) + "\n"
        ns = range(5, 155)
        expected = {
            "bfile": "".join(f"{n} {word[n - 1]}\n" for n in ns),
            "csv": "n,value\n" + "".join(f"{n},{word[n - 1]}\n" for n in ns),
            "json": json.dumps(
                [{"n": n, "value": word[n - 1], "sequence": "eleven", "kind": "symbols"} for n in ns],
                indent=2,
            ) + "\n",
        }
        for fmt, text in expected.items():
            code, out, _ = run(capsys, "gen", str(path), "--start", "5", "--count", "150",
                               "--format", fmt)
            assert code == 0
            assert out == text

    def test_spec_with_byte_order_mark(self, capsys, tmp_path):
        spec = ROOT / "tests" / "data" / "toeplitz3.spec"
        path = tmp_path / spec.name
        path.write_bytes(b"\xef\xbb\xbf" + spec.read_bytes())
        expected = run(capsys, "gen", str(spec), "--count", "100", "--format", "json")
        assert expected[0] == 0
        assert run(capsys, "gen", str(path), "--count", "100", "--format", "json") == expected

    @pytest.mark.parametrize("argv", [
        ("gen", "bad", "--count", "100"),
        ("complexity", "bad", "red", "--n-max", "4"),
    ])
    @pytest.mark.parametrize("bad", [300, -1, 2])
    def test_rule_leaving_the_alphabet_exit_2(self, capsys, monkeypatch, argv, bad):
        def handle():
            return pointwise_handle(lambda n: bad if n == 70 else n % 2, 2, "bad")

        monkeypatch.setitem(rw.sequences.BUILTIN_SEQUENCES, "bad", handle)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"symbol {bad} at n=70 is outside the alphabet 0..1" in err


def per_row_reference(columns, header, fmt, metadata):
    """The text of one ``str.format`` per csv/bfile row, or of ``json.dumps`` of the json records."""
    fields = header.split(",")
    rows = list(zip(*columns))
    if fmt == "json":
        return json.dumps([dict(zip(fields, row), **metadata) for row in rows], indent=2) + "\n"
    line = ("," if fmt == "csv" else " ").join("{}" for _ in fields) + "\n"
    text = "".join(line.format(*row) for row in rows)
    return header + "\n" + text if fmt == "csv" else text


# values at a change of decimal width
WIDTH_EDGES = (0, 9, 10, 99, 100)


class TestRowWriter:
    @settings(max_examples=30, deadline=None)
    # at least one draw spans several slices in every run
    @example(
        column_count=3, rows=70_000, seed=0, low=0, top=2**40, edges=WIDTH_EDGES, name="\u00e9", window=4096,
    )
    # every value six digits wide: no slice needs a mask of leading zeros
    @example(column_count=2, rows=20_000, seed=1, low=10**5, top=10**6, edges=(), name="", window=0)
    # the widest 9 and 10 digit values, where the digit passes switch from uint32 to int64
    @example(
        column_count=3, rows=300, seed=2, low=0, top=1,
        edges=(999_999_999, 1_000_000_000, 2**32 - 1, 2**32), name="", window=2**32,
    )
    # a column of zeros
    @example(column_count=1, rows=300, seed=3, low=0, top=1, edges=(), name="", window=0)
    @given(
        column_count=st.integers(1, 3),
        rows=st.integers(1, 70_000),
        seed=st.integers(0, 2**32 - 1),
        low=st.just(0),
        top=st.sampled_from([11, 101, 2**20, 2**40, 2**63 - 1]),
        edges=st.just(WIDTH_EDGES),
        name=st.text(max_size=6),
        window=st.integers(0, 2**40),
    )
    def test_matches_per_row_reference(self, column_count, rows, seed, low, top, edges, name, window):
        rng = np.random.default_rng(seed)
        values = rng.integers(low, top, size=(column_count, rows), dtype=np.int64)
        if edges:
            # about a third of the values are drawn from ``edges``
            at = rng.random(size=values.shape) < 0.3
            values[at] = rng.choice(edges, size=int(at.sum()))
        # int64 columns, as a profile's values are
        columns = list(values)
        reference = [column.tolist() for column in values]
        header = ",".join(("n", "min", "max")[:column_count])
        metadata = {"sequence": "Thue\u2013Morse " + name, "kind": "red", "certified_window": window}
        for fmt in ("csv", "bfile", "json"):
            out = io.StringIO()
            with redirect_stdout(out):
                cli._emit_rows(columns, header, fmt, metadata)
            assert_same_text(out.getvalue(), per_row_reference(reference, header, fmt, metadata), fmt)

    # as gen passes them: the indices as a range, the symbols as a uint8 array.
    # The last start puts the first slice below 10**9, the second across it
    @pytest.mark.parametrize("start", [1, 99_990, 10**9 - cli._SLICE_ROWS - 5])
    def test_index_range_and_symbol_array(self, start):
        rows = 2 * cli._SLICE_ROWS + 10
        symbols = np.random.default_rng(start).integers(0, 3, rows).astype(np.uint8)
        columns = (range(start, start + rows), symbols)
        reference = [list(columns[0]), symbols.tolist()]
        metadata = {"sequence": "word", "kind": "symbols"}
        for fmt in ("csv", "bfile", "json"):
            out = io.StringIO()
            with redirect_stdout(out):
                cli._emit_rows(columns, "n,value", fmt, metadata)
            assert_same_text(out.getvalue(), per_row_reference(reference, "n,value", fmt, metadata), fmt)


class TestComplexity:
    def test_bfile_byte_exact(self, capsys):
        code, out, _ = run(capsys, "complexity", "tm", "factor", "--n-max", "5", "--format", "bfile")
        assert code == 0
        assert out == "1 2\n2 4\n3 6\n4 10\n5 12\n"

    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "complexity", "tm", "red", "--n-max", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,value"
        assert [int(line.split(",")[1]) for line in lines[1:]] == RHO_RED_T_23[:8]

    def test_formats_agree(self, capsys):
        args = ("complexity", "pf", "abred", "--n-max", "8")
        _, csv_out, _ = run(capsys, *args, "--format", "csv")
        _, bfile_out, _ = run(capsys, *args, "--format", "bfile")
        _, json_out, _ = run(capsys, *args, "--format", "json")
        csv_vals = [int(line.split(",")[1]) for line in csv_out.strip().split("\n")[1:]]
        bfile_vals = [int(line.split()[1]) for line in bfile_out.strip().split("\n")]
        json_vals = [rec["value"] for rec in json.loads(json_out)]
        assert csv_vals == bfile_vals == json_vals == RHO_ABRED_F_22[:8]

    def test_json_metadata(self, capsys):
        code, out, _ = run(capsys, "complexity", "tm", "abred", "--n-max", "3", "--format", "json")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["sequence"] == "tm"
        assert rec["kind"] == "reduced_abelian"
        assert rec["certified_window"] >= 96

    def test_fixed_window_flag(self, capsys):
        code, out, _ = run(
            capsys, "complexity", "tm", "red", "--n-max", "8", "--fixed-window", "2048",
            "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert all(rec["certified_window"] == 2048 for rec in records)
        assert [rec["value"] for rec in records] == RHO_RED_T_23[:8]

    def test_stabilization_failure_exit_3(self, capsys):
        code, out, err = run(
            capsys, "complexity", "tm", "factor", "--n-max", "64",
            "--window-multiplier", "1", "--max-doublings", "1",
        )
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "stabilization-failure"
        assert payload["window"] == 128
        assert payload["first_unstable_n"] == 18
        assert payload["partial_values"]["1"] == 2


class TestExtremes:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "extremes", "tm", "--n-max", "4")
        assert code == 0
        assert out == "n,min,max\n1,0,0\n2,0,1\n3,1,2\n4,1,3\n"

    def test_stabilization_failure_exit_3(self, capsys):
        # the partial values are keyed by n, as every profile's are, each a (min, max) pair
        code, out, err = run(
            capsys, "extremes", "tm", "--n-max", "4", "--window-multiplier", "1", "--max-doublings", "1",
        )
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "stabilization-failure"
        assert (payload["window"], payload["first_unstable_n"]) == (8, 3)
        assert payload["partial_values"] == {"1": [0, 0], "2": [0, 1], "3": [1, 2], "4": [2, 3]}
        # a claim that reads the extremes fails the same way, at the table length it reads
        code, out, err = run(
            capsys, "verify", "tm_mod4", "--n-max", "8", "--window-multiplier", "1", "--max-doublings", "1",
        )
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert (payload["window"], payload["first_unstable_n"]) == (68, 14)
        # the values at the last window, 68 symbols, for n up to 4 * 8 + 2
        expected = oracle_extremes(rw.thue_morse().prefix_symbols(68).tolist(), range(1, 35))
        assert payload["partial_values"] == {str(n): pair for n, pair in enumerate(expected.tolist()) if n}


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "tm_red", "--n-max", "32")
        assert code == 0
        assert "tm_red: pass" in out

    def test_exception_still_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "pf_red", "--n-max", "32")
        assert code == 0
        assert "exception-at-small-n" in out
        assert "n=1 -> 2" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "abred_f", "--n-max", "32", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["claim_id"] == "abred_f"
        assert report["claim_kind"] == "theorem"
        assert report["status"] == "exception-at-small-n"
        assert report["declared_exceptions"] == {"1": 2}

    def test_all_runs_non_conjecture_claims(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--n-max", "48")
        assert code == 0
        ids = [line.partition(":")[0] for line in out.strip().split("\n")]
        assert len(ids) == 14  # 16 ids minus the two conjectures
        assert ids == [cid for cid, c in CLAIMS.items() if c.kind != "conjecture"]

    def test_all_computes_each_profile_once(self, capsys, monkeypatch):
        calls = []
        codes = complexity._recursive_codes

        def counting(handle, n_max):
            calls.append((handle.name, n_max))
            return codes(handle, n_max)

        monkeypatch.setattr(complexity, "_recursive_codes", counting)
        # tm_red and the tm extremes identities read one tm recursion, to the
        # longest extremes length 4n + 2; pf_red, abred_f, f_2n and the four
        # f_*mod8 claims read one pf recursion; the conjectures read one tm
        # recursion, to the longest abred length 4n + 2
        for argv, runs in (
            (["verify", "all", "--n-max", "48"], [("pf", 48), ("tm", 194)]),
            (["verify", "all", "--n-max", "512"], [("pf", 512), ("tm", 2050)]),
            (["conjecture", "all", "--n-max", "256"], [("tm", 1026)]),
        ):
            calls.clear()
            assert run(capsys, *argv)[0] == 0
            assert sorted(calls) == runs, argv

    def test_one_index_per_sequence(self, capsys, monkeypatch):
        # at the benchmark's sizes: tm's and pf's factor counts up to 512
        # take an index each, and every other kind the claims read, up to
        # 4 * 512 + 2, the morphism's recursion; the conjectures read only
        # tm's recursion, up to 4 * 256 + 2
        built = []
        init = complexity.AlternationPrefix.__init__

        def counting(index, symbols, alphabet_size, n_max):
            built.append(n_max)
            init(index, symbols, alphabet_size, n_max)

        monkeypatch.setattr(complexity.AlternationPrefix, "__init__", counting)
        assert run(capsys, "verify", "all", "--n-max", "512", "--json")[0] == 0
        assert built == [512, 512]
        built.clear()
        assert run(capsys, "conjecture", "all", "--n-max", "256", "--json")[0] == 0
        assert built == []

    def test_capacity_error_of_a_planned_run(self, capsys, monkeypatch):
        # tm_red at 48 doubles past the cap, in a planned run as alone
        monkeypatch.setenv("REDUXWORDS_MAX_PREFIX", "3000")
        alone = run(capsys, "verify", "tm_red", "--n-max", "48")
        assert run(capsys, "verify", "all", "--n-max", "48") == alone
        assert alone == (2, "", "error: sequence 'tm': prefix of 3072 symbols exceeds the cap of 3000 "
                         "(raise REDUXWORDS_MAX_PREFIX or max_prefix)\n")

    def test_configuration_error_names_the_claim(self, capsys):
        for claim_id, n_max, message in (
            ("all", "2", "odd_len: n_max must be >= 3"),
            ("mu_alternation", "0", "mu_alternation: max_len must be >= 1"),
        ):
            assert run(capsys, "verify", claim_id, "--n-max", n_max) == (2, "", f"error: {message}\n")

    def test_unknown_claim_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "bogus_claim")
        assert code == 2
        assert "unknown claim" in err

    def test_counterexamples_exit_1(self, capsys, monkeypatch):
        def failing_runner(n_max, policy, profiles):
            return VerificationReport(
                claim_id="rigged", n_lo=1, n_hi=8, status="fail",
                counterexamples=((3, 6, 7),),
            )

        monkeypatch.setitem(
            CLAIMS, "rigged",
            Claim("rigged", "theorem", "injected failing claim", 8, runner=failing_runner),
        )
        code, out, _ = run(capsys, "verify", "rigged")
        assert code == 1
        assert "rigged: fail" in out
        assert "expected 6, got 7" in out


class TestConjecture:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "conjecture", "conj_odd_halving", "--n-max", "32")
        assert code == 0
        assert "conj_odd_halving: pass" in out

    def test_all(self, capsys):
        code, out, _ = run(capsys, "conjecture", "all", "--n-max", "16")
        assert code == 0
        ids = [line.partition(":")[0] for line in out.strip().split("\n")]
        assert ids == ["conj_odd_halving", "conj_mod4_gap"]

    def test_rejects_theorem_ids(self, capsys):
        code, _, err = run(capsys, "conjecture", "tm_red")
        assert code == 2
        assert "not a conjecture id" in err


class TestKernel:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "tm", "--kind", "red", "--n-max", "512", "--depth", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ranks"] == [1, 2, 4, 4]
        assert payload["stabilized"] is True

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "kernel", "tm", "--kind", "red", "--n-max", "512", "--depth", "3")
        assert code == 0
        assert "[1, 2, 4, 4]" in out
        assert out.endswith("rank stopped growing at the deepest level scanned\n")
        # one level is too few for the rank to stop growing
        code, out, _ = run(capsys, "kernel", "tm", "--kind", "red", "--n-max", "128", "--depth", "1")
        assert code == 0
        assert out.endswith("rank still growing at the deepest level scanned\n")

    def test_insufficient_length_exit_2(self, capsys):
        code, _, err = run(capsys, "kernel", "tm", "--n-max", "64", "--depth", "5")
        assert code == 2
        assert "need at least" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-max", "64", "--depth", "5"], "need at least 2048 values for base=2, depth=5, terms=64; got 64"),
            (["--n-max", "16384", "--base", "1"], "base must be >= 2"),
            (["--n-max", "16384", "--terms", "0"], "terms must be >= 1"),
            (["--n-max", "16384", "--depth", "-1"], "depth must be >= 0"),
            (["--n-max", "100", "--depth", "20000"], "need more than 100 values for base=2, depth=20000, terms=64; got 100"),
        ],
        ids=["short-n-max", "base", "terms", "depth", "huge-depth"],
    )
    def test_arguments_checked_before_the_profile(self, capsys, monkeypatch, flags, message):
        def engine(*args):
            raise AssertionError("the profile was computed")

        monkeypatch.setattr(cli, "KIND_ENGINES", dict.fromkeys(cli.KIND_ENGINES, engine))
        assert run(capsys, "kernel", "tm", *flags) == (2, "", f"error: {message}\n")


class TestSpecFileIntegration:
    def test_gen_from_spec_file(self, capsys, tmp_path):
        path = tmp_path / "tmlike.conf"
        path.write_text("kind = morphic\nalphabet_size = 2\nseed = 0\nimage.0 = 01\nimage.1 = 10\n")
        code, out, _ = run(capsys, "gen", str(path), "--count", "54")
        assert code == 0
        assert out.strip() == TM_PREFIX_54

    def test_complexity_from_spec_file(self, capsys, tmp_path):
        path = tmp_path / "pflike.conf"
        path.write_text("kind = toeplitz\nalphabet_size = 2\nperiod = 01\n")
        code, out, _ = run(capsys, "complexity", str(path), "factor", "--n-max", "5")
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert values == [2, 4, 8, 12, 18]

    def test_alphabet_past_256(self, capsys, tmp_path):
        # 0 -> 0,1,...,299 and i -> i,i: the doubling scans reach symbols
        # 256..299, which do not fit in one byte
        path = tmp_path / "wide.conf"
        lines = ["kind = morphic", "alphabet_size = 300", "seed = 0"]
        lines.append("image.0 = " + ",".join(str(i) for i in range(300)))
        lines += [f"image.{i} = {i},{i}" for i in range(1, 300)]
        path.write_text("\n".join(lines) + "\n")
        handle = rw.load_sequence_spec(str(path))
        ns = range(1, 7)
        for kind, oracle_kind in (
            ("factor", "factor"),
            ("abelian", "abelian"),
            ("red", "reduced_factor"),
            ("abred", "reduced_abelian"),
        ):
            code, out, err = run(capsys, "complexity", str(path), kind, "--n-max", "6", "--format", "json")
            assert code == 0, err
            records = json.loads(out)
            symbols = handle.prefix_symbols(records[0]["certified_window"])
            assert max(symbols) >= 256
            expected = oracle_counts(symbols, oracle_kind, ns)
            assert [r["value"] for r in records] == [expected[n] for n in ns]
        code, out, err = run(capsys, "extremes", str(path), "--n-max", "6", "--format", "json")
        assert code == 0, err
        records = json.loads(out)
        extremes = oracle_extremes(handle.prefix_symbols(records[0]["certified_window"]), ns)
        assert [[r["min"], r["max"]] for r in records] == extremes[1:].tolist()

    @pytest.mark.parametrize("kind", ["abelian", "abred"])
    def test_declared_alphabet_larger_than_used(self, capsys, tmp_path, kind):
        # the symbol-count rows cover the symbols that occur, not all 10**9
        # declared ones, and a morphic spec's image tables the letters of its
        # fixed point, so the counts equal those under the 2 letters used
        bodies = {
            "pf": "kind = toeplitz\nperiod = 01\n",
            "tm": "kind = morphic\nseed = 0\nimage.0 = 01\nimage.1 = 10\n",
        }
        for sequence, body in bodies.items():
            csv = []
            for alphabet_size in (2, 1000000000):
                path = tmp_path / f"{sequence}{alphabet_size}.spec"
                path.write_text(f"{body}alphabet_size = {alphabet_size}\n")
                code, out, err = run(capsys, "complexity", str(path), kind, "--n-max", "40")
                assert (code, err) == (0, "")
                csv.append(out)
            assert csv[0] == csv[1], sequence
            code, out, err = run(capsys, "gen", str(path), "--count", "4096", "--format", "csv")
            assert (code, err) == (0, "")
            assert out == run(capsys, "gen", sequence, "--count", "4096", "--format", "csv")[1]

    def test_bad_spec_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.conf"
        path.write_text("kind = morphic\nalphabet_size = 2\nseed = 0\n")
        code, _, err = run(capsys, "gen", str(path), "--count", "4")
        assert code == 2
        assert "image" in err

    @pytest.mark.parametrize("second", ["image.1 = 11", "image.01 = 11"])
    def test_duplicate_image_key_exit_2(self, capsys, tmp_path, second):
        path = tmp_path / "twice.conf"
        path.write_text(
            f"kind = morphic\nalphabet_size = 2\nseed = 0\nimage.0 = 01\nimage.1 = 10\n{second}\n"
        )
        code, out, err = run(capsys, "gen", str(path), "--count", "8")
        assert (code, out) == (2, "")
        assert "line 6" in err and "line 5" in err

    @pytest.mark.parametrize(
        "argv", [["gen", "--count", "4"], ["complexity", "factor", "--n-max", "4"]], ids=["gen", "complexity"]
    )
    def test_spec_file_not_utf8_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.conf"
        path.write_bytes(b"# caf\xe9\nkind = toeplitz\nalphabet_size = 2\nperiod = 01\n")
        command, *rest = argv
        code, out, err = run(capsys, command, str(path), *rest)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read spec file {str(path)!r}: ")
        assert "utf-8" in err

    @pytest.mark.parametrize(
        "body",
        [
            "kind = morphic\nalphabet_size = 0\nseed = 0\nimage.0 = 01\nimage.1 = 10\n",
            "kind = morphic\nalphabet_size = -2\nseed = 0\nimage.0 = 01\n",
            "kind = toeplitz\nalphabet_size = 0\nperiod = 01\n",
        ],
        ids=["morphic-0", "morphic-negative", "toeplitz-0"],
    )
    def test_nonpositive_alphabet_exit_2(self, capsys, tmp_path, body):
        path = tmp_path / "no_letters.conf"
        path.write_text(body)
        assert run(capsys, "gen", str(path), "--count", "4") == (
            2, "", "error: alphabet_size must be positive\n"
        )

    @pytest.mark.parametrize(
        "body, message",
        [
            ("kind = morphic\nseed = 0\nimage.0 = 01\nimage.1 = 10\n", "kind 'morphic' requires key 'alphabet_size'"),
            ("kind = morphic\nalphabet_size = 2\nseed = 0\nimage.0 = 01\nimage.x = 10\n", "bad image key 'image.x'"),
            (
                "kind = morphic\nalphabet_size = 2\nseed = 0\nimage.0 = 0a\nimage.1 = 10\n",
                "image.0: expected a digit string or comma-separated integers, got '0a'",
            ),
            (
                "kind = morphic\nalphabet_size = 2\nseed = 0\nimage.0 = 01\nimage.1 = 10\nimage.5 = 0\n",
                "morphism domain symbol 5 out of alphabet",
            ),
            ("kind = toeplitz\nalphabet_size = 2\nperiod = 02\n", "filler symbol 2 out of alphabet"),
        ],
        ids=["no-alphabet", "image-key", "image-value", "domain-symbol", "filler-symbol"],
    )
    def test_bad_spec_value_exit_2(self, capsys, tmp_path, body, message):
        path = tmp_path / "bad.conf"
        path.write_text(body)
        assert run(capsys, "gen", str(path), "--count", "4") == (2, "", f"error: {message}\n")

    def test_missing_spec_file_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "/no/such/file.conf", "--count", "4")
        assert code == 2
        assert "error" in err


class TestPrefixCap:
    @pytest.mark.parametrize("argv, length", [
        (("gen", "tm", "--count", "1001"), 1001),
        (("complexity", str(ROOT / "tests" / "data" / "toeplitz3.spec"), "red", "--n-max", "64"), 2048),
    ], ids=["gen-tm", "complexity-spec"])
    def test_env_var_caps_builtins_and_spec_files(self, capsys, monkeypatch, argv, length):
        monkeypatch.setenv("REDUXWORDS_MAX_PREFIX", "1000")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"prefix of {length} symbols exceeds the cap of 1000" in err

    def test_env_var_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("REDUXWORDS_MAX_PREFIX", "x")
        code, out, err = run(capsys, "gen", "tm", "--count", "4")
        assert (code, out) == (2, "")
        assert "REDUXWORDS_MAX_PREFIX must be an integer" in err


class TestUsage:
    def test_no_arguments_exit_2(self, capsys):
        assert main([]) == 2

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_claim_commands_share_their_flag_help(self, capsys):
        # conjecture's --n-max and --json read as verify's do
        def flag_lines(command):
            assert main([command, "--help"]) == 0
            text = capsys.readouterr().out
            lines = [line.strip() for line in text.splitlines()]
            return [line for line in lines if line.startswith(("--n-max", "--json"))]

        assert flag_lines("conjecture") == flag_lines("verify")
        assert flag_lines("verify") == [
            "--n-max N_MAX         override the claim's default range",
            "--json                emit the structured report",
        ]

    def test_bad_kind_exit_2(self, capsys):
        assert main(["complexity", "tm", "banana", "--n-max", "4"]) == 2

    @pytest.mark.parametrize(
        "command, claim_id, least",
        [
            ("verify", "tm_max_min", 2),
            ("verify", "tm_mod4", 1),
            ("conjecture", "conj_odd_halving", 1),
            ("conjecture", "conj_mod4_gap", 1),
        ],
    )
    def test_identity_claims_below_range_exit_2(self, capsys, command, claim_id, least):
        code, out, err = run(capsys, command, claim_id, "--n-max", str(least - 1))
        assert (code, out, err) == (2, "", f"error: {claim_id}: n_max must be >= {least}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "tm", "--count", "1000000", "--format", "csv"],
            ["gen", "tm", "--count", "1000000", "--format", "bfile"],
            ["gen", "tm", "--count", "1000000", "--format", "json"],
            ["complexity", "tm", "factor", "--n-max", "10000"],
        ],
        ids=" ".join,
    )
    def test_closed_stdout_exit_141(self, argv):
        # each output is longer than a pipe holds, so a write fails once the
        # reader has closed its end, as under ``| head -1``
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        with subprocess.Popen(
            [sys.executable, "-m", "reduxwords.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env,
        ) as proc:
            proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(case["argv"]) for case in GOLDEN])
def test_golden_output(capsys, monkeypatch, case):
    # spec paths in the commands are relative to the repository root
    monkeypatch.chdir(ROOT)
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


def readme_examples():
    """(argv, stdout) of each ``$ reduxwords`` command in README that shows its output."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, output = command.partition("\n")
            program, *argv = line.split()
            assert program == "reduxwords", line
            if output.strip():
                examples.append((argv, output.rstrip("\n") + "\n"))
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(
    "argv, stdout", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example(capsys, argv, stdout):
    assert run(capsys, *argv) == (0, stdout, "")


def test_readme_quick_start():
    # each line of the python block runs in order; a line whose comment is a
    # Python literal must evaluate to it
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library quick start\n\n```python\n(.*?)```", text, flags=re.S | re.M)
    namespace, checked = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            exec(code, namespace)
            continue
        assert eval(code, namespace) == expected, line
        checked.append(expected)
    assert checked == [4, 6, (2, 3), True, "pass", (1, 2, 4, 4, 4), True]


def test_console_script_runs_the_readme_example(capsys, monkeypatch):
    # the [project.scripts] entry point, resolved and run as the installed
    # console script would run it
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^reduxwords = "reduxwords.cli:entrypoint"$', pyproject, flags=re.M)
    argv, stdout = next(e for e in README_EXAMPLES if e[0][0] == "gen")
    monkeypatch.setattr(sys, "argv", ["reduxwords", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.entrypoint()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == stdout
