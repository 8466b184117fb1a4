"""Closed forms against frozen golden data, harness behavior on injected
failures, scanners, and the exact kernel-rank estimator."""

import dataclasses
import functools
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

import reduxwords as rw
from reduxwords import theorems
from reduxwords.complexity import ComplexityProfile
from reduxwords.theorems import ProfileStore
from reduxwords.errors import ConfigurationError, SmallCaseException
from reduxwords.sequences import SequenceHandle

from conftest import (
    ALL_CLAIM_IDS,
    RHO_ABRED_F_22,
    RHO_F_15,
    RHO_RED_F_23,
    RHO_RED_T_23,
    RHO_T_15,
)


class TestClosedForms:
    def test_tm_factor_matches_golden(self):
        assert [rw.tm_factor_count(n) for n in range(1, 16)] == RHO_T_15

    def test_tm_reduced_matches_golden(self):
        assert [rw.tm_reduced_factor_count(n) for n in range(1, 24)] == RHO_RED_T_23

    def test_pf_factor_matches_golden(self):
        assert [rw.pf_factor_count(n) for n in range(1, 16)] == RHO_F_15
        assert rw.pf_factor_count(100) == 400

    def test_pf_reduced_matches_golden(self):
        assert [rw.pf_reduced_factor_count(n) for n in range(2, 24)] == RHO_RED_F_23[1:]

    def test_pf_reduced_abelian_matches_golden(self):
        assert [rw.pf_reduced_abelian_count(n) for n in range(2, 23)] == RHO_ABRED_F_22[1:]
        assert rw.pf_reduced_abelian_count(1000) == 3

    def test_declared_small_case_exceptions(self):
        for fn in (rw.pf_reduced_factor_count, rw.pf_reduced_abelian_count):
            with pytest.raises(SmallCaseException) as excinfo:
                fn(1)
            assert excinfo.value.n == 1
            assert excinfo.value.known_value == 2

    def test_rejects_nonpositive(self):
        for fn in (
            rw.tm_factor_count,
            rw.tm_reduced_factor_count,
            rw.pf_factor_count,
            rw.pf_reduced_factor_count,
            rw.pf_reduced_abelian_count,
        ):
            with pytest.raises(ValueError):
                fn(0)

    def test_large_values_well_founded(self):
        # deep recursion descends by halving, so 10**9 must be instant
        assert rw.tm_factor_count(10**9) > 0
        assert rw.tm_reduced_factor_count(10**9) in range(2, 100)


def readme_claim_rows():
    """(id, kind) of each row of the README claim table, a row listing several ids expanded."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    top = next(i for i, line in enumerate(lines) if line.startswith("| id | kind |"))
    rows = []
    for line in lines[top + 2 :]:
        if not line.startswith("|"):
            break
        ids, kind, _ = (cell.strip() for cell in line.strip("|").split("|"))
        rows += [(claim_id, kind) for claim_id in re.findall(r"`([^`]+)`", ids)]
    return rows


class TestClaimRegistry:
    def test_registry_is_exactly_the_published_ids(self):
        assert set(rw.CLAIMS) == ALL_CLAIM_IDS

    def test_readme_claim_table_is_the_registry(self):
        rows = readme_claim_rows()
        assert ("f_5mod8", "lemma") in rows
        assert rows == [(c.claim_id, c.kind) for c in rw.CLAIMS.values()]

    def test_kinds(self):
        assert rw.CLAIMS["tm_red"].kind == "theorem"
        assert rw.CLAIMS["mu_alternation"].kind == "lemma"
        assert rw.CLAIMS["conj_odd_halving"].kind == "conjecture"
        assert rw.CLAIMS["conj_mod4_gap"].kind == "conjecture"

    def test_unknown_claim(self):
        with pytest.raises(ConfigurationError):
            rw.verify("no_such_claim")

    def test_exhaustive_claim_clamps_range(self):
        # a blanket n_max (e.g. from `verify all`) must not blow up the
        # exponential enumeration; the report shows the range actually run
        report = rw.verify("mu_alternation", 48)
        assert report.ok
        assert report.n_hi == 14

    @pytest.mark.parametrize("claim_id", sorted(ALL_CLAIM_IDS))
    def test_every_claim_passes_at_small_range(self, claim_id):
        n_max = 10 if claim_id == "mu_alternation" else 96
        report = rw.verify(claim_id, n_max)
        assert report.ok, report
        assert report.counterexamples == ()

    def test_declared_exceptions_reported(self):
        for claim_id in ("pf_red", "abred_f", "f_1mod8"):
            report = rw.verify(claim_id, 64)
            assert report.status == "exception-at-small-n"
            assert report.declared_exceptions == {1: 2}


def fake_profile(kind, values):
    return ComplexityProfile(kind=kind, sequence="fake", values=values, certified_window=0)


def store_with(sequence, kind, n, profile):
    """A profile store holding one profile, as if its engine had computed it
    under the default policy."""
    store = ProfileStore()
    store.profiles[(sequence, kind, n, rw.WindowPolicy())] = profile
    return store


class TestHarnessFailurePaths:
    def test_wrong_engine_values_fail(self):
        values = np.array([0] + [rw.tm_factor_count(n) for n in range(1, 33)])
        values[20] += 2
        profiles = store_with("tm", "factor", 32, fake_profile("factor", values))
        report = rw.verify("rho_t_A005942", 32, profiles=profiles)
        assert report.status == "fail"
        assert not report.ok
        assert report.counterexamples == ((20, rw.tm_factor_count(20), values[20]),)

    def test_exception_value_is_still_checked(self):
        # the declared n=1 value must match the engine or the claim fails
        values = np.array([0, 2] + [rw.pf_reduced_factor_count(n) for n in range(2, 33)])
        profile = fake_profile("reduced_factor", values)
        good = rw.verify("pf_red", 32, profiles=store_with("pf", "red", 32, profile))
        assert good.status == "exception-at-small-n"
        values[1] = 4
        bad = rw.verify("pf_red", 32, profiles=store_with("pf", "red", 32, profile))
        assert bad.status == "fail"
        assert bad.counterexamples[0] == (1, 2, 4)


class TestProfileStore:
    def test_shared_store_gives_the_same_reports(self):
        ids = [cid for cid, claim in rw.CLAIMS.items() if claim.kind != "conjecture"]
        assert len(ids) == 14
        profiles = ProfileStore()
        shared = [rw.verify(cid, 48, profiles=profiles) for cid in ids]
        assert shared == [rw.verify(cid, 48) for cid in ids]
        # pf red is read by six claims and stored once
        assert sum(1 for key in profiles.profiles if key[:2] == ("pf", "red")) == 1

    def test_policies_are_kept_apart(self):
        fixed = rw.WindowPolicy(fixed_length=4096)
        profiles = ProfileStore()
        default_report = rw.verify("pf_red", 48, profiles=profiles)
        fixed_report = rw.verify("pf_red", 48, fixed, profiles)
        assert set(profiles.profiles) == {("pf", "red", 48, rw.WindowPolicy()), ("pf", "red", 48, fixed)}
        assert fixed_report.details["certified_window"] == 4096
        assert default_report.details["certified_window"] != 4096
        assert default_report == rw.verify("pf_red", 48)
        assert fixed_report == rw.verify("pf_red", 48, fixed)
        # a planned store serves each policy whose own profile is proven, with
        # that policy's window, and computes the others
        planned = rw.plan_claims(["pf_red"], 48)
        wide = rw.WindowPolicy(initial_multiplier=64)
        assert rw.verify("pf_red", 48, profiles=planned) == default_report
        assert rw.verify("pf_red", 48, fixed, planned) == fixed_report
        assert rw.verify("pf_red", 48, wide, planned) == rw.verify("pf_red", 48, wide, ProfileStore())
        assert set(planned.profiles) == {("pf", "red", 48, fixed)}

    def test_exact_n_keys(self):
        # a store without a plan keys each profile on its exact n
        profiles = ProfileStore()
        rw.verify("pf_red", 64, profiles=profiles)
        assert rw.verify("pf_red", 48, profiles=profiles) == rw.verify("pf_red", 48, profiles=ProfileStore())
        assert {key[2] for key in profiles.profiles} == {48, 64}
        # a planned store serves the shorter n from the table counted at the
        # longer one, with the report of a fresh computation at that n
        planned = rw.plan_claims(["pf_red"], 64)
        rw.verify("pf_red", 64, profiles=planned)
        assert rw.verify("pf_red", 48, profiles=planned) == rw.verify("pf_red", 48, profiles=ProfileStore())
        assert (list(planned.tables), planned.profiles) == (["pf"], {})

    def test_configuration_error_names_the_claim(self):
        with pytest.raises(ConfigurationError, match="^odd_len: n_max must be >= 3$"):
            rw.verify("odd_len", 2)


def outcome(run):
    """What running a claim gives: its report, or the fields of the error it
    raised, the partial values as the nested list of their array."""
    try:
        return run()
    except rw.StabilizationError as exc:
        return ("stabilization", str(exc), exc.window, exc.first_unstable_n, exc.partial_values.tolist())
    except rw.ReduxwordsError as exc:
        return (type(exc).__name__, str(exc))


def claim_outcomes(n_max, policy=None):
    """Per claim of the table: the outcome on one store planned with them all,
    alone with the store ``verify`` plans for it, and on a store without a
    plan, where every profile comes from its engine."""
    ids = list(rw.CLAIMS)
    store = rw.plan_claims(ids, n_max)
    planned = [outcome(lambda: rw.verify(cid, n_max, policy, store)) for cid in ids]
    alone = [outcome(lambda: rw.verify(cid, n_max, policy)) for cid in ids]
    engines = [outcome(lambda: rw.verify(cid, n_max, policy, ProfileStore())) for cid in ids]
    return store, planned, alone, engines


POLICIES = {
    "default": None,
    "multiplier-13": rw.WindowPolicy(initial_multiplier=13),
    "one-doubling": rw.WindowPolicy(initial_multiplier=1, max_doublings=1),
    "fixed-4096": rw.WindowPolicy(fixed_length=4096),
}


class TestPlannedRuns:
    """A run planned over every claim gives, claim for claim, what each claim
    gives alone and what the engines give at each read's own length."""

    @pytest.mark.parametrize("n_max", [34, 48, 130])
    @pytest.mark.parametrize("policy", list(POLICIES.values()), ids=list(POLICIES))
    def test_planned_runs_equal_per_claim_runs(self, n_max, policy):
        store, planned, alone, engines = claim_outcomes(n_max, policy)
        assert planned == alone == engines
        if policy is None:
            # every read is served from one table per sequence
            assert store.profiles == {}
            assert set(store.tables) == {"tm", "pf"} and None not in store.tables.values()
        if policy == POLICIES["one-doubling"]:
            assert any(isinstance(o, tuple) and o[0] == "stabilization" for o in planned)

    def test_proof_holds_at_some_lengths_and_not_others(self):
        # at multiplier 13 the tm table proves n <= 138 in 13 * 138 symbols,
        # and so do the extremes reads at 69 and 138; the red read at 34 needs
        # 448 > 13 * 34 symbols, so it doubles
        policy = POLICIES["multiplier-13"]
        store, planned, alone, engines = claim_outcomes(34, policy)
        assert planned == alone == engines
        assert store.tables["tm"] is not None
        assert ("tm", "red", 34, policy) in store.profiles
        assert ("tm", "extremes", 138, policy) not in store.profiles

    @pytest.mark.parametrize("n_max", [40, 48, 64, 130])
    def test_capacity_errors_are_those_of_the_claim(self, monkeypatch, n_max):
        monkeypatch.setenv("REDUXWORDS_MAX_PREFIX", "3000")
        _, planned, alone, engines = claim_outcomes(n_max)
        assert planned == alone == engines
        assert any(isinstance(o, tuple) and o[0] == "CapacityError" for o in planned)

    def test_an_injected_table_is_read(self):
        # a wrong extremes table in a planned store fails tm_red's bridge
        store = rw.plan_claims(["tm_red"], 64)
        assert rw.verify("tm_red", 64, profiles=store).status == "pass"
        extremes = store.tables["tm"]["extremes"]
        assert (extremes.dtype, extremes.shape) == (np.int64, (65, 2))
        least, greatest = extremes[20]
        extremes[20] = (least, greatest + 1)
        report = rw.verify("tm_red", 64, profiles=store)
        assert (report.details["recursion_status"], report.details["bridge_status"]) == ("pass", "fail")
        actual = rw.tm_reduced_factor_count(20)
        assert report.counterexamples == ((20, actual + 2, actual),)

    def test_reads_are_the_lengths_the_identities_index(self):
        reads = {
            cid: [(r.sequence, r.kind, r.n, r.lengths.tolist()) for r in claim.reads(8)]
            for cid, claim in rw.CLAIMS.items()
        }
        assert all(r.lengths.dtype == np.int64 for claim in rw.CLAIMS.values() for r in claim.reads(8))
        assert reads["tm_max_min"] == [("tm", "extremes", 17, list(range(2, 18)))]
        assert reads["tm_mod4"] == [("tm", "extremes", 34, [*range(2, 10), *range(10, 35, 2)])]
        assert reads["conj_odd_halving"] == [("tm", "abred", 17, [*range(1, 10), *range(11, 18, 2)])]
        assert reads["conj_mod4_gap"] == [("tm", "abred", 34, list(range(4, 35, 2)))]
        assert reads["f_3mod8"] == [("pf", "red", 8, [3])]
        assert reads["tm_red"] == [
            ("tm", "red", 8, list(range(1, 9))),
            ("tm", "extremes", 8, list(range(1, 9))),
        ]
        assert reads["mu_alternation"] == reads["odd_len"] == []


def random_ternary():
    word = random.Random(3).choices((0, 1, 2), k=300)
    return SequenceHandle("ternary", 3, lambda buf, target: word[len(buf) : target], max_prefix=300)


class TestStructuralLemmas:
    def test_mu_alternation_passes(self):
        report = rw.check_mu_alternation(10)
        assert report.status == "pass"
        assert report.details["words_checked"] == 2 * (2**10 - 1)

    @pytest.mark.parametrize(
        "images",
        [{0: (0, 1), 1: (1, 0)}, {0: (0, 0, 1), 1: (1,)}, {0: (1, 1), 1: (0, 1, 0)}],
    )
    def test_mu_alternation_matches_per_word_loop(self, monkeypatch, images):
        # the check builds the images from thue_morse_morphism(); swapping in
        # other morphisms gives counterexamples whose order must match too
        mu = rw.Morphism(images, 2)
        monkeypatch.setattr(theorems, "thue_morse_morphism", lambda: mu)
        for max_len in (1, 2, 5, 10):
            checked, counterexamples = 0, []
            for length in range(1, max_len + 1):
                for bits in range(1 << length):
                    w = rw.Word(tuple((bits >> i) & 1 for i in range(length)))
                    expected = 2 * length - 1 - rw.alternations(w)
                    actual = rw.alternations(mu.apply(w))
                    checked += 1
                    if actual != expected:
                        counterexamples.append((length, expected, actual))
            report = theorems.check_mu_alternation(max_len)
            assert report.details["words_checked"] == checked
            assert list(report.counterexamples) == counterexamples
            assert all(type(x) is int for triple in report.counterexamples for x in triple)

    def test_mu_alternation_cap(self):
        with pytest.raises(ConfigurationError):
            rw.check_mu_alternation(19)

    def test_extremes_identities(self):
        assert rw.check_extremes_halving(64).status == "pass"
        assert rw.check_extremes_mod4(64).status == "pass"

    def test_extremes_identities_shared_table(self, tm_handle):
        table = rw.alternation_extremes(tm_handle, 4 * 64 + 2)
        assert rw.check_extremes_halving(64, table=table).status == "pass"
        assert rw.check_extremes_mod4(64, table=table).status == "pass"

    def test_short_table_rejected(self, tm_handle):
        table = rw.alternation_extremes(tm_handle, 16)
        with pytest.raises(ConfigurationError, match="^supplied extremes table stops at 16, need 129$"):
            rw.check_extremes_halving(64, table=table)

    @pytest.mark.parametrize("check", [rw.check_extremes_halving, rw.check_extremes_mod4])
    def test_table_of_another_kind_rejected(self, tm_handle, check):
        # a count profile long enough for the lengths read is still no extremes table
        table = rw.reduced_factor_complexity(tm_handle, 200)
        message = "^supplied table is a reduced_factor profile, need alternation_extremes$"
        with pytest.raises(ConfigurationError, match=message):
            check(20, table=table)

    @pytest.mark.parametrize(
        "check, claim_id, least",
        [
            (rw.check_extremes_halving, "tm_max_min", 2),
            (rw.check_extremes_mod4, "tm_mod4", 1),
            (rw.scan_odd_halving, "conj_odd_halving", 1),
            (rw.scan_mod4_gap, "conj_mod4_gap", 1),
        ],
    )
    def test_identity_claims_below_range(self, check, claim_id, least):
        # conj_odd_halving scans from n = 0, yet its range must still reach n = 1
        for n_max in (least - 1, -5):
            with pytest.raises(ConfigurationError, match=f"^n_max must be >= {least}$"):
                check(n_max)
            with pytest.raises(ConfigurationError, match=f"^{claim_id}: n_max must be >= {least}$"):
                rw.verify(claim_id, n_max)
        assert rw.verify(claim_id, least).n_hi == least

    def test_bridge(self, tm_handle):
        assert rw.verify("tm_red", 64).details["bridge_status"] == "pass"
        # a wrong extremes table fails the bridge and leaves the recursion passing
        table = rw.alternation_extremes(tm_handle, 64)
        values = table.values.copy()
        values[20, 1] += 1
        wrong = dataclasses.replace(table, values=values)
        report = rw.verify("tm_red", 64, profiles=store_with("tm", "extremes", 64, wrong))
        assert report.status == "fail"
        assert report.details["recursion_status"] == "pass"
        assert report.details["bridge_status"] == "fail"
        actual = rw.tm_reduced_factor_count(20)
        assert report.counterexamples == ((20, actual + 2, actual),)

    def test_tm_red_runs_recursion_and_bridge(self):
        report = rw.verify("tm_red", 64)
        assert report.status == "pass"
        assert report.details["recursion_status"] == "pass"
        assert report.details["bridge_status"] == "pass"
        assert report.details["checked"] == 64

    def test_skeleton_runs(self):
        report = rw.check_alternating_skeleton_runs(65)
        assert report.status == "pass"
        assert report.details["qualifying_windows"] > 0
        assert report.details["odd_start_lengths_missing_qualification"] == 0

    @pytest.mark.parametrize("sequence", [rw.paperfolding, rw.thue_morse, random_ternary])
    def test_skeleton_runs_match_per_window_loop(self, monkeypatch, sequence):
        # in place of pf, tm has lengths whose odd starts do not all qualify,
        # and a ternary word gives counterexamples (a binary word cannot)
        monkeypatch.setattr(theorems, "paperfolding", sequence)
        window, n_max = 300, 33
        symbols = sequence().prefix_symbols(window).tolist()
        qualifying, misses, counterexamples = 0, 0, []
        for k in range(1, (n_max - 1) // 2 + 1):
            n = 2 * k + 1
            starts = range(window - n + 1)
            ok = [all(symbols[s + 2 * i] != symbols[s + 2 * i + 2] for i in range(k)) for s in starts]
            qualifying += sum(ok)
            misses += not all(ok[0::2])
            runs = [1 + sum(symbols[s + i] != symbols[s + i + 1] for i in range(n - 1)) for s in starts]
            bad = [s for s in starts if ok[s] and runs[s] != k + 1]
            if bad:
                counterexamples.append((n, k + 1, runs[bad[0]]))
        policy = rw.WindowPolicy(fixed_length=window)
        report = rw.check_alternating_skeleton_runs(n_max, policy)
        assert report.counterexamples == tuple(counterexamples)
        assert report.details == {
            "window": window,
            "qualifying_windows": qualifying,
            "odd_start_lengths_missing_qualification": misses,
        }


class TestConjectureScanners:
    def test_odd_halving_scan(self):
        report = rw.scan_odd_halving(64)
        assert report.status == "pass"
        assert report.details["scanned"] == 65

    def test_mod4_gap_scan(self):
        report = rw.scan_mod4_gap(64)
        assert report.status == "pass"
        signs = report.details["sign_pattern"]
        assert len(signs) == 64
        assert set(signs) <= {"0", "+", "-"}
        total = report.details["zero"] + report.details["positive"] + report.details["negative"]
        assert total == 64

    def test_mod4_gap_known_small_case(self, tm_handle):
        # n=1: values at 6 and 4 differ by one, matching the tm predicate
        profile = rw.reduced_abelian_complexity(tm_handle, 6)
        gap = profile.values[6] - profile.values[4]
        assert abs(gap) == 1
        assert rw.thue_morse_at(2) != rw.thue_morse_at(4)

    def test_scanner_reports_fabricated_counterexample(self):
        values = rw.reduced_abelian_complexity(rw.thue_morse(), 21).values.copy()
        values[21] += 1  # 21 = 2*10+1 now disagrees with values[11]
        profiles = store_with("tm", "abred", 21, fake_profile("reduced_abelian", values))
        report = rw.verify("conj_odd_halving", 10, profiles=profiles)
        assert report.status == "fail"
        assert report.counterexamples[-1][0] == 10


def halving_identities(m, big, n):
    return (
        ("min_at_2n", m[2 * n], 2 * n - 1 - big[n + 1]),
        ("max_at_2n", big[2 * n], 2 * n - 1 - m[n]),
        ("min_at_2n+1", m[2 * n + 1], 2 * n - big[n + 1]),
        ("max_at_2n+1", big[2 * n + 1], 2 * n - m[n + 1]),
    )


def mod4_identities(m, big, n):
    return (
        ("min_at_4n", m[4 * n], 2 * n - 1 + m[n + 1]),
        ("max_at_4n", big[4 * n], 2 * n + big[n + 1]),
        ("min_at_4n+2", m[4 * n + 2], 2 * n + m[n + 1]),
        ("max_at_4n+2", big[4 * n + 2], 2 * n + 1 + big[n + 1]),
    )


def odd_halving_identities(v, n):
    return ((None, v[2 * n + 1], v[n + 1]),)


def gap_law_identities(v, n):
    return ((None, abs(v[4 * n + 2] - v[4 * n]), int(rw.thue_morse_at(n + 1) != rw.thue_morse_at(3 * n + 1))),)


def gap_signs(v, n_max):
    signs = "".join(
        "0" if gap == 0 else ("+" if gap > 0 else "-")
        for gap in (v[4 * n + 2] - v[4 * n] for n in range(1, n_max + 1))
    )
    return {"sign_pattern": signs, "zero": signs.count("0"), "positive": signs.count("+"), "negative": signs.count("-")}


# per identity row: its identities at one n, and what it adds to the details
REFERENCE_IDENTITIES = {
    "tm_max_min": (halving_identities, None),
    "tm_mod4": (mod4_identities, None),
    "conj_odd_halving": (odd_halving_identities, lambda v, n_max: {"scanned": n_max + 1}),
    "conj_mod4_gap": (gap_law_identities, gap_signs),
}


def mismatches(rows):
    """The counterexamples of the rows ``(n, name, expected, actual)`` whose
    values differ: ``(n, expected, actual)``, or ``(n, (name, expected),
    (name, actual))`` when the row names one of several identities."""
    return [
        (n, expected, actual) if name is None else (n, (name, expected), (name, actual))
        for n, name, expected, actual in rows
        if expected != actual
    ]


def identity_columns(table):
    """The columns identities read of a profile, as lists of Python ints
    indexed by n: the minima and the maxima of an extremes table, or the
    values of any other profile."""
    if table.kind != "alternation_extremes":
        return (table.values.tolist(),)
    return tuple(table.values.T.tolist())


def identity_counterexamples(table, ns, identities):
    """(n, (name, rhs), (name, lhs)) for each identity lhs = rhs that fails,
    by n then name, or (n, rhs, lhs) for one without a name."""
    columns = identity_columns(table)
    return mismatches((n, name, rhs, lhs) for n in ns for name, lhs, rhs in identities(*columns, n))


def reference_status(counterexamples, declared_exceptions=None):
    if counterexamples:
        return "fail"
    return "exception-at-small-n" if declared_exceptions else "pass"


def reference_closed_form(claim, n_max, profile):
    """The report of a closed-form row, compared one length at a time."""
    ns = [n for n in range(1, n_max + 1) if claim.residues_mod8 is None or n % 8 in claim.residues_mod8]
    table = profile(claim.sequence, claim.profile_kind, n_max)
    exceptions = {}

    def expected(n):
        try:
            return claim.closed_form(n)
        except SmallCaseException as exc:
            exceptions[exc.n] = exc.known_value
            return exc.known_value

    counterexamples = mismatches((n, None, expected(n), table.value(n)) for n in ns)
    details = {"checked": len(ns), "certified_window": table.certified_window}
    if claim.bridge:
        extremes = profile(claim.sequence, "extremes", n_max)
        bridged = mismatches(
            (n, None, rw.reduced_complexity_from_extremes(extremes, n), table.value(n))
            for n in range(1, n_max + 1)
        )
        details.update(
            recursion_status=reference_status(counterexamples, exceptions),
            bridge_status=reference_status(bridged),
            extremes_certified_window=extremes.certified_window,
        )
        counterexamples += bridged
    status = reference_status(counterexamples, exceptions)
    return theorems.VerificationReport(
        claim.claim_id, 1, n_max, status, tuple(counterexamples), exceptions, details
    )


def reference_identities(claim, n_max, profile):
    """The report of an identity row, checked one n and one identity at a time."""
    identities, extra = REFERENCE_IDENTITIES[claim.claim_id]
    n_lo, at = claim.identities.n_lo, claim.identities.at
    least = max(n_lo, 1)
    if n_max < least:
        raise ConfigurationError(f"n_max must be >= {least}")
    table = profile("tm", claim.identities.kind, max(a * n_max + b for a, b in at))
    counterexamples = identity_counterexamples(table, range(n_lo, n_max + 1), identities)
    details = {"certified_window": table.certified_window}
    if extra:
        details.update(extra(*identity_columns(table), n_max))
    status = reference_status(counterexamples)
    return theorems.VerificationReport(claim.claim_id, n_lo, n_max, status, tuple(counterexamples), {}, details)


def reference_report(claim_id, n_max, profile):
    """What ``verify`` reports for a row that compares profiles, one length
    at a time on the profiles ``profile(sequence, kind, n)``."""
    claim = rw.CLAIMS[claim_id]
    check = reference_closed_form if claim.identities is None else reference_identities
    try:
        return check(claim, n_max, profile)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{claim_id}: {exc}") from exc


SEQUENCES = {"tm": rw.thue_morse, "pf": rw.paperfolding}
PROFILE_FUNCTIONS = {
    "factor": rw.factor_complexity,
    "red": rw.reduced_factor_complexity,
    "abred": rw.reduced_abelian_complexity,
    "extremes": rw.alternation_extremes,
}


def public_profiles(policy):
    """``profile(sequence, kind, n)`` by the public profile functions, each computed once."""

    @functools.lru_cache(maxsize=None)
    def profile(sequence, kind, n):
        return PROFILE_FUNCTIONS[kind](SEQUENCES[sequence](), n, policy)

    return profile


def served_profiles(store, policy=None):
    """``profile(sequence, kind, n)``: the public profile function's, with the
    values of the store's table up to n in place of its own."""
    public = public_profiles(policy)

    def profile(sequence, kind, n):
        values = store.tables[sequence][kind][: n + 1]
        return dataclasses.replace(public(sequence, kind, n), values=values)

    return profile


def tm_abred_with(n_hi, changes):
    values = rw.reduced_abelian_complexity(rw.thue_morse(), n_hi).values.copy()
    for n, delta in changes.items():
        values[n] += delta
    return fake_profile("reduced_abelian", values)


class TestCounterexampleShapes:
    """Counterexamples of the extremes lemmas and the tm abred scanners on
    fabricated data, against plain loops over the stated identities."""

    @pytest.fixture(scope="class")
    def wrong_table(self):
        table = rw.alternation_extremes(rw.thue_morse(), 4 * 24 + 2)
        values = table.values.copy()
        # 9 and 13 sit on the right-hand sides, 20, 33, 41, 66 and 98 on the left
        for n, delta in ((9, -1), (20, 1), (33, -1), (98, 2)):
            values[n, 0] += delta
        for n, delta in ((13, 1), (41, 2), (66, -1)):
            values[n, 1] += delta
        return dataclasses.replace(table, values=values)

    def test_halving_with_a_wrong_table(self, wrong_table):
        expected = identity_counterexamples(wrong_table, range(2, 25), halving_identities)
        assert len(expected) >= 6
        report = rw.check_extremes_halving(24, table=wrong_table)
        assert report.status == "fail"
        assert report.counterexamples == tuple(expected)
        assert report.details == {"certified_window": wrong_table.certified_window}

    def test_mod4_with_a_wrong_table(self, wrong_table):
        expected = identity_counterexamples(wrong_table, range(1, 25), mod4_identities)
        assert len(expected) >= 6
        report = rw.check_extremes_mod4(24, table=wrong_table)
        assert report.status == "fail"
        assert report.counterexamples == tuple(expected)
        assert report.details == {"certified_window": wrong_table.certified_window}

    @pytest.mark.parametrize(
        "claim_id, length, identities, n_lo",
        [("tm_max_min", 2 * 24 + 1, halving_identities, 2), ("tm_mod4", 4 * 24 + 2, mod4_identities, 1)],
    )
    def test_claim_rows_read_the_stored_table(self, wrong_table, claim_id, length, identities, n_lo):
        report = rw.verify(claim_id, 24, profiles=store_with("tm", "extremes", length, wrong_table))
        expected = identity_counterexamples(wrong_table, range(n_lo, 25), identities)
        assert report.counterexamples == tuple(expected)
        assert (report.n_lo, report.n_hi, report.status) == (n_lo, 24, "fail")

    def test_odd_halving_with_a_fabricated_profile(self):
        profile = tm_abred_with(33, {3: 1, 11: -1, 21: 2, 33: 1})
        v = profile.values
        expected = [(n, v[n + 1], v[2 * n + 1]) for n in range(17) if v[2 * n + 1] != v[n + 1]]
        assert len(expected) >= 4
        report = rw.scan_odd_halving(16, profiles=store_with("tm", "abred", 33, profile))
        assert report.status == "fail"
        assert report.counterexamples == tuple(expected)
        assert report.details == {"certified_window": 0, "scanned": 17}

    def test_mod4_gap_with_a_fabricated_profile(self):
        profile = tm_abred_with(66, {6: 2, 20: -1, 22: 1, 44: -3, 66: 1})
        v = profile.values
        expected, signs = [], ""
        for n in range(1, 17):
            gap = v[4 * n + 2] - v[4 * n]
            predicate = 0 if rw.thue_morse_at(n + 1) == rw.thue_morse_at(3 * n + 1) else 1
            if abs(gap) != predicate:
                expected.append((n, predicate, abs(gap)))
            signs += "0" if gap == 0 else ("+" if gap > 0 else "-")
        assert len(expected) >= 3
        report = rw.verify("conj_mod4_gap", 16, profiles=store_with("tm", "abred", 66, profile))
        assert report.status == "fail"
        assert report.counterexamples == tuple(expected)
        assert report.details == {
            "certified_window": 0,
            "sign_pattern": signs,
            "zero": signs.count("0"),
            "positive": signs.count("+"),
            "negative": signs.count("-"),
        }
        assert report.details["sign_pattern"] != rw.scan_mod4_gap(16).details["sign_pattern"]


def numbers(field):
    """The numbers in a report field, through its tuples and dict keys and values."""
    if isinstance(field, dict):
        for key, value in field.items():
            yield from numbers(key)
            yield from numbers(value)
    elif isinstance(field, tuple):
        for value in field:
            yield from numbers(value)
    elif not isinstance(field, str):
        yield field


# wrong values, by length, for the rows below: a count, or (least, greatest)
WRONG_PF_RED = {11: 2, 19: -2, 20: 1}
WRONG_EXTREMES = {9: (-1, 0), 13: (0, 1), 20: (1, 0), 33: (-1, 0), 41: (0, 2), 66: (0, -1), 98: (2, 0)}


class TestClaimsAgainstReference:
    """Every row that compares profiles reports what it reports when it
    compares them one length at a time, on the profiles of the public
    profile functions. ``mu_alternation`` and ``odd_len`` are held to their
    per-word and per-window loops in TestStructuralLemmas."""

    @pytest.mark.parametrize("n_max", [1, 64, 512])
    @pytest.mark.parametrize("policy", list(POLICIES.values()), ids=list(POLICIES))
    def test_every_row_equals_the_reference(self, n_max, policy):
        profile = public_profiles(policy)
        # as `verify all` and `conjecture all` run them, the conjectures to 256
        for conjectures, bound in ((False, n_max), (True, min(n_max, 256))):
            ids = [cid for cid, claim in rw.CLAIMS.items() if (claim.kind == "conjecture") == conjectures]
            store = rw.plan_claims(ids, bound)
            for cid in ids:
                if rw.CLAIMS[cid].runner is None:
                    reference = outcome(lambda: reference_report(cid, bound, profile))
                    assert outcome(lambda: rw.verify(cid, bound, policy, store)) == reference, cid

    @pytest.mark.parametrize(
        "claim_id, sequence, kind, wrong",
        [
            ("f_3mod8", "pf", "red", WRONG_PF_RED),
            ("tm_red", "tm", "extremes", WRONG_EXTREMES),
            ("tm_max_min", "tm", "extremes", WRONG_EXTREMES),
            ("tm_mod4", "tm", "extremes", WRONG_EXTREMES),
        ],
    )
    def test_wrong_served_values(self, claim_id, sequence, kind, wrong):
        store = rw.plan_claims([claim_id], 64)
        assert rw.verify(claim_id, 64, profiles=store).ok
        table = store.tables[sequence][kind]
        for n, delta in wrong.items():
            if n < len(table):
                table[n] += delta
        report = rw.verify(claim_id, 64, profiles=store)
        assert report.status == "fail"
        assert report == reference_report(claim_id, 64, served_profiles(store))
        if claim_id == "tm_red":
            assert (report.details["recursion_status"], report.details["bridge_status"]) == ("pass", "fail")

    def test_reports_hold_python_ints(self):
        # every row that reads a table fails on these, and numpy scalars
        # would show in the text line and stop json
        store = rw.plan_claims(list(rw.CLAIMS), 64)
        for cid in rw.CLAIMS:
            rw.verify(cid, 64, profiles=store)
        for tables in store.tables.values():
            for table in tables.values():
                table.reshape(len(table), -1)[5::7, -1] += 1
        for cid, claim in rw.CLAIMS.items():
            report = rw.verify(cid, 64, profiles=store)
            assert report.ok == (claim.runner is not None), cid
            fields = (report.counterexamples, report.declared_exceptions, report.details)
            assert all(type(x) is int for x in numbers(fields)), cid
            json.dumps(dataclasses.asdict(report))


class TestKernelRank:
    def test_constant_sequence(self):
        est = rw.kernel_rank([5] * 600, base=2, depth=3, terms=32)
        assert est.ranks == (1, 1, 1, 1)
        assert est.final_rank == 1
        assert est.stabilized

    def test_tm_itself_has_rank_two(self):
        values = [rw.thue_morse_at(n) for n in range(1, 2049)]
        est = rw.kernel_rank(values, base=2, depth=4, terms=64)
        assert est.ranks == (1, 2, 2, 2, 2)

    def test_linear_sequence(self):
        est = rw.kernel_rank(list(range(600)), base=2, depth=3, terms=32)
        assert est.ranks == (1, 2, 2, 2)

    def test_geometric_sequence_keeps_growing(self):
        # 2^n is not base-2 regular; each depth contributes a new ratio
        est = rw.kernel_rank([2**n for n in range(200)], base=2, depth=3, terms=16)
        assert est.ranks == (1, 2, 3, 4)
        assert not est.stabilized

    def test_reduced_profile_rank_stabilizes(self, tm_handle):
        profile = rw.reduced_factor_complexity(tm_handle, 2048)
        est = rw.profile_kernel_rank(profile, base=2, depth=5, terms=64)
        assert est.ranks[-1] == est.ranks[-2]
        assert all(a <= b for a, b in zip(est.ranks, est.ranks[1:]))

    def test_insufficient_length(self):
        with pytest.raises(ConfigurationError, match="2048"):
            rw.kernel_rank([1] * 2047, base=2, depth=5, terms=64)
        # counts too large to build (2**10**9 * 64) or to print (10**6000 * 64)
        with pytest.raises(ConfigurationError, match="need more than 100"):
            rw.kernel_rank(range(100), depth=10**9)
        with pytest.raises(ConfigurationError, match="need more than 100"):
            rw.kernel_rank(range(100), base=10**3000, depth=2)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            rw.kernel_rank([1, 2, 3], base=1)
        with pytest.raises(ConfigurationError):
            rw.kernel_rank([1, 2, 3], depth=-1)
        with pytest.raises(ConfigurationError):
            rw.kernel_rank([1, 2, 3], terms=0)

    def test_depth_zero(self):
        est = rw.kernel_rank([1, 2, 3, 4], base=2, depth=0, terms=4)
        assert est.ranks == (1,)
