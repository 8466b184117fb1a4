"""Shared golden data and fixtures.

The constants below are the frozen reference values every engine is held
to: the two 2-symbol prefixes and the eight complexity profiles. They were
cross-checked against independent brute-force window scans at two prefix
lengths before being frozen here; tests must never recompute them from the
code under test.
"""

from pathlib import Path

import pytest

import reduxwords as rw

TM_PREFIX_54 = "011010011001011010010110011010011001011001101001011010"
PF_PREFIX_55 = "0010011000110110001001110011011000100110001101110010011"

RHO_T_15 = [2, 4, 6, 10, 12, 16, 20, 22, 24, 28, 32, 36, 40, 42, 44]
RHO_RED_T_23 = [2, 4, 4, 6, 4, 6, 6, 6, 4, 6, 6, 8, 6, 8, 6, 6, 4, 6, 6, 8, 6, 8, 8]
RHO_F_15 = [2, 4, 8, 12, 18, 23, 28, 32, 36, 40, 44, 48, 52, 56, 60]
RHO_RED_F_23 = [2, 4, 6, 4, 6, 4, 6, 4, 4, 4, 6, 4, 6, 4, 6, 4, 4, 4, 6, 4, 6, 4, 6]
RHO_AB_F_21 = [2, 3, 4, 3, 4, 5, 4, 3, 4, 5, 6, 5, 4, 5, 4, 3, 4, 5, 6, 5, 6]
RHO_AB_T_16 = [2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3]
RHO_ABRED_F_22 = [2, 3, 5, 3, 4, 3, 5, 3, 4, 3, 5, 3, 4, 3, 5, 3, 4, 3, 5, 3, 4, 3]
RHO_ABRED_T_19 = [2, 3, 3, 4, 3, 5, 4, 5, 3, 4, 5, 6, 4, 6, 5, 4, 3, 5, 4]

ALL_CLAIM_IDS = {
    "tm_red", "pf_red", "abred_f", "rho_t_A005942", "rho_f_4n",
    "mu_alternation", "tm_max_min", "tm_mod4", "odd_len",
    "f_2n", "f_1mod8", "f_3mod8", "f_5mod8", "f_7mod8",
    "conj_odd_halving", "conj_mod4_gap",
}


def profile_values(profile, n_hi):
    return [profile.values[n] for n in range(1, n_hi + 1)]


def table_values(table):
    """A table of values indexed by n (an array, slot 0 unused) as a
    profile's values: {n: value} for every n >= 1, a row of two as a pair."""
    return {n: tuple(v) if isinstance(v, list) else v for n, v in enumerate(table.tolist()) if n}


DATA = Path(__file__).resolve().parent / "data"


def pointwise_handle(rule, alphabet_size, name, max_prefix=None):
    """Handle for a scalar rule ``n -> symbol`` (n >= 1), called once per symbol."""

    def extend(buf, target):
        return [rule(n) for n in range(len(buf) + 1, target + 1)]

    return rw.SequenceHandle(name, alphabet_size, extend, max_prefix=max_prefix)


def all_binary_words(max_len):
    for length in range(1, max_len + 1):
        for bits in range(1 << length):
            yield tuple((bits >> i) & 1 for i in range(length))


@pytest.fixture(scope="session")
def tm_handle():
    return rw.thue_morse()


@pytest.fixture(scope="session")
def pf_handle():
    return rw.paperfolding()
