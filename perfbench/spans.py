"""Span recording for traced benchmark runs, and the per-layer metrics read from it.

A traced run wraps the public calls into each reduxwords layer (sequences,
complexity, theorems, words, cli) and records one span per call: name, start,
end, parent span and a few attributes. Spans stay in memory and are written
out as JSON when the run ends; :func:`layer_metrics` turns them into the
per-layer numbers.

Modules bind imported names at import time, so every wrapper is installed in
each namespace that holds a reference to the original (the package, the
defining module, the modules that import it, and ``cli.KIND_ENGINES``).
Methods are wrapped on their class, which covers every caller.

Runs are single-threaded, so spans nest properly: a span's children are
sequential and never overlap, and self time is the span's duration minus the
sum of its children's durations.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

LAYERS = ("sequences", "complexity", "theorems", "words", "cli")

PROFILE_FUNCTIONS = (
    "factor_complexity",
    "abelian_complexity",
    "reduced_factor_complexity",
    "reduced_abelian_complexity",
    "alternation_extremes",
)
WORD_FUNCTIONS = (
    "reduce",
    "run_decomposition",
    "alternations",
    "trim_first",
    "trim_last",
    "parikh",
    "reduced_key",
    "abelian_reduced_key",
)

# Span fields, in the order each span list holds them.
NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Records spans around wrapped calls; one tracer per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``attrs(args, kwargs, result)`` adds attributes after a call returns.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _prefix_attrs(args, kwargs, result):
    length = args[1] if len(args) > 1 else kwargs["length"]
    # Bytes of the returned container: the list (or, for a Word, its tuple)
    # of pointers to the cached small-int symbols.
    container = getattr(result, "symbols", result)
    return {"n": length, "bytes": sys.getsizeof(container)}


def _profile_attrs(args, kwargs, result):
    n_max = args[1] if len(args) > 1 else kwargs["n_max"]
    return {"sequence": args[0].name, "n_max": n_max}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer, in every namespace that names them."""
    import reduxwords
    from reduxwords import cli, complexity, sequences, theorems, words

    namespaces = [vars(m) for m in (reduxwords, cli, complexity, sequences, theorems, words)]
    namespaces.append(cli.KIND_ENGINES)

    def patch(original, name, attrs=None):
        wrapper = tracer.wrap(name, original, attrs)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapper

    def patch_method(cls, attr, name, attrs=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), attrs))

    patch_method(sequences.SequenceHandle, "prefix", "sequences.prefix", _prefix_attrs)
    patch_method(sequences.SequenceHandle, "prefix_symbols", "sequences.prefix", _prefix_attrs)
    patch_method(sequences.Morphism, "apply", "sequences.apply")
    patch(sequences.load_sequence_spec, "sequences.load_spec")

    for fn in PROFILE_FUNCTIONS:
        patch(getattr(complexity, fn), f"complexity.profile.{fn}", _profile_attrs)
    patch_method(complexity.AlternationPrefix, "__init__", "complexity.index")

    patch(theorems.verify, "theorems.verify")
    patch(theorems.profile_kernel_rank, "theorems.kernel")
    patch(theorems.kernel_rank, "theorems.kernel")

    patch_method(words.Word, "__init__", "words.Word")
    for fn in WORD_FUNCTIONS:
        patch(getattr(words, fn), f"words.{fn}")

    patch(cli.main, "cli.main")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans.

    Every ``<layer>.self_s`` (``words.s`` and ``cli.emit_s`` for the words
    and cli layers) is a sum of span self times, so together they account
    for all time spent inside traced calls.
    """
    count = len(spans)
    child_time = [0.0] * count
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def duration(i):
        return spans[i][END] - spans[i][START]

    def self_time(i):
        return duration(i) - child_time[i]

    def has_ancestor(i, prefix):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME].startswith(prefix):
                return True
            p = spans[p][PARENT]
        return False

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        self_by_layer[span[NAME].split(".", 1)[0]] += self_time(i)
        group = "complexity.profile" if span[NAME].startswith("complexity.profile") else span[NAME]
        by_name.setdefault(group, []).append(i)

    prefixes = by_name.get("sequences.prefix", [])
    profiles = by_name.get("complexity.profile", [])
    words_spans = [i for name, ids in by_name.items() if name.startswith("words.") for i in ids]

    # A profile requests one prefix per scan: the first scan, then one per
    # certification doubling.
    scans = scanned = certify_symbols = 0
    certify_s = 0.0
    scan_children: dict[int, list[int]] = {}
    for i in prefixes:
        parent = spans[i][PARENT]
        if parent >= 0 and spans[parent][NAME].startswith("complexity.profile"):
            scan_children.setdefault(parent, []).append(i)
    for parent, children in scan_children.items():
        sizes = [spans[i][ATTRS]["n"] for i in children]
        scans += len(sizes)
        scanned += sum(sizes)
        certify_symbols += sum(sizes[1:])
        if len(children) > 1:
            certify_s += spans[parent][END] - spans[children[1]][START]

    requests = [i for i in profiles if has_ancestor(i, "theorems.")]
    distinct = {
        (spans[i][NAME], spans[i][ATTRS]["sequence"], spans[i][ATTRS]["n_max"]) for i in requests
    }
    kernels = [i for i in by_name.get("theorems.kernel", []) if not has_ancestor(i, "theorems.kernel")]

    def total(ids, measure=duration):
        return sum(measure(i) for i in ids)

    return {
        "sequences.self_s": self_by_layer["sequences"],
        "sequences.prefix_s": total(prefixes),
        "sequences.prefix_calls": len(prefixes),
        "sequences.max_prefix_symbols": max((spans[i][ATTRS]["n"] for i in prefixes), default=0),
        "sequences.buffer_bytes": max((spans[i][ATTRS]["bytes"] for i in prefixes), default=0),
        "complexity.self_s": self_by_layer["complexity"],
        "complexity.profile_s": total(profiles),
        "complexity.index_s": total(by_name.get("complexity.index", [])),
        "complexity.count_s": total(profiles, self_time),
        "complexity.profile_calls": len(profiles),
        "complexity.scans": scans,
        "complexity.scanned_symbols": scanned,
        "complexity.certify_s": certify_s,
        "complexity.certify_frac": certify_symbols / scanned if scanned else 0.0,
        "theorems.self_s": self_by_layer["theorems"],
        "theorems.verify_s": total(by_name.get("theorems.verify", [])),
        "theorems.compare_s": total(by_name.get("theorems.verify", []), self_time),
        "theorems.profile_requests": len(requests),
        "theorems.distinct_profile_frac": len(distinct) / len(requests) if requests else 0.0,
        "theorems.kernel_s": total(kernels),
        "words.s": self_by_layer["words"],
        "words.calls": len(words_spans),
        "cli.s": total(by_name.get("cli.main", [])),
        "cli.emit_s": self_by_layer["cli"],
        "trace.spans": count,
    }
