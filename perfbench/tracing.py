"""Wrappers that time calls into povm_lab's layers from outside the package.

Every wrapper is installed on the name the caller looks up.  The package uses
`from ... import`, so `dacm` is wrapped as `annealer.dacm` and `generate_grid`
as `cli.generate_grid`; functions called through a module (`linalg.*`,
`rankone.refine`, `catalog.conditional_sic_report`) are wrapped on that
module.  A wrapper records a span (name, start, end, parent) in memory,
re-raises exceptions unchanged and draws no random numbers, so a traced run
writes the same files as an untraced one.  A span's self time is its length
minus the length of its child spans.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


class SearchClock:
    """Times the search calls (`anneal` or `refine`): first entry and time inside."""

    def __init__(self):
        self.first_entry = None
        self.inside_s = 0.0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            if self.first_entry is None:
                self.first_entry = start
            try:
                return fn(*args, **kwargs)
            finally:
                self.inside_s += time.perf_counter() - start

        return timed


class Tracer:
    """In-memory span store plus counters filled by result hooks."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.counts = Counter()

    def wrap(self, name, fn, on_result=None):
        """`fn` with a span per call; `on_result(counts, args, result)` after a return."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._open[-1])
            self.span_end.append(0.0)
            self._open.append(idx)
            self.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.span_end[idx] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        """CSV `id,parent,name,start_s,end_s`, one row per span in start order."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i},{parent},{self.names[nid]},{start!r},{end!r}\n")

    def totals(self):
        """Per name: (calls, self seconds, inclusive seconds); plus child-call counts."""
        name = np.frombuffer(self.span_name, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        nested = parent >= 0
        child_s = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - child_s, minlength=k)
        incl_s = np.bincount(name, weights=dur, minlength=k)
        by_name = {
            n: (int(calls[i]), float(self_s[i]), float(incl_s[i])) for i, n in enumerate(self.names)
        }
        pairs = Counter(
            zip(
                (self.names[i] for i in name[parent[nested]]),
                (self.names[i] for i in name[nested]),
            )
        )
        return by_name, pairs


# ---- hooks: counts read from arguments and results at the layer boundary ----


def _on_grid(counts, args, states):
    spec = args[0]
    counts["statespace.grid_points"] += spec.points_per_axis**spec.pattern.unknown_count
    counts["statespace.grid_kept"] += states.shape[0]


def _on_anneal(counts, args, result):
    config, cluster = args[0], args[2]
    counts["annealer.steps"] += config.total_steps
    counts["statespace.cluster_size"] = max(counts["statespace.cluster_size"], cluster.size)
    counts["annealer.skipped_variants"] += result.skipped_variants


def _on_averaged_covariance(counts, args, result):
    counts["objective.member_rows"] += result.member_count


def _on_enumerate(counts, args, variants):
    counts["annealer.variants_built"] += len(variants)


def _on_glauber(counts, args, accepted):
    counts["annealer.accepted"] += bool(accepted)


def _on_refine(counts, args, result):
    config = args[1]
    anneal_records = 1 + math.ceil(config.total_steps / config.trace_every)
    counts["rankone.polish_sweeps"] += len(result.objective_trace) - anneal_records


def layer_wrappers(tracer, search_clock):
    """(owner, attribute, replacement) for every traced name.

    The search functions are wrapped by `search_clock` first, so setup and
    search times come from the same marks in traced and untraced runs.
    """
    from povm_lab import annealer, basis, catalog, cli, linalg, rankone

    table = [
        ("statespace.generate_grid", cli, "generate_grid", _on_grid),
        ("statespace.cluster_states", cli, "cluster_states", None),
        ("linalg.min_eigenvalue", linalg, "min_eigenvalue", None),
        ("linalg.hermitian_eigenvalues", linalg, "hermitian_eigenvalues", None),
        ("linalg.min_eigenvalue_trusted", linalg, "min_eigenvalue_trusted", None),
        ("linalg.determinant", linalg, "determinant", None),
        ("povm.complete_povm", annealer, "complete_povm", None),
        ("povm.metrics", annealer, "metrics", None),
        ("povm.metrics", cli, "metrics", None),
        ("objective.design_matrix", annealer, "design_matrix", None),
        ("objective.averaged_covariance", annealer, "averaged_covariance", _on_averaged_covariance),
        ("objective.dacm", annealer, "dacm", None),
        ("annealer.anneal", cli, "anneal", _on_anneal),
        ("annealer.perturb_element", annealer, "perturb_element", None),
        ("annealer.enumerate_variants", annealer, "enumerate_variants", _on_enumerate),
        ("annealer.glauber_accept", annealer, "glauber_accept", _on_glauber),
        ("rankone.refine", rankone, "refine", _on_refine),
        ("rankone.logistic_accept", rankone, "logistic_accept", None),
        ("catalog.conditional_sic_report", catalog, "conditional_sic_report", None),
    ]
    timed = {(owner, attr): fn for owner, attr, fn in search_wrappers(search_clock)}
    out = []
    for name, owner, attr, hook in table:
        fn = timed.get((owner, attr), getattr(owner, attr))
        out.append((owner, attr, tracer.wrap(name, fn, hook)))
    stack = vars(basis.OrthonormalBasis)["stack"]
    out.append(
        (basis.OrthonormalBasis, "stack", property(tracer.wrap("basis.OrthonormalBasis.stack", stack.fget)))
    )
    return out


def search_wrappers(search_clock):
    """The untraced run's only wrappers: marks around `anneal` and `refine`."""
    from povm_lab import cli, rankone

    return [
        (cli, "anneal", search_clock.wrap(cli.anneal)),
        (rankone, "refine", search_clock.wrap(rankone.refine)),
    ]


@contextmanager
def patched(replacements):
    """Install (owner, attribute, value) replacements; restore the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ---- per-layer metrics ----

TIMED = [
    "linalg.min_eigenvalue",
    "linalg.hermitian_eigenvalues",
    "linalg.min_eigenvalue_trusted",
    "linalg.determinant",
    "basis.OrthonormalBasis.stack",
    "povm.complete_povm",
    "povm.metrics",
    "objective.design_matrix",
    "objective.averaged_covariance",
    "objective.dacm",
    "annealer.perturb_element",
    "annealer.enumerate_variants",
    "rankone.refine",
    "catalog.conditional_sic_report",
]

PER_LAYER_UNITS = {
    "statespace.generate_grid.self_s": "s",
    "statespace.cluster_states.self_s": "s",
    "statespace.grid_points": "count",
    "statespace.grid_kept": "count",
    "statespace.grid_keep_ratio": "ratio",
    "statespace.cluster_size": "count",
    **{f"{n}.{kind}": unit for n in TIMED for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "povm.closure_rejected": "count",
    "objective.member_rows": "count",
    "annealer.anneal.self_s": "s",
    "annealer.steps": "count",
    "annealer.step_ms": "ms",
    "annealer.resample_exhausted": "count",
    "annealer.variant_candidates": "count",
    "annealer.variants_built": "count",
    "annealer.variant_valid_ratio": "ratio",
    "annealer.skipped_variants": "count",
    "annealer.glauber_accept.calls": "count",
    "annealer.accept_ratio": "ratio",
    "rankone.polish_sweeps": "count",
    "rankone.logistic_accept.calls": "count",
    "cli.main.self_s": "s",
    "tracing_overhead_s": "s",
}


def _ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was attempted (the base is reported beside it)."""
    return num / den if den else 0.0


def per_layer_metrics(tracer) -> dict:
    """Every per-layer metric except `tracing_overhead_s`, which needs an untraced run."""
    by_name, pairs = tracer.totals()
    counts = tracer.counts

    def calls(n):
        return by_name.get(n, (0, 0.0, 0.0))[0]

    def self_s(n):
        return by_name.get(n, (0, 0.0, 0.0))[1]

    out = {
        "statespace.generate_grid.self_s": self_s("statespace.generate_grid"),
        "statespace.cluster_states.self_s": self_s("statespace.cluster_states"),
    }
    for key in ("statespace.grid_points", "statespace.grid_kept"):
        out[key] = counts[key]
    out["statespace.grid_keep_ratio"] = _ratio(counts["statespace.grid_kept"], counts["statespace.grid_points"])
    out["statespace.cluster_size"] = counts["statespace.cluster_size"]
    for n in TIMED:
        out[f"{n}.calls"] = calls(n)
        out[f"{n}.self_s"] = self_s(n)
    candidates = pairs[("annealer.enumerate_variants", "povm.complete_povm")]
    steps = counts["annealer.steps"]
    out.update(
        {
            "povm.closure_rejected": counts["povm.complete_povm.raised.ClosureNotPositive"],
            "objective.member_rows": counts["objective.member_rows"],
            "annealer.anneal.self_s": self_s("annealer.anneal"),
            "annealer.steps": steps,
            "annealer.step_ms": _ratio(1000.0 * by_name.get("annealer.anneal", (0, 0.0, 0.0))[2], steps),
            "annealer.resample_exhausted": counts["annealer.perturb_element.raised.ResampleExhausted"],
            "annealer.variant_candidates": candidates,
            "annealer.variants_built": counts["annealer.variants_built"],
            "annealer.variant_valid_ratio": _ratio(counts["annealer.variants_built"], candidates),
            "annealer.skipped_variants": counts["annealer.skipped_variants"],
            "annealer.glauber_accept.calls": calls("annealer.glauber_accept"),
            "annealer.accept_ratio": _ratio(counts["annealer.accepted"], calls("annealer.glauber_accept")),
            "rankone.polish_sweeps": counts["rankone.polish_sweeps"],
            "rankone.logistic_accept.calls": calls("rankone.logistic_accept"),
            "cli.main.self_s": self_s("cli.main"),
        }
    )
    return out
