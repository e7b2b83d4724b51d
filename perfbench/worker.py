"""One `povm_lab.cli.main` invocation in a fresh process, timed from outside.

Usage: python3 worker.py SPEC.json

SPEC holds `src` (the package's source directory), `argv` (the CLI arguments),
`kind` and `result` (where to write the result JSON).  Kinds:

  call    untraced; the only wrappers mark entry into and time inside the
          search (`anneal` or `rankone.refine`), giving setup_s and search_s
  traced  every layer wrapper installed; spans go to SPEC["spans"] and the
          per-layer metrics into the result
  verify  plain call, no wrappers

peak_rss_mb is this process's ru_maxrss, so each invocation gets its own.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from povm_lab import cli

    import tracing

    kind = spec["kind"]
    clock = tracing.SearchClock()
    if kind == "traced":
        tracer = tracing.Tracer()
        replacements = tracing.layer_wrappers(tracer, clock)
        entry = tracer.wrap("cli.main", cli.main)
    elif kind == "verify":
        replacements, entry = [], cli.main
    else:
        replacements, entry = tracing.search_wrappers(clock), cli.main

    result = {"kind": kind, "rc": None, "error": None}
    with tracing.patched(replacements):
        start = time.perf_counter()
        try:
            result["rc"] = entry(spec["argv"])
        except Exception:  # reported to the benchmark, which counts the call as failed
            result["error"] = traceback.format_exc()
        end = time.perf_counter()

    result["wall_s"] = end - start
    if clock.first_entry is not None:
        result["setup_s"] = clock.first_entry - start
        result["search_s"] = clock.inside_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if kind == "traced":
        result["per_layer"] = tracing.per_layer_metrics(tracer)
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
