"""Command-line front end: anneal / refine / verify / gridinfo.

Config files are flat `key = value` text with dotted section prefixes; blank
lines and `#` comments are ignored, unknown or duplicate keys are errors.
`_CONFIG_KEYS` maps each key to a field of `ExperimentConfig`, its
`ParameterPattern`, `AnnealConfig` or `RefineSettings`; a key that is not given
keeps the default declared on that field, and those defaults describe the qutrit
diagonal-known experiment, so a minimal anneal config is just `mode = anneal`.
`docs/qutrit_anneal.cfg` writes every fixed default out; README has the key
table.  Refine restart r runs Levenberg-Marquardt from phases drawn by the
standard library's `random.Random(f"{refine.seed},{r}")`, so refine never
loads `numpy.random`; the search itself has no keys.  `verify` prints one
line per check of `catalog.claim_checks`, which evaluates `catalog.CLAIMS`.

The command line is `MODE [--config FILE] [--out DIR]`; only the keys set the
seeds.  `_parse_args` reads it by hand, because the standard library's option
parser imports `gettext` and `locale` to build its first parser, which took
about a third of a cold `refine` call's wall time.
"""

from __future__ import annotations

import gc
import logging
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import catalog, linalg, rankone
from .annealer import RUN_COUNTERS, AnnealConfig, anneal, random_initial_povm, write_trace
from .basis import ParameterPattern, bloch_to_state, gell_mann_basis
from .errors import ConfigurationError, EmptyClusterSelection, PovmLabError
from .povm import metrics, write_povm
from .statespace import GridSpec, cluster_states, generate_grid, select_cluster

log = logging.getLogger("povm_lab")

MODES = ("anneal", "refine", "verify", "gridinfo")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass
class RefineSettings:
    restarts: int = 5
    element_count: Optional[int] = None  # None: N + 1
    seed: int = 0  # restart r draws its start from random.Random(f"{seed},{r}")


@dataclass
class ExperimentConfig:
    mode: str
    pattern: ParameterPattern = catalog.DEFAULT_PATTERNS[3]
    grid_points: int = 7
    grid_cells: int = 10
    theta_ref: Optional[np.ndarray] = None
    anneal: AnnealConfig = field(default_factory=AnnealConfig)
    refine: RefineSettings = field(default_factory=RefineSettings)
    output_dir: str = "."


def _parse_int(s):
    return int(s, 10)


def _parse_float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {s!r}")
    return v


def _parse_int_list(s):
    return [int(x) for x in s.split(",") if x.strip() != ""]


def _parse_float_list(s):
    return [_parse_float(x) for x in s.split(",") if x.strip() != ""]


def _parse_float_array(s):
    return np.asarray(_parse_float_list(s), dtype=float)


# key -> (target, field, parser).  The target says where the value goes:
# "config" is ExperimentConfig itself, "anneal" its AnnealConfig, "refine" its
# RefineSettings, and "pattern" the dimension and the two lists build_config
# turns into a ParameterPattern.
_CONFIG_KEYS = {
    "mode": ("config", "mode", str),
    "dim": ("pattern", "dim", _parse_int),
    "pattern.known_indices": ("pattern", "known_indices", _parse_int_list),
    "pattern.known_values": ("pattern", "known_values", _parse_float_list),
    "grid.points_per_axis": ("config", "grid_points", _parse_int),
    "grid.cells": ("config", "grid_cells", _parse_int),
    "grid.theta_ref": ("config", "theta_ref", _parse_float_array),
    "anneal.total_steps": ("anneal", "total_steps", _parse_int),
    "anneal.seed": ("anneal", "rng_seed", _parse_int),
    "anneal.trace_every": ("anneal", "trace_every", _parse_int),
    "refine.restarts": ("refine", "restarts", _parse_int),
    "refine.element_count": ("refine", "element_count", _parse_int),
    "refine.seed": ("refine", "seed", _parse_int),
    "output.dir": ("config", "output_dir", str),
}


def parse_config(text: str, mode: Optional[str] = None) -> ExperimentConfig:
    """Parse the flat key = value format; descriptive errors carry line numbers."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key][2](val)
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return build_config(values, mode)


def build_config(values: dict, mode: Optional[str] = None) -> ExperimentConfig:
    """The dataclass defaults with the given parsed `values` applied, range-checked."""
    given = {target: {} for target in ("config", "anneal", "refine", "pattern")}
    for key, value in values.items():
        target, name, _ = _CONFIG_KEYS[key]
        given[target][name] = value
    mode = mode or values.get("mode")
    if not mode:
        raise ConfigurationError("missing required key `mode`")
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; expected one of {MODES}")
    cfg = ExperimentConfig(**{**given["config"], "mode": mode})
    dim = given["pattern"].get("dim", cfg.pattern.dim)
    if dim not in (2, 3, 4):
        raise ConfigurationError(f"dim must be 2, 3 or 4, got {dim}")

    known_idx = given["pattern"].get("known_indices")
    known_val = given["pattern"].get("known_values")
    if (known_idx is None) != (known_val is None):
        raise ConfigurationError(
            "pattern.known_indices and pattern.known_values must be given together"
        )
    cfg.pattern = catalog.DEFAULT_PATTERNS[dim]
    if known_idx is not None:
        try:
            cfg.pattern = ParameterPattern(dim, known_idx, known_val)
        except PovmLabError as exc:
            raise ConfigurationError(str(exc)) from exc

    if cfg.grid_points < 2:
        raise ConfigurationError(f"grid.points_per_axis must be >= 2, got {cfg.grid_points}")
    if cfg.grid_cells < 1:
        raise ConfigurationError(f"grid.cells must be >= 1, got {cfg.grid_cells}")
    unknown_count = cfg.pattern.unknown_count
    if cfg.theta_ref is not None and cfg.theta_ref.shape != (unknown_count,):
        raise ConfigurationError(
            f"grid.theta_ref needs {unknown_count} entries, got {cfg.theta_ref.shape[0]}"
        )

    # AnnealConfig.__post_init__ range-checks the anneal keys; the anneal runs
    # the one `annealer.schedule`, which only total_steps can make underflow
    cfg.anneal = replace(cfg.anneal, **given["anneal"])
    cfg.refine = replace(cfg.refine, **given["refine"])

    m = cfg.refine.element_count
    if m is not None and m < 2:
        raise ConfigurationError(f"refine.element_count must be >= 2, got {m}")
    if cfg.refine.restarts < 1:
        raise ConfigurationError("refine.restarts must be >= 1")
    if cfg.refine.seed < 0:
        raise ConfigurationError(f"refine.seed must be >= 0, got {cfg.refine.seed}")
    return cfg


def _build_cluster(cfg: ExperimentConfig):
    spec = GridSpec(cfg.grid_points, cfg.pattern)
    clusters = cluster_states(generate_grid(spec), cfg.grid_cells, gell_mann_basis(cfg.pattern.dim))
    cl = select_cluster(clusters, cfg.theta_ref, cfg.pattern)
    log.info("cluster %s with %d members", cl.key, cl.size)
    return clusters, cl


def _write_result(cfg: ExperimentConfig, name: str, P, lines) -> None:
    """Write a search's POVM `P` to `name` and its `report.txt` in output.dir:
    the conditional-SIC report, sigma, delta and Delta, then the mode's `lines`.
    One `linalg.spectra` of the elements and one `catalog.report_overlap` of
    the elements and the known directions serve the report and the metrics."""
    write_povm(P, os.path.join(cfg.output_dir, name))
    evals = linalg.spectra(P.elements)
    overlap = catalog.report_overlap(P, cfg.pattern)
    mk = metrics(P, evals, overlap)
    text = [
        catalog.report_to_text(catalog.conditional_sic_report(P, cfg.pattern, evals, overlap)),
        "",
        f"sigma  {mk.sigma!r}",
        f"delta  {mk.delta!r}",
        f"Delta  {mk.Delta!r}",
        *lines,
    ]
    with open(os.path.join(cfg.output_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(text) + "\n")


def _log_phase_seconds(*clock: float) -> None:
    """Log the setup, search and write seconds between four clock readings."""
    log.info("phase seconds: setup %.3f, search %.3f, write %.3f", *np.diff(clock))


def _run_anneal(cfg: ExperimentConfig) -> int:
    start = time.perf_counter()
    _, cl = _build_cluster(cfg)
    init_rng = np.random.default_rng([cfg.anneal.rng_seed, 1])
    initial = random_initial_povm(cfg.pattern, init_rng)
    os.makedirs(cfg.output_dir, exist_ok=True)
    search_start = time.perf_counter()
    result = anneal(cfg.anneal, initial, cl, cfg.pattern)
    search_end = time.perf_counter()
    write_trace(result.trace, os.path.join(cfg.output_dir, "trace.csv"))
    lines = [
        f"dacm_best  {result.best_dacm!r}",
        f"log_dacm_best  {result.best_log_dacm!r}",
        f"steps  {cfg.anneal.total_steps}",
        f"seed  {cfg.anneal.rng_seed}",
        *(f"{name}  {getattr(result, name)}" for name in RUN_COUNTERS),
    ]
    _write_result(cfg, "best_povm.txt", result.best, lines)
    done = time.perf_counter()
    log.info("best DACM %.6g after %d steps", result.best_dacm, cfg.anneal.total_steps)
    _log_phase_seconds(start, search_start, search_end, done)
    return EXIT_OK


def _run_refine(cfg: ExperimentConfig) -> int:
    start = time.perf_counter()
    n = cfg.pattern.dim
    # rank-one elements with constant diagonal are quasi-orthogonal to the
    # diagonal generators and to no other direction
    diagonal = list(gell_mann_basis(n).diagonal_indices)
    if sorted(cfg.pattern.known_indices) != diagonal:
        raise ConfigurationError(
            f"refine needs the known indices to be the diagonal generators {diagonal}, "
            f"got {sorted(cfg.pattern.known_indices)}"
        )
    m = cfg.refine.element_count or cfg.pattern.unknown_count + 1
    seed = cfg.refine.seed
    os.makedirs(cfg.output_dir, exist_ok=True)
    search_start = time.perf_counter()
    best = None
    for r in range(cfg.refine.restarts):
        initial = rankone.random_phases(n, m, random.Random(f"{seed},{r}"))
        # refine does not read the config; total_steps=0 lets the tracer
        # count every trace record after the first as an LM iteration
        res = rankone.refine(initial, AnnealConfig(total_steps=0))
        log.info("restart %d: objective %.3e", r, res.objective)
        if best is None or res.objective < best.objective:
            best = res
    search_end = time.perf_counter()
    pov, violations = rankone.phases_to_povm(best.phases)
    rankone.write_phases(best.phases, os.path.join(cfg.output_dir, "phases.csv"))
    lines = [
        f"objective  {best.objective!r}",
        f"restarts  {cfg.refine.restarts}",
        f"seed  {seed}",
        *(f"violation  {v.name} {v.magnitude!r}" for v in violations),
    ]
    _write_result(cfg, "povm.txt", pov, lines)
    done = time.perf_counter()
    log.info("best refine objective %.3e", best.objective)
    _log_phase_seconds(start, search_start, search_end, done)
    return EXIT_OK


def _run_gridinfo(cfg: ExperimentConfig) -> int:
    # an invalid grid fails here, before anything is printed
    clusters, selected = _build_cluster(cfg)
    b = gell_mann_basis(cfg.pattern.dim)
    print(f"# basis index map (dim = {b.dim})")
    for i, label in enumerate(b.labels, 1):
        tag = ""
        if i in cfg.pattern.known_indices:
            v = cfg.pattern.known_values[cfg.pattern.known_indices.index(i)]
            tag = f"\tknown = {v!r}"
        print(f"{i}\t{label}{tag}")
    print(f"# clusters (cells = {cfg.grid_cells})")
    print("key\tsize\trepresentative_eigenvalues\tselected")
    keys = sorted(clusters)
    firsts = linalg.spectra(bloch_to_state([clusters[key].members[0] for key in keys], b))
    for key, evals in zip(keys, firsts):
        mark = "*" if key == selected.key else ""
        print(
            ",".join(str(k) for k in key)
            + f"\t{clusters[key].size}\t"
            + " ".join(f"{v:.6f}" for v in evals)
            + f"\t{mark}"
        )
    return EXIT_OK


def _run_verify() -> int:
    failures = 0
    checks = catalog.claim_checks()
    for name, fn in checks:
        try:
            residual = fn()
            ok = residual <= catalog.VERIFY_TOL
        except PovmLabError as exc:
            residual, ok = float("nan"), False
            log.error("%s raised %s", name, exc)
        status = "ok" if ok else "FAIL"
        print(f"{status}\t{name}\t{residual:.3e}")
        if not ok:
            failures += 1
    status = "ok" if failures == 0 else "FAIL"
    print(f"{status}\t{len(checks) - failures} passed, {failures} failed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def run(cfg: ExperimentConfig) -> int:
    """Dispatch one experiment; returns the process exit code."""
    try:
        if cfg.mode == "anneal":
            return _run_anneal(cfg)
        if cfg.mode == "refine":
            return _run_refine(cfg)
        if cfg.mode == "gridinfo":
            return _run_gridinfo(cfg)
        if cfg.mode == "verify":
            return _run_verify()
        raise ConfigurationError(f"unknown mode {cfg.mode!r}")
    except (ConfigurationError, EmptyClusterSelection) as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:  # output.dir cannot be created or written
        log.error("cannot write outputs: %s", exc)
        return EXIT_CONFIG
    except PovmLabError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL


def _setup_logging():
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("POVM_LAB_LOG", "info"), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(message)s", stream=sys.stderr)


USAGE = f"usage: povm-lab {{{','.join(MODES)}}} [--config FILE] [--out DIR]"


def _parse_args(argv):
    """(mode, {"config": ..., "out": ...} for the flags given) from
    `MODE [--config FILE] [--out DIR]`, or None for -h / --help.  Flags go
    before or after the mode, as `--flag value` or `--flag=value`; the value is
    the next argument whatever it starts with.  A repeated flag keeps its last
    value.  A misuse raises ValueError saying what is wrong."""
    mode, flags = None, {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        if not arg.startswith("-"):
            if mode is not None:
                raise ValueError(f"unexpected argument {arg!r}")
            mode = arg
            continue
        name, eq, value = arg.partition("=")
        if name not in ("--config", "--out"):
            raise ValueError(f"unknown flag {name!r}")
        if not eq:
            value = next(args, None)
            if value is None:
                raise ValueError(f"{name} needs a value")
        flags[name[2:]] = value
    if mode not in MODES:
        raise ValueError("a mode is required" if mode is None else f"unknown mode {mode!r}")
    return mode, flags


def main(argv=None) -> int:
    # What the imports built (numpy's modules above all) outlives the run.
    # Frozen, it is left out of the run's garbage collections, so one that
    # falls in setup or search scans only the run's own objects, not the
    # ~2 x 10^4 import-time ones (about 1 ms a collection on a 2-core VM).
    # Refcounting still frees frozen objects.
    gc.freeze()
    _setup_logging()
    try:
        parsed = _parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"{USAGE}\npovm-lab: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if parsed is None:
        print(USAGE)
        return EXIT_OK
    mode, flags = parsed

    try:
        if "config" in flags:
            try:
                with open(flags["config"], encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"cannot read config {flags['config']!r}: {exc}") from exc
            cfg = parse_config(text, mode=mode)
        elif mode == "verify":
            cfg = build_config({}, mode="verify")
        else:
            raise ConfigurationError(f"mode {mode!r} requires --config")
        if "out" in flags:
            cfg.output_dir = flags["out"]
    except ConfigurationError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
