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
loads `numpy.random`; the search itself has no keys.

`_parse_args` reads the command line by hand, because the standard library's
option parser imports `gettext` and `locale` to build its first parser, which
took about a third of a cold `refine` call's wall time.
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
from .annealer import (
    INIT_SCALE,
    RUN_COUNTERS,
    AnnealConfig,
    anneal,
    random_initial_povm,
    write_trace,
)
from .basis import ParameterPattern, bloch_radius_bound, bloch_to_state, gell_mann_basis
from .errors import (
    ConfigurationError,
    EmptyClusterSelection,
    PovmLabError,
)
from .povm import metrics, overlap_matrix, validate, write_povm
from .statespace import GridSpec, cluster_states, generate_grid, select_cluster

log = logging.getLogger("povm_lab")

MODES = ("anneal", "refine", "verify", "gridinfo")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# every `verify` residual passes at or below this
VERIFY_TOL = 1e-12

DEFAULT_KNOWN = {
    2: {3: 0.0},
    3: {7: 0.0, 8: 0.0},
    4: {i: 0.0 for i in range(1, 16) if i not in (3, 12, 15)},
}


@dataclass
class RefineSettings:
    restarts: int = 5
    element_count: Optional[int] = None  # None: N + 1
    seed: int = 0  # restart r draws its start from random.Random(f"{seed},{r}")


@dataclass
class ExperimentConfig:
    mode: str
    pattern: ParameterPattern = ParameterPattern.from_known(3, DEFAULT_KNOWN[3])
    grid_points: int = 7
    grid_bound: Optional[float] = None  # None: bloch_radius_bound(pattern.dim)
    grid_cells: int = 10
    theta_ref: Optional[np.ndarray] = None
    anneal: AnnealConfig = field(default_factory=AnnealConfig)
    init_scale: float = INIT_SCALE
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
    "grid.bound": ("config", "grid_bound", _parse_float),
    "grid.cells": ("config", "grid_cells", _parse_int),
    "grid.theta_ref": ("config", "theta_ref", _parse_float_array),
    "anneal.total_steps": ("anneal", "total_steps", _parse_int),
    "anneal.s0": ("anneal", "s0", _parse_float),
    "anneal.s_decay": ("anneal", "s_decay", _parse_float),
    "anneal.T0": ("anneal", "T0", _parse_float),
    "anneal.T_decay": ("anneal", "T_decay", _parse_float),
    "anneal.reheat_every": ("anneal", "reheat_every", _parse_int),
    "anneal.reheat_factor": ("anneal", "reheat_factor", _parse_float),
    "anneal.seed": ("anneal", "rng_seed", _parse_int),
    "anneal.trace_every": ("anneal", "trace_every", _parse_int),
    "anneal.init_scale": ("config", "init_scale", _parse_float),
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
    if known_idx is None:
        known_idx, known_val = list(DEFAULT_KNOWN[dim]), list(DEFAULT_KNOWN[dim].values())
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

    # AnnealConfig.__post_init__ range-checks the anneal schedule
    cfg.anneal = replace(cfg.anneal, **given["anneal"])
    cfg.refine = replace(cfg.refine, **given["refine"])

    m = cfg.refine.element_count
    if m is not None and m < 2:
        raise ConfigurationError(f"refine.element_count must be >= 2, got {m}")
    if cfg.init_scale <= 0:
        raise ConfigurationError("anneal.init_scale must be positive")
    if cfg.refine.restarts < 1:
        raise ConfigurationError("refine.restarts must be >= 1")
    if cfg.refine.seed < 0:
        raise ConfigurationError(f"refine.seed must be >= 0, got {cfg.refine.seed}")
    return cfg


def _build_cluster(cfg: ExperimentConfig):
    bound = cfg.grid_bound if cfg.grid_bound is not None else bloch_radius_bound(cfg.pattern.dim)
    spec = GridSpec(cfg.grid_points, bound, cfg.pattern)
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
    initial = random_initial_povm(cfg.pattern, init_rng, cfg.init_scale)
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
    # diagonal generators and to no other direction; the rows of entry_map
    # past the first n hold each generator's off-diagonal entries
    off_diagonal = gell_mann_basis(n).entry_map[n:]
    diagonal = (np.flatnonzero(~off_diagonal.any(axis=0)) + 1).tolist()
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


def _sum_residual(elements, target) -> float:
    """max |sum_i E_i - target| over matrix entries of an (m, n, n) stack."""
    return float(np.abs(elements.sum(axis=0) - target).max())


def _spectrum_residual(elements, target) -> float:
    """max over elements of |eigenvalues (descending) - target|."""
    return float(np.abs(linalg.spectra(elements) - target).max())


def _overlap_residual(elements, target) -> float:
    """max |Tr(E_i E_j) - target| over ordered pairs i != j."""
    cross = overlap_matrix(elements)[~np.eye(len(elements), dtype=bool)]
    return float(np.abs(cross - target).max())


def _verdict_residual(pov, pattern, c=None, d=None) -> float:
    """0 if the conditional-SIC report passes with the given c and d, else 1."""
    rep = catalog.conditional_sic_report(pov, pattern)
    targets = ((rep.c, c), (rep.d, d))
    ok = rep.verdict and all(t is None or abs(v - t) < VERIFY_TOL for v, t in targets)
    return 0.0 if ok else 1.0


def _verify_checks():
    """The catalog oracle suite: (name, callable) pairs; each callable returns a
    residual that passes at or below VERIFY_TOL."""
    qutrit = catalog.qutrit_csic()
    trine = catalog.qubit_trine()
    units = catalog.diag_units_dim4()
    tensor = catalog.sic_tensor_identity_dim4()
    pat3 = ParameterPattern.from_known(3, DEFAULT_KNOWN[3])
    pat2 = ParameterPattern.from_known(2, DEFAULT_KNOWN[2])
    pat4 = ParameterPattern.from_known(4, DEFAULT_KNOWN[4])
    pat4_tensor = ParameterPattern.from_known(
        4, {i: 0.0 for i in range(1, 16) if i not in (4, 8, 12)}
    )
    trine_p = 1.5 * trine.elements  # the projections P_i = (3/2) E_i
    sic = 2.0 * catalog.qubit_sic()  # Tr(2F_i 2F_j) = 4 Tr(F_i F_j) = mu

    def quasi(pov, pattern):
        return catalog.conditional_sic_report(pov, pattern).max_quasi_orthogonality_violation

    def invalid(pov):
        return lambda: 1.0 if validate(pov, VERIFY_TOL) else 0.0

    checks = [
        ("qutrit sum = I", lambda: _sum_residual(qutrit.elements, np.eye(3))),
        (
            "qutrit eigenvalues (3/7, 0, 0)",
            lambda: _spectrum_residual(qutrit.elements, (3 / 7, 0, 0)),
        ),
        (
            "qutrit diagonals 1/7",
            lambda: float(np.abs(np.diagonal(qutrit.elements, axis1=1, axis2=2) - 1 / 7).max()),
        ),
        ("qutrit cross-overlaps 2/49", lambda: _overlap_residual(qutrit.elements, 2 / 49)),
        ("qutrit quasi-orthogonal to diagonal directions", lambda: quasi(qutrit, pat3)),
        (
            "qutrit report verdict (c = 3/7, d = 2/49)",
            lambda: _verdict_residual(qutrit, pat3, 3 / 7, 2 / 49),
        ),
        ("trine sum P = (3/2) I", lambda: _sum_residual(trine_p, 1.5 * np.eye(2))),
        ("trine Tr P_i P_j = 1/4", lambda: _overlap_residual(trine_p, 0.25)),
        ("trine complementary to z", lambda: quasi(trine, pat2)),
        (
            "trine report verdict (c = 2/3, d = 1/9)",
            lambda: _verdict_residual(trine, pat2, 2 / 3, 1 / 9),
        ),
        ("qubit SIC constants (mu = 1/3 tetrahedron)", lambda: _overlap_residual(sic, 1 / 3)),
        ("diag units sum = I", lambda: _sum_residual(units.elements, np.eye(4))),
        ("diag units pairwise overlaps 0", lambda: _overlap_residual(units.elements, 0.0)),
        ("diag units report verdict", lambda: _verdict_residual(units, pat4)),
        (
            "tensor SIC eigenvalues (1/2, 1/2, 0, 0)",
            lambda: _spectrum_residual(tensor.elements, (0.5, 0.5, 0, 0)),
        ),
        ("tensor SIC cross-overlaps 1/6", lambda: _overlap_residual(tensor.elements, 1 / 6)),
        ("tensor SIC sum = I", lambda: _sum_residual(tensor.elements, np.eye(4))),
        ("tensor SIC report verdict", lambda: _verdict_residual(tensor, pat4_tensor)),
    ]
    named = (("qutrit", qutrit), ("trine", trine), ("diag units", units), ("tensor SIC", tensor))
    return checks + [(f"{name} povm valid at {VERIFY_TOL:g}", invalid(pov)) for name, pov in named]


def _run_verify() -> int:
    failures = 0
    checks = _verify_checks()
    for name, fn in checks:
        try:
            residual = fn()
            ok = residual <= VERIFY_TOL
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


USAGE = f"usage: povm-lab {{{','.join(MODES)}}} [--config FILE] [--seed N] [--out DIR]"


def _parse_args(argv):
    """(mode, {"config": ..., "seed": ..., "out": ...} for the flags given) from
    `MODE [--config FILE] [--seed N] [--out DIR]`, or None for -h / --help.
    Flags go before or after the mode, as `--flag value` or `--flag=value`; the
    value is the next argument whatever it starts with, so `--seed -1` is
    refused as negative, not as an unknown flag.  A repeated flag keeps its last
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
        if name not in ("--config", "--seed", "--out"):
            raise ValueError(f"unknown flag {name!r}")
        if not eq:
            value = next(args, None)
            if value is None:
                raise ValueError(f"{name} needs a value")
        if name == "--seed":
            try:
                seed = int(value)
            except ValueError:
                raise ValueError(f"--seed needs an integer, got {value!r}") from None
            if seed < 0:
                raise ValueError(f"--seed needs a non-negative integer, got {value!r}")
            value = seed
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
        if "seed" in flags:
            cfg.anneal = replace(cfg.anneal, rng_seed=flags["seed"])
            cfg.refine.seed = flags["seed"]
        if "out" in flags:
            cfg.output_dir = flags["out"]
    except ConfigurationError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
