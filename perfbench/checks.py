"""Correctness checks on the files one CLI call wrote.

Each check returns (problems, quality): a list of failure messages, empty when
the call is correct, and the quality outputs read along the way.
"""

from __future__ import annotations

import math
import os

import numpy as np

from povm_lab import povm
from povm_lab.errors import ContractViolation
from workloads import LOG_DACM_TOL

# The trace format documented in the package README.
TRACE_HEADER = "step,log_dacm,sigma,delta,Delta,temperature,s"
POVM_VALID_TOL = 1e-9
REFINE_OBJECTIVE_MAX = 1e-10
CROSS_OVERLAP_TOL = 1e-6
COMPLETENESS_TOL = 1e-9
VERIFY_CHECKS = 22


def _report_value(out_dir, key):
    """The value on the `key  value` line of report.txt, or None."""
    with open(os.path.join(out_dir, "report.txt")) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2 and parts[0] == key:
                return float(parts[1])
    return None


def _read_povm(path, elements, problems):
    try:
        P = povm.read_povm(path)
    except (OSError, ValueError, ContractViolation) as exc:
        problems.append(f"{os.path.basename(path)} does not re-read: {exc}")
        return None
    if P.m != elements:
        problems.append(f"{os.path.basename(path)} has {P.m} elements, expected {elements}")
    return P


def check_anneal(out_dir, workload, seed):
    problems = []
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        problems.append(f"trace.csv header is {lines[:1]}")
    rows = math.ceil(workload.steps / workload.trace_every)
    if len(lines) - 1 != rows:
        problems.append(f"trace.csv has {len(lines) - 1} rows, expected {rows}")

    P = _read_povm(os.path.join(out_dir, "best_povm.txt"), workload.elements, problems)
    if P is not None:
        bad = povm.validate(P, POVM_VALID_TOL)
        if bad:
            problems.append(f"best POVM invalid at {POVM_VALID_TOL:g}: {bad[0].name} {bad[0].magnitude:.3e}")

    log_dacm = _report_value(out_dir, "log_dacm_best")
    reference = workload.reference_log_dacm.get(seed)
    if log_dacm is None or not math.isfinite(log_dacm):
        problems.append(f"report.txt has no finite log_dacm_best: {log_dacm}")
    elif reference is not None and abs(log_dacm - reference) > LOG_DACM_TOL:
        problems.append(f"log_dacm_best {log_dacm!r} differs from reference {reference!r}")
    quality = {
        "log_dacm_best": log_dacm,
        "log_dacm_reference": reference,
        "skipped_variants": _report_value(out_dir, "skipped_variants"),
    }
    return problems, quality


def check_refine(out_dir, workload, seed):
    problems = []
    objective = _report_value(out_dir, "objective")
    if objective is None or not objective < REFINE_OBJECTIVE_MAX:
        problems.append(f"refine objective {objective} is not below {REFINE_OBJECTIVE_MAX:g}")
    P = _read_povm(os.path.join(out_dir, "povm.txt"), workload.elements, problems)
    if P is not None:
        m = P.m
        cross = [
            float(np.vdot(P.elements[j], P.elements[i]).real)
            for i in range(m)
            for j in range(m)
            if i != j
        ]
        worst = max(abs(c - workload.cross_overlap) for c in cross)
        if worst > CROSS_OVERLAP_TOL:
            problems.append(f"cross-overlap off {workload.cross_overlap:.6g} by {worst:.3e}")
        completeness = float(np.abs(sum(P.elements) - np.eye(P.dim)).max())
        if not completeness < COMPLETENESS_TOL:
            problems.append(f"completeness residual {completeness:.3e}")
    with open(os.path.join(out_dir, "phases.csv")) as fh:
        rows = [ln for ln in fh.read().splitlines() if ln]
    if len(rows) != workload.elements:
        problems.append(f"phases.csv has {len(rows)} rows, expected {workload.elements}")
    return problems, {"refine_objective": objective}


def check_verify(stdout):
    """All VERIFY_CHECKS checks report ok, and the summary line says so."""
    lines = stdout.splitlines()
    passed = sum(1 for ln in lines[:-1] if ln.startswith("ok\t"))
    problems = []
    if passed != VERIFY_CHECKS or len(lines) != VERIFY_CHECKS + 1:
        problems.append(f"verify: {passed} of {len(lines) - 1} checks ok, expected {VERIFY_CHECKS}")
    if not lines or lines[-1] != f"ok\t{VERIFY_CHECKS} passed, 0 failed":
        problems.append(f"verify summary: {lines[-1:]}")
    return problems, {"verify_passed": passed}


def check_call(out_dir, workload, seed):
    check = check_anneal if workload.mode == "anneal" else check_refine
    try:
        return check(out_dir, workload, seed)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], {}
