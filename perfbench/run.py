"""povm-lab benchmark: drive `povm_lab.cli.main` on one workload, check it, print metrics.

Run from the repository root:

  python3 perfbench/run.py --workload qutrit-anneal --seed 0 --seconds 10 --trace 0

Every CLI call runs in a fresh process (perfbench/worker.py) on a config file
this script writes, and every call of a run uses the benchmark seed, so a run
repeats identical work.  --trace 0 makes untraced calls for about --seconds
seconds (at least the workload's minimum) and reports the end-to-end metrics
as medians over them; --trace 1 makes the workload's minimum of untraced
calls (at least two) and one traced call and reports the per-layer metrics.
Each invocation also runs `verify` once.  Every call's outputs are checked,
and every call after the first must write byte-identical files.

The script prints one line per metric with its unit, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.  A full
record (samples, quality outputs, provenance) goes to
.perfbench/results/<workload>-seed<seed>-trace<t>.json.  Exit code: 0 when
every check passed, 1 when one failed, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CALL_TIMEOUT_S = 170
MAX_CALLS = 200
BASELINE_CALLS = 2  # untraced calls, at least, that tracing_overhead_s is measured against

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "search_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Runs worker processes for one benchmark invocation and tallies failures."""

    def __init__(self, workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.records = []

    def _invoke(self, kind, argv, tag):
        spec = {
            "src": str(SRC),
            "argv": argv,
            "kind": kind,
            "result": str(self.work_dir / f"{tag}.result.json"),
            "spans": str(self.work_dir / f"{tag}.spans.csv"),
        }
        spec_path = self.work_dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, POVM_LAB_LOG="quiet")
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                capture_output=True,
                text=True,
                timeout=CALL_TIMEOUT_S,
                env=env,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return {"kind": kind, "tag": tag, "problems": [f"timed out after {CALL_TIMEOUT_S} s"]}
        rec = {"kind": kind, "tag": tag, "elapsed_s": time.perf_counter() - started, "problems": []}
        try:
            rec.update(json.loads(Path(spec["result"]).read_text()))
        except (OSError, ValueError):
            rec["problems"].append(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        rec["stdout"] = proc.stdout
        if rec.get("error"):
            rec["problems"].append(rec["error"].strip().splitlines()[-1])
        return rec

    def _finish(self, rec):
        self.attempted += 1
        rec["ok"] = not rec["problems"]
        self.failed += not rec["ok"]
        self.records.append(rec)
        return rec

    def verify(self):
        import checks

        rec = self._invoke("verify", ["verify"], "verify")
        if "rc" in rec:
            if rec["rc"] != 0:
                rec["problems"].append(f"verify exited {rec['rc']}")
            problems, quality = checks.check_verify(rec.pop("stdout"))
            rec["problems"] += problems
            rec["quality"] = quality
        return self._finish(rec)

    def call(self, kind, same_files_as=None):
        """One anneal/refine invocation ('call' or 'traced') and its checks.

        With `same_files_as` (an earlier call's record), every file written
        must be byte-identical to that call's.
        """
        import checks

        wl = self.workload
        tag = f"{kind}-{self.attempted}"
        out_dir = self.work_dir / tag
        cfg_path = self.work_dir / f"{tag}.cfg"
        cfg_path.write_text(wl.config_text(self.seed, str(out_dir)))
        rec = self._invoke(kind, [wl.mode, "--config", str(cfg_path)], tag)
        rec["out_dir"] = str(out_dir)
        rec.pop("stdout", None)
        if "wall_s" in rec:
            if "setup_s" not in rec:
                rec["problems"].append("search was never entered")
            elif rec["rc"] != 0:
                rec["problems"].append(f"{wl.mode} exited {rec['rc']}")
            else:
                problems, quality = checks.check_call(out_dir, wl, self.seed)
                rec["problems"] += problems
                rec["quality"] = quality
        if same_files_as is not None and same_files_as["ok"] and not rec["problems"]:
            rec["problems"] += _file_differences(Path(same_files_as["out_dir"]), out_dir)
        return self._finish(rec)


def _file_differences(a: Path, b: Path):
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return [f"wrote {sorted(os.listdir(b))}, the earlier call {names}"]
    return [f"{n} differs from the earlier call's" for n in names if (a / n).read_bytes() != (b / n).read_bytes()]


def _median(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def _calls(runner, count, seconds=0.0):
    """`count` untraced calls, more while the next one fits in `seconds`.

    Every call after the first must write the first call's files.
    """
    calls = []
    started = time.perf_counter()
    while len(calls) < MAX_CALLS:
        spent = time.perf_counter() - started
        if len(calls) >= count and spent + _median(calls, "elapsed_s") > seconds:
            break
        calls.append(runner.call("call", same_files_as=calls[0] if calls else None))
    return calls


def run_untraced(runner, wl, seconds):
    calls = _calls(runner, wl.min_calls, seconds)
    good = [c for c in calls if c["ok"]] or calls
    metrics = {k: _median(good, k) for k in END_TO_END_UNITS}
    note = f"median of {len(good)} calls"
    return {k: (v, END_TO_END_UNITS[k], note) for k, v in metrics.items()}


def run_traced(runner, wl):
    import tracing

    plain = _calls(runner, max(wl.min_calls, BASELINE_CALLS))
    traced = runner.call("traced", same_files_as=plain[0])
    plain_wall, traced_wall = _median(plain, "wall_s"), traced.get("wall_s", 0.0)
    layer = {**traced.get("per_layer", {}), "tracing_overhead_s": traced_wall - plain_wall}
    detail = f"traced call at seed {runner.seed}"
    out = {k: (layer.get(k, 0), unit, detail) for k, unit in tracing.PER_LAYER_UNITS.items()}
    out["tracing_overhead_s"] = (
        layer["tracing_overhead_s"],
        "s",
        f"traced wall_s {traced_wall:.4f} - median untraced {plain_wall:.4f} of {len(plain)} calls",
    )
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _provenance():
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "povm_lab" / "cli.py").is_file():
        print(f"povm_lab source not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work_dir = WORK / label
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    load_start = os.getloadavg()
    runner = Runner(wl, args.seed, work_dir)
    verify = runner.verify()
    if args.trace:
        metrics = run_traced(runner, wl)
    else:
        metrics = run_untraced(runner, wl, args.seconds)
    load_end = os.getloadavg()

    calls = [r for r in runner.records if r["kind"] in ("call", "traced")]
    quality = {**verify.get("quality", {})}
    for r in calls:
        for k, v in r.get("quality", {}).items():
            quality.setdefault(k, v)
    failed_ratio = runner.failed / runner.attempted
    correct = runner.failed == 0

    provenance = {**_provenance(), "loadavg_start": load_start, "loadavg_end": load_end}
    print(f"# {wl.name}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    print("# " + "  ".join(f"{k} {v}" for k, v in provenance.items()))
    for name, (value, unit, detail) in metrics.items():
        print(f"{name:<38} {value:>14.6g} {unit:<6} {detail}")
    print(f"{'failed_ratio':<38} {failed_ratio:>14.6g} {'ratio':<6} {runner.failed} of {runner.attempted} invocations")
    for name, value in quality.items():
        print(f"{name:<38} {value!r}")
    for r in runner.records:
        for p in r["problems"]:
            print(f"FAILED {r['tag']}: {p}")

    results = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance,
        "metrics": {k: {"value": v, "unit": u, "detail": d} for k, (v, u, d) in metrics.items()},
        "failed_ratio": failed_ratio,
        "quality": quality,
        "records": runner.records,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{label}.json").write_text(json.dumps(results, indent=1) + "\n")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
