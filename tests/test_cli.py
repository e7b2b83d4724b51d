import collections
import dataclasses
import importlib.util
import inspect
import logging
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_lab import annealer, catalog, cli, linalg, rankone
from povm_lab import basis as bs
from povm_lab import povm as pv
from povm_lab.basis import ParameterPattern
from povm_lab.errors import ConfigurationError, ContractViolation

REPO = Path(__file__).resolve().parent.parent
DOCS_CONFIG = REPO / "docs" / "qutrit_anneal.cfg"

QUBIT_CFG = """
mode = anneal
dim = 2
pattern.known_indices = 3
pattern.known_values = 0.0
anneal.total_steps = {steps}
anneal.trace_every = 20
anneal.seed = {seed}
output.dir = {out}
"""

# config line -> the message that refuses its value (a pattern list without its
# partner is refused too)
_OUT_OF_RANGE = {
    "dim = 5": "dim must be 2, 3 or 4, got 5",
    "pattern.known_indices = 7,8": "must be given together",
    "pattern.known_values = 0.0,0.0": "must be given together",
    "grid.cells = 0": "grid.cells must be >= 1, got 0",
    "grid.theta_ref = 0.1,0.0": "grid.theta_ref needs 6 entries, got 2",
    "refine.element_count = 1": "refine.element_count must be >= 2, got 1",
    "anneal.total_steps = -1": "total_steps must be >= 0",
    "anneal.trace_every = 0": "trace_every must be >= 1",
}


class TestParseConfig:
    def test_empty_requires_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            cli.parse_config("")

    def test_range_error(self):
        with pytest.raises(ConfigurationError, match="points_per_axis"):
            cli.parse_config("mode = gridinfo\ngrid.points_per_axis = 0\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            cli.parse_config("mode = verify\nwhat = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            cli.parse_config("mode = verify\nmode = anneal\n")

    def test_golden_config_parses_to_defaults(self):
        cfg = cli.parse_config(DOCS_CONFIG.read_text())
        default = cli.build_config({}, mode="anneal")
        assert cfg.mode == "anneal"
        assert cfg.pattern.dim == default.pattern.dim == 3
        assert cfg.pattern.known_indices == default.pattern.known_indices == (7, 8)
        assert cfg.grid_points == default.grid_points == 7
        assert cfg.grid_cells == default.grid_cells == 10
        assert cfg.anneal == default.anneal
        assert cfg.refine.restarts == default.refine.restarts
        assert cfg.refine.seed == default.refine.seed
        assert cfg.output_dir == default.output_dir

    @pytest.mark.parametrize(
        "dim, known",
        [(2, (3,)), (3, (7, 8)), (4, tuple(i for i in range(1, 16) if i not in (3, 12, 15)))],
    )
    def test_default_pattern_of_each_dim(self, dim, known):
        cfg = cli.build_config({"dim": dim}, mode="gridinfo")
        assert cfg.pattern.dim == dim
        assert cfg.pattern.known_indices == known
        assert cfg.pattern.known_values == (0.0,) * len(known)

    def test_positional_mode_overrides(self):
        cfg = cli.parse_config("mode = anneal\n", mode="gridinfo")
        assert cfg.mode == "gridinfo"

    def test_known_pairs_sorted_by_index(self):
        swapped = "pattern.known_indices = 8,7\npattern.known_values = 0.2,0.1"
        ordered = "pattern.known_indices = 7,8\npattern.known_values = 0.1,0.2"
        cfg = cli.parse_config(f"mode = anneal\n{swapped}\n")
        assert cfg.pattern.known_indices == (7, 8)
        assert list(cfg.pattern.known_values) == [0.1, 0.2]
        assert _same(cfg.pattern, cli.parse_config(f"mode = anneal\n{ordered}\n").pattern)

    @pytest.mark.parametrize(
        "indices, values, error",
        [
            ("9", "0.0", "must partition 1..8"),
            ("0,7", "0.0,0.0", "must partition 1..8"),
            ("7,7", "0.0,0.0", "must partition 1..8"),
            ("7,8", "0.0", "must align"),
            ("7", "0.0,0.0", "must align"),
            ("1,2,3,4,5,6,7,8", "0,0,0,0,0,0,0,0", "at least one unknown"),
        ],
        ids=["out-of-range", "zero", "duplicate", "short-values", "long-values", "all-known"],
    )
    def test_bad_pattern_is_2_and_writes_nothing(self, tmp_path, caplog, indices, values, error):
        out = tmp_path / "o"
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(
            f"mode = anneal\npattern.known_indices = {indices}\n"
            f"pattern.known_values = {values}\noutput.dir = {out}\n"
        )
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 2
        assert not out.exists()
        (logged,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error in logged

    @pytest.mark.parametrize("line", sorted(_OUT_OF_RANGE))
    def test_out_of_range_value_is_2_and_writes_nothing(self, tmp_path, caplog, line):
        out = tmp_path / "o"
        cfg_path = tmp_path / "r.cfg"
        cfg_path.write_text(f"mode = anneal\n{line}\noutput.dir = {out}\n")
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 2
        assert not out.exists()
        (logged,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert _OUT_OF_RANGE[line] in logged

    @pytest.mark.parametrize(
        "line",
        [
            "pattern.known_indices = 7,8\npattern.known_values = 0.0,nan",
            "grid.theta_ref = 0.1,inf,0,0,0,0",
        ],
    )
    def test_non_finite_floats_rejected_with_line_number(self, line):
        with pytest.raises(ConfigurationError, match="line [0-9]+: bad value"):
            cli.parse_config("mode = anneal\n" + line + "\n")


def _leaf_fields(cfg, prefix=""):
    """A built config's fields by dotted path; the pattern is one leaf."""
    leaves = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, ParameterPattern):
            leaves.update(_leaf_fields(value, f"{prefix}{f.name}."))
        else:
            leaves[prefix + f.name] = value
    return leaves


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _changed_fields(cfg, base):
    got, want = _leaf_fields(cfg), _leaf_fields(base)
    assert got.keys() == want.keys()
    return {path for path in want if not _same(got[path], want[path])}


# key -> (config lines with a valid non-default value, the fields they change).
# A pattern key needs its partner, and dim sets the pattern's dimension (with
# that dimension's default knowns).
_KEY_CASES = {
    "mode": ("mode = refine", {"mode"}),
    "dim": ("dim = 2", {"pattern"}),
    "pattern.known_indices": (
        "pattern.known_indices = 1,2\npattern.known_values = 0.0,0.0",
        {"pattern"},
    ),
    "pattern.known_values": (
        "pattern.known_indices = 7,8\npattern.known_values = 0.1,0.0",
        {"pattern"},
    ),
    "grid.points_per_axis": ("grid.points_per_axis = 5", {"grid_points"}),
    "grid.cells": ("grid.cells = 4", {"grid_cells"}),
    "grid.theta_ref": ("grid.theta_ref = 0.1,0,0,0,0,0", {"theta_ref"}),
    "anneal.total_steps": ("anneal.total_steps = 7", {"anneal.total_steps"}),
    "anneal.seed": ("anneal.seed = 9", {"anneal.rng_seed"}),
    "anneal.trace_every": ("anneal.trace_every = 9", {"anneal.trace_every"}),
    "refine.restarts": ("refine.restarts = 2", {"refine.restarts"}),
    "refine.element_count": ("refine.element_count = 5", {"refine.element_count"}),
    "refine.seed": ("refine.seed = 9", {"refine.seed"}),
    "output.dir": ("output.dir = elsewhere", {"output_dir"}),
}
# keys whose default is unset or derived from dim, so no fixed value to write out
_DERIVED_DEFAULT_KEYS = {"grid.theta_ref", "refine.element_count"}
# refine's search is Levenberg-Marquardt from each restart's start, so it has no keys
_REMOVED_REFINE_KEYS = [
    "refine.total_steps",
    "refine.s0",
    "refine.s_decay",
    "refine.T0",
    "refine.T_decay",
    "refine.reheat_every",
    "refine.reheat_factor",
    "refine.trace_every",
]
# removed key -> the mode that read it.  The annealing move always perturbs
# both a0 and a, its attempt budget is annealer.MAX_RESAMPLE, refine always
# keeps the completeness residuals, the grid spans bloch_radius_bound(n) on
# every axis, an anneal starts at annealer.INIT_SCALE, and every anneal runs
# annealer.schedule
_REMOVED_SETTING_KEYS = {
    "anneal.perturb_a0": "anneal",
    "anneal.max_resample": "anneal",
    "refine.weight": "refine",
    "grid.bound": "anneal",
    "anneal.init_scale": "anneal",
    "anneal.s0": "anneal",
    "anneal.s_decay": "anneal",
    "anneal.T0": "anneal",
    "anneal.T_decay": "anneal",
    "anneal.reheat_every": "anneal",
    "anneal.reheat_factor": "anneal",
}


def assert_unknown_key(tmp_path, mode, key):
    """`key` on line 2 of a `mode` config is an unknown key: `main` exits 2
    and creates no output.dir."""
    with pytest.raises(ConfigurationError, match=f"line 2: unknown key '{key}'"):
        cli.parse_config(f"mode = {mode}\n{key} = 1\n")
    cfg_path = tmp_path / "r.cfg"
    out = tmp_path / "o"
    cfg_path.write_text(f"mode = {mode}\n{key} = 1\noutput.dir = {out}\n")
    assert cli.main([mode, "--config", str(cfg_path)]) == 2
    assert not out.exists()


class TestKeyTable:
    def test_every_key_has_a_case(self):
        assert set(_KEY_CASES) == set(cli._CONFIG_KEYS)
        assert len(cli._CONFIG_KEYS) == 14
        targets = {target for target, _, _, _ in cli._CONFIG_KEYS.values()}
        assert targets == {"config", "anneal", "refine", "pattern"}

    def test_refine_settings_fields(self):
        names = [f.name for f in dataclasses.fields(cli.RefineSettings)]
        assert names == ["restarts", "element_count", "seed"]

    @pytest.mark.parametrize("key", _REMOVED_REFINE_KEYS)
    def test_removed_refine_key_is_unknown(self, tmp_path, key):
        assert_unknown_key(tmp_path, "refine", key)

    @pytest.mark.parametrize("key", _REMOVED_SETTING_KEYS)
    def test_removed_setting_key_is_unknown(self, tmp_path, key):
        assert_unknown_key(tmp_path, _REMOVED_SETTING_KEYS[key], key)

    @pytest.mark.parametrize("value", ["largest", "reference"])
    def test_cluster_policy_key_is_unknown(self, tmp_path, value):
        # the cluster follows grid.theta_ref, so the key that restated it is gone
        out = tmp_path / "o"
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(
            f"mode = anneal\ndim = 2\ngrid.cluster_policy = {value}\noutput.dir = {out}\n"
        )
        with pytest.raises(ConfigurationError, match="line 3: unknown key 'grid.cluster_policy'"):
            cli.parse_config(cfg_path.read_text())
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(_KEY_CASES))
    def test_key_sets_exactly_its_field(self, key):
        lines, fields = _KEY_CASES[key]
        text = lines if key == "mode" else "mode = anneal\n" + lines
        cfg = cli.parse_config(text)
        assert _changed_fields(cfg, cli.build_config({}, mode="anneal")) == fields

    def test_docs_config_writes_out_every_fixed_default(self):
        text = DOCS_CONFIG.read_text()
        keys = {
            line.partition("=")[0].strip()
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        }
        assert keys == set(cli._CONFIG_KEYS) - _DERIVED_DEFAULT_KEYS
        default = cli.build_config({}, mode="anneal")
        assert _changed_fields(cli.parse_config(text), default) == set()


_CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-10, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.lists(st.integers(-2, 20).map(str), max_size=10).map(",".join),
    st.lists(st.floats(-2, 2).map(repr), max_size=10).map(",".join),
    st.sampled_from(["anneal", "refine", "verify", "gridinfo", "largest", "reference", "true"]),
)
_CONFIG_LINES = st.one_of(
    st.text(max_size=30),
    st.builds("{} = {}".format, st.sampled_from(sorted(cli._CONFIG_KEYS)), _CONFIG_VALUES),
)


@pytest.mark.invariants
class TestParseConfigProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_CONFIG_LINES, max_size=8).map("\n".join))
    def test_arbitrary_text_raises_only_configuration_error(self, text):
        try:
            cfg = cli.parse_config(text)
        except ConfigurationError:
            return
        assert cfg.mode in cli.MODES
        assert np.isfinite(cfg.pattern.known_values).all()
        if cfg.theta_ref is not None:
            assert np.isfinite(cfg.theta_ref).all()


VERIFY_NAMES = [
    "qutrit sum = I",
    "qutrit eigenvalues (3/7, 0, 0)",
    "qutrit diagonals 1/7",
    "qutrit cross-overlaps 2/49",
    "qutrit quasi-orthogonal to diagonal directions",
    "qutrit report verdict (c = 3/7, d = 2/49)",
    "trine sum P = (3/2) I",
    "trine Tr P_i P_j = 1/4",
    "trine complementary to z",
    "trine report verdict (c = 2/3, d = 1/9)",
    "qubit SIC constants (mu = 1/3 tetrahedron)",
    "diag units sum = I",
    "diag units pairwise overlaps 0",
    "diag units report verdict",
    "tensor SIC eigenvalues (1/2, 1/2, 0, 0)",
    "tensor SIC cross-overlaps 1/6",
    "tensor SIC sum = I",
    "tensor SIC report verdict",
    "qutrit povm valid at 1e-12",
    "trine povm valid at 1e-12",
    "diag units povm valid at 1e-12",
    "tensor SIC povm valid at 1e-12",
]


def verify_rows(capsys):
    """(status, name) per check line of `verify`, and the summary line."""
    lines = capsys.readouterr().out.splitlines()
    return [tuple(ln.split("\t")[:2]) for ln in lines[:-1]], lines[-1]


class TestVerifyMode:
    def test_exit_zero(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "ok" in out

    def test_names_in_order_and_summary(self, capsys):
        assert cli.main(["verify"]) == 0
        rows, summary = verify_rows(capsys)
        assert rows == [("ok", name) for name in VERIFY_NAMES]
        assert summary == "ok\t22 passed, 0 failed"

    def test_raising_check_fails_with_nan(self, monkeypatch, capsys, caplog):
        checks = cli.catalog.claim_checks()
        name = checks[0][0]

        def raises():
            raise ContractViolation("forced")

        monkeypatch.setattr(cli.catalog, "claim_checks", lambda: [(name, raises), *checks[1:]])
        assert cli.main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"FAIL\t{name}\tnan"
        assert lines[-1] == "FAIL\t21 passed, 1 failed"
        (logged,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert logged == f"{name} raised forced"

    @pytest.mark.parametrize(
        "constructor, failing",
        [
            (
                "qutrit_csic",
                [
                    "qutrit sum = I",
                    "qutrit eigenvalues (3/7, 0, 0)",
                    "qutrit diagonals 1/7",
                    "qutrit cross-overlaps 2/49",
                    "qutrit report verdict (c = 3/7, d = 2/49)",
                    "qutrit povm valid at 1e-12",
                ],
            ),
            (
                "qubit_trine",
                [
                    "trine sum P = (3/2) I",
                    "trine Tr P_i P_j = 1/4",
                    "trine report verdict (c = 2/3, d = 1/9)",
                    "trine povm valid at 1e-12",
                ],
            ),
            (
                "diag_units_dim4",
                [
                    "diag units sum = I",
                    "diag units report verdict",
                    "diag units povm valid at 1e-12",
                ],
            ),
            (
                "sic_tensor_identity_dim4",
                [
                    "tensor SIC eigenvalues (1/2, 1/2, 0, 0)",
                    "tensor SIC cross-overlaps 1/6",
                    "tensor SIC sum = I",
                    "tensor SIC report verdict",
                    "tensor SIC povm valid at 1e-12",
                ],
            ),
        ],
    )
    def test_broken_object_fails_exactly_its_checks(
        self, monkeypatch, capsys, constructor, failing
    ):
        build = getattr(cli.catalog, constructor)

        def broken():
            pov = build()
            pov.elements[0] = pov.elements[0] * 1.5
            return pov

        monkeypatch.setattr(cli.catalog, constructor, broken)
        assert cli.main(["verify"]) == 1
        rows, summary = verify_rows(capsys)
        assert [name for _, name in rows] == VERIFY_NAMES
        assert [name for status, name in rows if status == "FAIL"] == failing
        assert summary == f"FAIL\t{22 - len(failing)} passed, {len(failing)} failed"


class TestAnnealMode:
    def test_zero_steps_writes_header_and_initial(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(QUBIT_CFG.format(steps=0, seed=3, out=out))
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
        trace = (out / "trace.csv").read_text()
        assert trace == annealer.TRACE_HEADER + "\n"
        # best POVM equals the seeded initial measurement
        pattern = ParameterPattern.from_known(2, {3: 0.0})
        initial = annealer.random_initial_povm(pattern, np.random.default_rng([3, 1]), 0.05)
        written = pv.read_povm(out / "best_povm.txt")
        for a, b in zip(written.elements, initial.elements):
            assert np.abs(a - b).max() < 1e-15

    # refine reads the qubit's known diagonal and ignores the anneal keys
    @pytest.mark.parametrize("mode", ["anneal", "refine"])
    def test_phase_timings_logged_once(self, tmp_path, caplog, mode):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(QUBIT_CFG.format(steps=60, seed=3, out=tmp_path / "out"))
        caplog.set_level(logging.INFO, logger="povm_lab")
        assert cli.main([mode, "--config", str(cfg_path)]) == 0
        phases = [r for r in caplog.records if r.getMessage().startswith("phase seconds")]
        assert [r.levelname for r in phases] == ["INFO"]
        shape = r"phase seconds: setup (\d+\.\d{3}), search (\d+\.\d{3}), write (\d+\.\d{3})"
        assert re.fullmatch(shape, phases[0].getMessage())

        # nothing on stderr at POVM_LAB_LOG=quiet
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "POVM_LAB_LOG": "quiet"}
        command = [sys.executable, "-m", "povm_lab.cli", mode, "--config", str(cfg_path)]
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stderr == ""

    def test_byte_identical_trace_same_seed(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg_path = tmp_path / f"{name}.cfg"
            out = tmp_path / name
            cfg_path.write_text(QUBIT_CFG.format(steps=120, seed=11, out=out))
            assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_key_changes_trace(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cfg_path.write_text(QUBIT_CFG.format(steps=120, seed=11, out=out1))
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
        cfg_path.write_text(QUBIT_CFG.format(steps=120, seed=12, out=out2))
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_outputs_reparse(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(QUBIT_CFG.format(steps=60, seed=4, out=out))
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
        pov = pv.read_povm(out / "best_povm.txt")
        assert pv.validate(pov, 1e-9) == []
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert trace[:, 0].tolist() == list(range(0, 60, 20))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_report_ends_with_run_counters(self, tmp_path, monkeypatch, seed):
        results = []

        def recording_anneal(*args):
            results.append(annealer.anneal(*args))
            return results[-1]

        monkeypatch.setattr(cli, "anneal", recording_anneal)
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(QUBIT_CFG.format(steps=200, seed=seed, out=out))
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
        (result,) = results
        tail = (out / "report.txt").read_text().splitlines()[-10:]
        names = ["dacm_best", "log_dacm_best", "steps", "seed", *annealer.RUN_COUNTERS]
        assert [line.split("  ")[0] for line in tail] == names
        values = [result.best_dacm, result.best_log_dacm, 200, seed]
        values += [getattr(result, name) for name in annealer.RUN_COUNTERS]
        assert tail == [f"{name}  {value!r}" for name, value in zip(names, values)]
        assert result.variants_enumerated > 0 and result.accepted > 0

    def test_qutrit_desk_scale_trace_shape(self, tmp_path):
        """Qutrit run on the default grid at a reduced step count: final log
        DACM below the initial one and the diagnostics under 0.05 / 1e-2 /
        1e-2 in at least 1 of 3 seeds."""
        passed = 0
        for seed in (7, 8, 9):
            out = tmp_path / f"seed{seed}"
            cfg_path = tmp_path / f"q{seed}.cfg"
            cfg_path.write_text(
                "mode = anneal\n"
                "dim = 3\n"
                "anneal.total_steps = 8000\n"
                f"anneal.seed = {seed}\n"
                f"output.dir = {out}\n"
            )
            assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
            trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
            log_dacm, sigma, delta, Delta = trace[:, 1:5].T
            if (
                log_dacm[-1] <= log_dacm[0]
                and sigma[-1] < 0.05
                and delta[-1] < 1e-2
                and Delta[-1] < 1e-2
            ):
                passed += 1
        assert passed >= 1


class TestRefineMode:
    def test_refine_outputs(self, tmp_path):
        cfg_path = tmp_path / "r.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(
            "mode = refine\n"
            "dim = 3\n"
            "refine.restarts = 1\n"
            f"output.dir = {out}\n"
        )
        assert cli.main(["refine", "--config", str(cfg_path)]) == 0
        phases = rankone.PhaseConfiguration(np.loadtxt(out / "phases.csv", delimiter=",", ndmin=2))
        assert phases.phases.shape == (7, 3)
        pov = pv.read_povm(out / "povm.txt")
        assert pov.m == 7
        report = (out / "report.txt").read_text()
        assert "verdict" in report

    @pytest.mark.parametrize(
        "lines, diagonal",
        [
            ("dim = 3\npattern.known_indices = 1,2\npattern.known_values = 0,0\n", "[7, 8]"),
            ("dim = 4\n", "[3, 12, 15]"),
        ],
        ids=["dim3-offdiagonal-known", "dim4-default"],
    )
    def test_known_directions_other_than_diagonal_rejected(self, tmp_path, caplog, lines, diagonal):
        # the rank-one ansatz is quasi-orthogonal to the diagonal generators only
        cfg_path = tmp_path / "r.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(f"mode = refine\n{lines}refine.restarts = 1\noutput.dir = {out}\n")
        assert cli.main(["refine", "--config", str(cfg_path)]) == 2
        assert f"diagonal generators {diagonal}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_default_pattern_accepted(self, tmp_path, dim):
        cfg_path = tmp_path / "r.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(f"mode = refine\ndim = {dim}\nrefine.restarts = 1\noutput.dir = {out}\n")
        assert cli.main(["refine", "--config", str(cfg_path)]) == 0
        report = catalog.conditional_sic_report(
            pv.read_povm(out / "povm.txt"), cli.parse_config(cfg_path.read_text()).pattern
        )
        assert report.max_quasi_orthogonality_violation < 1e-12

    def test_incomplete_povm_is_not_certified(self, tmp_path, capsys):
        # two rank-one qutrit elements sum to at most rank 2, never to I
        cfg_path = tmp_path / "r.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(
            f"mode = refine\ndim = 3\nrefine.element_count = 2\noutput.dir = {out}\n"
        )
        assert cli.main(["refine", "--config", str(cfg_path)]) == 0
        report = (out / "report.txt").read_text().splitlines()
        (verdict,) = [ln.split() for ln in report if ln.startswith("verdict")]
        assert verdict == ["verdict", "False"]
        (completeness,) = [ln.split() for ln in report if ln.startswith("violation  completeness")]
        assert float(completeness[2]) > catalog.RANK_TOL
        assert cli.main(["verify"]) == 0
        rows, _ = verify_rows(capsys)
        assert [status for status, _ in rows] == ["ok"] * 22

    def test_too_few_elements_are_not_certified(self, tmp_path):
        # the two projections onto |+> and |-> meet every condition and sum to
        # I, but two outcomes cannot determine the qubit's two unknowns
        cfg_path = tmp_path / "r.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(
            f"mode = refine\ndim = 2\nrefine.element_count = 2\noutput.dir = {out}\n"
        )
        assert cli.main(["refine", "--config", str(cfg_path)]) == 0
        pov = pv.read_povm(out / "povm.txt")
        assert pov.m == 2 and pv.validate(pov, catalog.RANK_TOL) == []
        report = (out / "report.txt").read_text().splitlines()
        (verdict,) = [ln.split() for ln in report if ln.startswith("verdict")]
        assert verdict == ["verdict", "False"]

    def test_restarts_keep_the_lowest_objective(self, tmp_path):
        cfg_path = tmp_path / "r.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(
            f"mode = refine\ndim = 3\nrefine.restarts = 3\nrefine.seed = 4\noutput.dir = {out}\n"
        )
        assert cli.main(["refine", "--config", str(cfg_path)]) == 0
        runs = [
            rankone.refine(
                rankone.random_phases(3, 7, random.Random(f"4,{r}")),
                annealer.AnnealConfig(total_steps=0),
            )
            for r in range(3)
        ]
        best = min(runs, key=lambda res: res.objective)
        report = (out / "report.txt").read_text().splitlines()
        assert f"objective  {best.objective!r}" in report
        assert "restarts  3" in report and "seed  4" in report
        written = np.loadtxt(out / "phases.csv", delimiter=",", ndmin=2)
        assert np.array_equal(written, best.phases.phases)

    @pytest.mark.parametrize("name", ["trine", "qutrit", "diag units", "refined"])
    def test_report_pass_equals_the_standalone_functions(self, tmp_path, name):
        """`report.txt` starts with `report_to_text` of the POVM's
        `conditional_sic_report` exactly, and its sigma, delta and Delta are
        `metrics`' up to the last bits of the report's larger overlap product."""
        dim = {"trine": 2, "qutrit": 3, "diag units": 4, "refined": 3}[name]
        cfg = cli.build_config({"dim": dim, "output.dir": str(tmp_path)}, mode="refine")
        if name == "refined":
            assert cli.main(["refine", "--out", str(tmp_path), "--config", str(DOCS_CONFIG)]) == 0
            P = pv.read_povm(tmp_path / "povm.txt")
        else:
            P = {
                "trine": catalog.qubit_trine,
                "qutrit": catalog.qutrit_csic,
                "diag units": catalog.diag_units_dim4,
            }[name]()
            cli._write_result(cfg, "povm.txt", P, [])
        text = (tmp_path / "report.txt").read_text()
        report = catalog.report_to_text(catalog.conditional_sic_report(P, cfg.pattern)) + "\n"
        assert text.startswith(report)
        rest = report.split("\n\n", 1)[1]
        written = {k: float(v) for k, v in (ln.split() for ln in rest.splitlines())}
        assert list(written) == ["sigma", "delta", "Delta"]
        mk = pv.metrics(P)
        for key in ("sigma", "delta", "Delta"):
            assert abs(written[key] - getattr(mk, key)) <= 1e-15

    def test_one_basis_per_dimension_two_spectra_one_overlap(self, tmp_path, monkeypatch):
        """From an empty basis cache, a qubit and then a qutrit refine call
        build one basis each (the diagonal check and the report share it), and
        each call runs `linalg.spectra` twice (`validate` of the written POVM
        and the report pass) and `overlap_matrix` once."""
        counts = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        overlap = pv.overlap_matrix
        for module in [m for k, m in sys.modules.items() if k.startswith("povm_lab")]:
            if vars(module).get("overlap_matrix") is overlap:
                monkeypatch.setattr(module, "overlap_matrix", counting("overlap", overlap))
        monkeypatch.setattr(linalg, "spectra", counting("spectra", linalg.spectra))
        post_init = counting("basis", bs.OrthonormalBasis.__post_init__)
        monkeypatch.setattr(bs.OrthonormalBasis, "__post_init__", post_init)
        bs.gell_mann_basis.cache_clear()
        for dim in (2, 3):
            counts.clear()
            out = tmp_path / f"dim{dim}"
            cfg_path = tmp_path / f"r{dim}.cfg"
            cfg_path.write_text(
                f"mode = refine\ndim = {dim}\nrefine.restarts = 1\noutput.dir = {out}\n"
            )
            assert cli.main(["refine", "--config", str(cfg_path)]) == 0
            assert counts == {"basis": 1, "spectra": 2, "overlap": 1}
        assert bs.gell_mann_basis.cache_info().currsize == 2

    def test_refine_never_imports_numpy_random(self, tmp_path):
        """refine seeds its starts from the standard library's `random`, so a
        fresh process that runs it never loads `numpy.random` (and with it
        `secrets`, `hashlib` and every bit generator)."""
        cfg_path = tmp_path / "r.cfg"
        cfg_path.write_text(
            f"mode = refine\ndim = 3\nrefine.restarts = 1\noutput.dir = {tmp_path / 'out'}\n"
        )
        code = (
            "import sys\n"
            "from povm_lab import cli\n"
            f"assert cli.main(['refine', '--config', {str(cfg_path)!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "POVM_LAB_LOG": "quiet"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
        assert (tmp_path / "out" / "report.txt").exists()

    @pytest.mark.parametrize("mode", ["verify", "gridinfo", "refine", "anneal"])
    def test_no_mode_imports_the_option_parser(self, tmp_path, mode):
        """The command line is parsed by hand, so a fresh process that runs any
        mode never loads `argparse`, nor the `gettext` and `locale` it pulls in."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            QUBIT_CFG.format(steps=5, seed=1, out=tmp_path / "out") + "refine.restarts = 1\n"
        )
        argv = ["povm-lab", mode] + ([] if mode == "verify" else ["--config", str(cfg_path)])
        code = (
            "import sys\n"
            "from povm_lab import cli\n"
            f"sys.argv = {argv!r}\n"
            "rc = cli.main()\n"
            "print(rc, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "POVM_LAB_LOG": "quiet"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


class TestGridinfoMode:
    def test_index_map_and_clusters(self, tmp_path, capsys):
        cfg_path = tmp_path / "g.cfg"
        cfg_path.write_text(
            "mode = gridinfo\ndim = 2\n"
            "pattern.known_indices = 3\npattern.known_values = 0.0\n"
        )
        assert cli.main(["gridinfo", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "1\tsym(1,2)" in out
        assert "3\tdiag(1)\tknown = 0.0" in out
        assert "8,1\t12\t" in out  # the largest qubit cluster

    @pytest.mark.parametrize(
        "grid, error",
        [
            ("dim = 3\ngrid.points_per_axis = 100", "grid budget exceeded"),
            # rho has eigenvalues 5.5 and -4.5: not a state
            ("dim = 2\ngrid.theta_ref = 5,5", "theta_ref is not a state"),
        ],
        ids=["budget", "reference-not-a-state"],
    )
    def test_invalid_grid_prints_nothing(self, tmp_path, capsys, caplog, grid, error):
        cfg_path = tmp_path / "g.cfg"
        cfg_path.write_text(f"mode = gridinfo\n{grid}\n")
        assert cli.main(["gridinfo", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().out == ""
        (logged,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error in logged

    def test_theta_ref_selects_its_cluster(self, tmp_path, capsys):
        # the largest qubit cluster is 8,1; the reference state lies in 7,2
        cfg_path = tmp_path / "g.cfg"
        cfg_path.write_text("mode = gridinfo\ndim = 2\ngrid.theta_ref = 0.3,0.0\n")
        assert cli.main(["gridinfo", "--config", str(cfg_path)]) == 0
        rows = [ln.split("\t") for ln in capsys.readouterr().out.splitlines()]
        assert [row[0] for row in rows if row[-1] == "*"] == ["7,2"]


class TestExitCodes:
    @pytest.mark.parametrize(
        "mode, text",
        [
            ("anneal", QUBIT_CFG.format(steps=5, seed=-1, out="{out}")),
            ("refine", "mode = refine\nrefine.seed = -1\noutput.dir = {out}\n"),
        ],
        ids=["anneal.seed", "refine.seed"],
    )
    def test_negative_seed_is_2(self, tmp_path, mode, text):
        cfg_path = tmp_path / "seed.cfg"
        out = tmp_path / "o"
        cfg_path.write_text(text.format(out=out))
        assert cli.main([mode, "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_config_error_is_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("grid.points_per_axis = 0\n")
        assert cli.main(["gridinfo", "--config", str(cfg_path)]) == 2

    def test_missing_config_is_2(self, tmp_path):
        assert cli.main(["anneal", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_non_utf8_config_is_2(self, tmp_path, caplog):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(b"\xff\xfe")
        assert cli.main(["verify", "--config", str(cfg_path)]) == 2
        (error,) = [r for r in caplog.records if r.levelname == "ERROR"]
        assert str(cfg_path) in error.getMessage()

    @pytest.mark.parametrize(
        "mode, search",
        [("anneal", (cli, "anneal")), ("refine", (cli.rankone, "refine"))],
    )
    def test_unusable_output_dir_is_2_before_the_search(
        self, tmp_path, monkeypatch, caplog, mode, search
    ):
        def entered(*args):
            raise AssertionError(f"{mode} search entered")

        monkeypatch.setattr(*search, entered)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        cfg_path = tmp_path / "x.cfg"
        cfg_path.write_text(QUBIT_CFG.format(steps=200, seed=1, out=out))
        assert cli.main([mode, "--config", str(cfg_path)]) == 2
        (error,) = [r for r in caplog.records if r.levelname == "ERROR"]
        assert "Not a directory" in error.getMessage()

    def test_unusable_inputs_and_outputs_print_one_error_line(self, tmp_path):
        """The console entry point: exit 2, one ERROR line, no traceback."""
        (tmp_path / "afile").write_text("")
        (tmp_path / "bad.cfg").write_bytes(b"\xff\xfe")
        cfg_path = tmp_path / "x.cfg"
        cfg_path.write_text("mode = anneal\ndim = 2\nrefine.restarts = 1\n")
        unusable = ["--config", str(cfg_path), "--out", str(tmp_path / "afile" / "sub")]
        cases = [
            ["verify", "--config", str(tmp_path / "bad.cfg")],
            ["anneal", *unusable],
            ["refine", *unusable],
        ]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        for argv in cases:
            command = [sys.executable, "-m", "povm_lab.cli", *argv]
            proc = subprocess.run(command, capture_output=True, text=True, env=env)
            assert proc.returncode == 2, proc.stderr
            # the anneal logs its cluster at INFO before it stops
            (line,) = [ln for ln in proc.stderr.splitlines() if not ln.startswith("INFO")]
            assert line.startswith("ERROR ")

    def test_anneal_without_config_is_2(self):
        assert cli.main(["anneal"]) == 2

    def test_underflowing_total_steps_is_2(self, tmp_path, caplog):
        # the schedule's temperature is 0.0 from step 744761 on, the
        # last step of a 744762-step run; 744761 steps pass
        passing = cli.build_config({"anneal.total_steps": 744761}, mode="anneal")
        assert passing.anneal.total_steps == 744761
        cfg_path = tmp_path / "uf.cfg"
        out = tmp_path / "o"
        cfg_path.write_text(QUBIT_CFG.format(steps=744762, seed=1, out=out))
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 2
        assert not out.exists()
        (logged,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert "schedule underflows" in logged

    def test_empty_reference_cluster_is_2(self, tmp_path, caplog):
        # reference state picks an eigenvalue cell that has no grid members
        cfg_path = tmp_path / "n.cfg"
        cfg_path.write_text(
            "mode = anneal\ndim = 2\n"
            "pattern.known_indices = 3\npattern.known_values = 0.0\n"
            "grid.points_per_axis = 3\n"
            "grid.theta_ref = 0.05,0.0\n"
        )
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 2
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert "no cluster with key" in error

    @pytest.mark.parametrize("mode", ["anneal", "gridinfo"])
    def test_empty_grid_is_2(self, tmp_path, mode):
        # a known coordinate of 1.5 puts every qubit grid point outside the PSD region
        cfg_path = tmp_path / "empty.cfg"
        out = tmp_path / "o"
        cfg_path.write_text(
            f"mode = {mode}\ndim = 2\n"
            "pattern.known_indices = 3\npattern.known_values = 1.5\n"
            f"output.dir = {out}\n"
        )
        assert cli.main([mode, "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_numerical_failure_is_3(self, monkeypatch, tmp_path):
        from povm_lab.errors import SingularDesign

        def boom(cfg):
            raise SingularDesign("forced")

        monkeypatch.setattr(cli, "_run_anneal", boom)
        cfg_path = tmp_path / "x.cfg"
        cfg_path.write_text(QUBIT_CFG.format(steps=1, seed=1, out=tmp_path / "o"))
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 3

    def test_verify_failure_is_1(self, monkeypatch):
        from povm_lab import catalog

        broken = catalog.qutrit_csic()
        broken.elements[0] = broken.elements[0] * 1.5
        monkeypatch.setattr(cli.catalog, "qutrit_csic", lambda: broken)
        assert cli.main(["verify"]) == 1


class TestCommandLine:
    """`cli.main`'s hand parser: MODE [--config FILE] [--out DIR].  Every
    config here sets `anneal.seed = 1`, which the report shows."""

    @staticmethod
    def _config(tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(QUBIT_CFG.format(steps=5, seed=1, out=tmp_path / "cfg_out"))
        return str(cfg_path)

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["anneal", "--config", "{cfg}"], "cfg_out"),
            (["anneal", "--config={cfg}"], "cfg_out"),
            (["--config", "{cfg}", "anneal"], "cfg_out"),
            (["--config={cfg}", "anneal"], "cfg_out"),
            (["anneal", "--config", "{cfg}", "--out", "{tmp}/flag_out"], "flag_out"),
            (["anneal", "--out={tmp}/flag_out", "--config", "{cfg}"], "flag_out"),
            (["--out", "{tmp}/flag_out", "--config={cfg}", "anneal"], "flag_out"),
            # a repeated flag keeps its last value
            (
                ["anneal", "--config", "{cfg}", "--out", "{tmp}/a", "--out", "{tmp}/flag_out"],
                "flag_out",
            ),
        ],
    )
    def test_accepted_forms(self, tmp_path, capsys, argv, out):
        cfg = self._config(tmp_path)
        argv = [a.format(cfg=cfg, tmp=tmp_path) for a in argv]
        assert cli.main(argv) == 0
        assert capsys.readouterr() == ("", "")
        report = (tmp_path / out / "report.txt").read_text().splitlines()
        assert "seed  1" in report
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["c.cfg", out])

    @pytest.mark.parametrize(
        "argv, reason",
        [
            ([], "a mode is required"),
            (["--config", "{cfg}"], "a mode is required"),
            (["bogus", "--config", "{cfg}"], "unknown mode 'bogus'"),
            (["Anneal", "--config", "{cfg}"], "unknown mode 'Anneal'"),
            (["anneal", "refine", "--config", "{cfg}"], "unexpected argument 'refine'"),
            (["anneal", "--config", "{cfg}", "extra"], "unexpected argument 'extra'"),
            (["anneal", "--conf", "{cfg}"], "unknown flag '--conf'"),
            (["anneal", "--conf={cfg}"], "unknown flag '--conf'"),
            (["anneal", "--config", "{cfg}", "--bogus", "x"], "unknown flag '--bogus'"),
            (["anneal", "--config", "{cfg}", "-s", "1"], "unknown flag '-s'"),
            (["anneal", "--config", "{cfg}", "--"], "unknown flag '--'"),
            (["anneal", "--config"], "--config needs a value"),
            (["anneal", "--config", "{cfg}", "--out"], "--out needs a value"),
            # a seed is set only by the anneal.seed and refine.seed keys
            (["anneal", "--config", "{cfg}", "--seed", "7"], "unknown flag '--seed'"),
            (["refine", "--config", "{cfg}", "--seed=7"], "unknown flag '--seed'"),
        ],
    )
    def test_usage_error_is_2(self, tmp_path, capsys, argv, reason):
        cfg = self._config(tmp_path)
        assert cli.main([a.format(cfg=cfg) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"{cli.USAGE}\npovm-lab: error: {reason}\n"
        assert not (tmp_path / "cfg_out").exists()

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], ["anneal", "--help"], ["--config", "{cfg}", "anneal", "-h"]],
    )
    def test_help_is_0_with_usage_on_stdout(self, tmp_path, capsys, argv):
        cfg = self._config(tmp_path)
        assert cli.main([a.format(cfg=cfg) for a in argv]) == 0
        assert capsys.readouterr() == (f"{cli.USAGE}\n", "")
        assert not (tmp_path / "cfg_out").exists()


def _benchmark_tracing():
    """perfbench/tracing.py, loaded by its path."""
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_workload_configs_parse(tmp_path, monkeypatch):
    """Every config perfbench/workloads.py writes parses with the workload's
    mode, and an anneal workload's config runs its step count, so a config-key
    change that misses the benchmark fails here.  The module is loaded by its
    path and registered in `sys.modules`, where its dataclass looks itself up."""
    spec = importlib.util.spec_from_file_location(
        "workloads", REPO / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for wl in workloads.WORKLOADS.values():
        cfg = cli.parse_config(wl.config_text(0, str(tmp_path)))
        assert cfg.mode == wl.mode, wl.name
        if wl.mode == "anneal":
            assert cfg.anneal.total_steps == wl.steps, wl.name


def test_benchmark_tracer_names_resolve():
    """perfbench/tracing.py wraps package names it looks up with `getattr`,
    reads the `OrthonormalBasis.stack` property and calls `rankone.refine` as
    (initial, config): building its wrappers, without installing them, fails
    here when a name it pins is gone."""
    tracing = _benchmark_tracing()
    wrappers = tracing.layer_wrappers(tracing.Tracer(), tracing.SearchClock())
    assert all(callable(fn) or isinstance(fn, property) for _, _, fn in wrappers)
    assert list(inspect.signature(rankone.refine).parameters) == ["initial", "config"]


def test_benchmark_traced_run_counts(tmp_path, qubit_cluster):
    """With perfbench/tracing.py's wrappers installed, a 20-step qubit anneal
    and a one-restart qutrit refine run through `cli.main`, and the counts its
    hooks read off the arguments and results are the runs' own: the hooks read
    `generate_grid`'s spec and `anneal`'s config and cluster by position."""
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    anneal_cfg = tmp_path / "anneal.cfg"
    anneal_cfg.write_text(QUBIT_CFG.format(steps=20, seed=0, out=tmp_path / "anneal"))
    refine_cfg = tmp_path / "refine.cfg"
    refine_cfg.write_text(f"mode = refine\nrefine.restarts = 1\noutput.dir = {tmp_path}/refine\n")
    with tracing.patched(tracing.layer_wrappers(tracer, tracing.SearchClock())):
        assert cli.main(["anneal", "--config", str(anneal_cfg)]) == 0
        assert cli.main(["refine", "--config", str(refine_cfg)]) == 0
    start = rankone.random_phases(3, 7, random.Random("0,0"))
    lm_iterations = len(rankone.refine(start, annealer.AnnealConfig(0)).objective_trace) - 1
    counts = tracer.counts
    assert counts["annealer.steps"] == 20
    assert counts["statespace.grid_points"] == 7**2
    assert counts["statespace.cluster_size"] == qubit_cluster.size
    assert counts["objective.member_rows"] == qubit_cluster.size
    assert counts["rankone.polish_sweeps"] == lm_iterations > 0
