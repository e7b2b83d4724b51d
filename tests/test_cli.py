import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_lab import annealer, cli, rankone
from povm_lab import povm as pv
from povm_lab.basis import ParameterPattern
from povm_lab.errors import ConfigurationError

DOCS_CONFIG = Path(__file__).resolve().parent.parent / "docs" / "qutrit_anneal.cfg"

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
        assert cfg.dim == default.dim == 3
        assert cfg.pattern.known_indices == default.pattern.known_indices == (7, 8)
        assert cfg.grid_points == default.grid_points == 7
        assert cfg.grid_cells == default.grid_cells == 10
        assert cfg.cluster_policy == default.cluster_policy == "largest"
        assert cfg.anneal == default.anneal
        assert cfg.refine.weight == default.refine.weight
        assert cfg.refine.restarts == default.refine.restarts
        assert cfg.refine.seed == default.refine.seed
        assert cfg.output_dir == default.output_dir

    def test_reference_policy_needs_theta_ref(self):
        with pytest.raises(ConfigurationError, match="theta_ref"):
            cli.parse_config("mode = gridinfo\ngrid.cluster_policy = reference\n")

    def test_positional_mode_overrides(self):
        cfg = cli.parse_config("mode = anneal\n", mode="gridinfo")
        assert cfg.mode == "gridinfo"

    @pytest.mark.parametrize(
        "line",
        [
            "anneal.s0 = nan",
            "anneal.T0 = nan",
            "anneal.T0 = inf",
            "anneal.reheat_factor = inf",
            "anneal.init_scale = nan",
            "refine.weight = nan",
            "grid.bound = nan",
            "pattern.known_indices = 7,8\npattern.known_values = 0.0,nan",
            "grid.cluster_policy = reference\ngrid.theta_ref = 0.1,inf,0,0,0,0",
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
    if isinstance(a, ParameterPattern) and isinstance(b, ParameterPattern):
        return (a.dim, a.unknown_indices, a.known_indices, a.known_values.tolist()) == (
            b.dim,
            b.unknown_indices,
            b.known_indices,
            b.known_values.tolist(),
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _changed_fields(cfg, base):
    got, want = _leaf_fields(cfg), _leaf_fields(base)
    assert got.keys() == want.keys()
    return {path for path in want if not _same(got[path], want[path])}


# key -> (config lines with a valid non-default value, the fields they change).
# A pattern key needs its partner, dim also changes the pattern derived from
# it, and the reference policy needs a theta_ref.
_KEY_CASES = {
    "mode": ("mode = refine", {"mode"}),
    "dim": ("dim = 2", {"dim", "pattern"}),
    "pattern.known_indices": (
        "pattern.known_indices = 1,2\npattern.known_values = 0.0,0.0",
        {"pattern"},
    ),
    "pattern.known_values": (
        "pattern.known_indices = 7,8\npattern.known_values = 0.1,0.0",
        {"pattern"},
    ),
    "grid.points_per_axis": ("grid.points_per_axis = 5", {"grid_points"}),
    "grid.bound": ("grid.bound = 0.5", {"grid_bound"}),
    "grid.cells": ("grid.cells = 4", {"grid_cells"}),
    "grid.cluster_policy": (
        "grid.cluster_policy = reference\ngrid.theta_ref = 0.1,0,0,0,0,0",
        {"cluster_policy", "theta_ref"},
    ),
    "grid.theta_ref": ("grid.theta_ref = 0.1,0,0,0,0,0", {"theta_ref"}),
    "anneal.total_steps": ("anneal.total_steps = 7", {"anneal.total_steps"}),
    "anneal.s0": ("anneal.s0 = 0.3", {"anneal.s0"}),
    "anneal.s_decay": ("anneal.s_decay = 0.99", {"anneal.s_decay"}),
    "anneal.T0": ("anneal.T0 = 2.0", {"anneal.T0"}),
    "anneal.T_decay": ("anneal.T_decay = 0.99", {"anneal.T_decay"}),
    "anneal.reheat_every": ("anneal.reheat_every = 9", {"anneal.reheat_every"}),
    "anneal.reheat_factor": ("anneal.reheat_factor = 2.0", {"anneal.reheat_factor"}),
    "anneal.max_resample": ("anneal.max_resample = 9", {"anneal.max_resample"}),
    "anneal.seed": ("anneal.seed = 9", {"anneal.rng_seed"}),
    "anneal.trace_every": ("anneal.trace_every = 9", {"anneal.trace_every"}),
    "anneal.perturb_a0": ("anneal.perturb_a0 = false", {"anneal.perturb_a0"}),
    "anneal.init_scale": ("anneal.init_scale = 0.1", {"init_scale"}),
    "refine.weight": ("refine.weight = 2.0", {"refine.weight"}),
    "refine.restarts": ("refine.restarts = 2", {"refine.restarts"}),
    "refine.element_count": ("refine.element_count = 5", {"refine.element_count"}),
    "refine.seed": ("refine.seed = 9", {"refine.seed"}),
    "output.dir": ("output.dir = elsewhere", {"output_dir"}),
}
# keys whose default is unset or derived from dim, so no fixed value to write out
_DERIVED_DEFAULT_KEYS = {"grid.bound", "grid.theta_ref", "refine.element_count"}
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


class TestKeyTable:
    def test_every_key_has_a_case(self):
        assert set(_KEY_CASES) == set(cli._CONFIG_KEYS)
        assert len(cli._CONFIG_KEYS) == 26
        targets = {target for target, _, _ in cli._CONFIG_KEYS.values()}
        assert targets == {"config", "anneal", "refine", "pattern"}

    def test_refine_settings_fields(self):
        names = [f.name for f in dataclasses.fields(cli.RefineSettings)]
        assert names == ["weight", "restarts", "element_count", "seed"]

    @pytest.mark.parametrize("key", _REMOVED_REFINE_KEYS)
    def test_removed_refine_key_is_unknown(self, tmp_path, key):
        with pytest.raises(ConfigurationError, match=f"line 2: unknown key '{key}'"):
            cli.parse_config(f"mode = refine\n{key} = 1\n")
        cfg_path = tmp_path / "r.cfg"
        out = tmp_path / "o"
        cfg_path.write_text(f"mode = refine\n{key} = 1\noutput.dir = {out}\n")
        assert cli.main(["refine", "--config", str(cfg_path)]) == 2
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
        for v in (cfg.anneal.s0, cfg.anneal.T0, cfg.init_scale, cfg.refine.weight):
            assert np.isfinite(v)


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
        from povm_lab.basis import ParameterPattern, gell_mann_basis

        pattern = ParameterPattern.from_known(2, {3: 0.0})
        initial = annealer.random_initial_povm(
            pattern, gell_mann_basis(2), np.random.default_rng([3, 1]), 0.05
        )
        written = pv.read_povm(out / "best_povm.txt")
        for a, b in zip(written.elements, initial.elements):
            assert np.abs(a - b).max() < 1e-15

    def test_byte_identical_trace_same_seed(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg_path = tmp_path / f"{name}.cfg"
            out = tmp_path / name
            cfg_path.write_text(QUBIT_CFG.format(steps=120, seed=11, out=out))
            assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_changes_trace(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cfg_path.write_text(QUBIT_CFG.format(steps=120, seed=11, out=out1))
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
        cfg_path.write_text(QUBIT_CFG.format(steps=120, seed=11, out=out2))
        assert cli.main(["anneal", "--config", str(cfg_path), "--seed", "12"]) == 0
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_outputs_reparse(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(QUBIT_CFG.format(steps=60, seed=4, out=out))
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
        pov = pv.read_povm(out / "best_povm.txt")
        assert pv.validate(pov, 1e-9) == []
        records = annealer.read_trace(out / "trace.csv")
        assert [r.step for r in records] == list(range(0, 60, 20))

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
            records = annealer.read_trace(out / "trace.csv")
            first, last = records[0], records[-1]
            if (
                last.log_dacm <= first.log_dacm
                and last.sigma < 0.05
                and last.delta < 1e-2
                and last.Delta < 1e-2
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
        phases = rankone.read_phases(out / "phases.csv")
        assert phases.element_count == 7 and phases.dim == 3
        pov = pv.read_povm(out / "povm.txt")
        assert pov.m == 7
        report = (out / "report.txt").read_text()
        assert "verdict" in report

    def test_restarts_keep_the_lowest_objective(self, tmp_path):
        cfg_path = tmp_path / "r.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(f"mode = refine\ndim = 3\nrefine.restarts = 3\noutput.dir = {out}\n")
        assert cli.main(["refine", "--config", str(cfg_path), "--seed", "4"]) == 0
        runs = [
            rankone.refine(
                rankone.random_phases(3, 7, np.random.default_rng([4, r])),
                annealer.AnnealConfig(total_steps=0),
                1.0,
            )
            for r in range(3)
        ]
        best = min(runs, key=lambda res: res.objective)
        report = (out / "report.txt").read_text().splitlines()
        assert f"objective  {best.objective!r}" in report
        assert "restarts  3" in report and "seed  4" in report
        written = rankone.read_phases(out / "phases.csv")
        assert np.array_equal(written.phases, best.phases.phases)


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


class TestExitCodes:
    @pytest.mark.parametrize(
        "mode, text, flags",
        [
            ("anneal", QUBIT_CFG.format(steps=5, seed=-1, out="{out}"), []),
            ("refine", "mode = refine\nrefine.seed = -1\noutput.dir = {out}\n", []),
            ("anneal", QUBIT_CFG.format(steps=5, seed=1, out="{out}"), ["--seed", "-1"]),
        ],
        ids=["anneal.seed", "refine.seed", "--seed"],
    )
    def test_negative_seed_is_2(self, tmp_path, mode, text, flags):
        cfg_path = tmp_path / "seed.cfg"
        out = tmp_path / "o"
        cfg_path.write_text(text.format(out=out))
        assert cli.main([mode, "--config", str(cfg_path), *flags]) == 2
        assert not out.exists()

    def test_config_error_is_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("grid.points_per_axis = 0\n")
        assert cli.main(["gridinfo", "--config", str(cfg_path)]) == 2

    def test_missing_config_is_2(self, tmp_path):
        assert cli.main(["anneal", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_anneal_without_config_is_2(self):
        assert cli.main(["anneal"]) == 2

    @pytest.mark.parametrize("line", ["anneal.T_decay = 0.001", "anneal.s_decay = 0.001"])
    def test_underflowing_schedule_is_2(self, tmp_path, line):
        # 0.001**t is 0.0 from t = 108, before the last of the 200 steps
        cfg_path = tmp_path / "uf.cfg"
        out = tmp_path / "o"
        cfg_path.write_text(QUBIT_CFG.format(steps=200, seed=1, out=out) + line + "\n")
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_nan_s0_is_2(self, tmp_path):
        cfg_path = tmp_path / "nan.cfg"
        out = tmp_path / "o"
        cfg_path.write_text(QUBIT_CFG.format(steps=5, seed=1, out=out) + "anneal.s0 = nan\n")
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_empty_reference_cluster_is_2(self, tmp_path):
        # reference state picks an eigenvalue cell that has no grid members
        cfg_path = tmp_path / "n.cfg"
        cfg_path.write_text(
            "mode = anneal\ndim = 2\n"
            "pattern.known_indices = 3\npattern.known_values = 0.0\n"
            "grid.points_per_axis = 3\n"
            "grid.cluster_policy = reference\n"
            "grid.theta_ref = 0.05,0.0\n"
        )
        assert cli.main(["anneal", "--config", str(cfg_path)]) == 2

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
