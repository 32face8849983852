"""Run configuration, driver, artifacts on disk, and the command line."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fenepsv
from fenepsv.cli import build_config, main, parse_config_file
import fenepsv.model as model_mod
from fenepsv.model import (H, HSXX, HSZZ, HU, AdmissibilityError, PhysParams, SolverError, _column_runs,
                           equilibrium_sigma, free_energy, normal_stress, primitive)
from fenepsv.scenarios import (
    ConfigError,
    RunConfig,
    SNAPSHOT_COLUMNS,
    convergence_study,
    initial_condition,
    preset_dam_break,
    preset_smooth_wave,
    preset_uniform,
    run,
)
from fenepsv.scenarios import (
    _ROW_TAIL,
    _ROWS_PER_WRITE,
    _grid_text,
    _joined,
    _x_points,
    write_snapshot_csv,
    write_svg_summary,
)
import fenepsv.timeloop as timeloop_mod
from fenepsv.timeloop import (
    DissipationViolation,
    Grid,
    SimState,
    SourceSolveFailure,
    StepControl,
    SubcharacteristicViolation,
    full_step,
    relax_conformations,
)
from test_timeloop import force_runs

# Every exception class of the package root but ConfigError: the solver's errors.
SOLVER_ERROR_NAMES = sorted(
    name
    for name, obj in vars(fenepsv).items()
    if isinstance(obj, type) and issubclass(obj, Exception) and obj is not ConfigError
)


class TestConfig:
    def test_preset_dam_break_fields(self):
        cfg = preset_dam_break(100.0)
        assert cfg.params.ell == 100.0
        assert cfg.params.g == 10.0 and cfg.params.G == 0.1 and cfg.params.lam == 0.1
        assert cfg.params.zeta == 0.0
        assert cfg.cells == 256 and cfg.t_end == 0.1
        assert cfg.left == (1.0, 0.0, 1.0, 1.0) and cfg.right == (0.1, 0.0, 1.0, 1.0)
        assert cfg.jump_x == 0.5

    def test_preset_rejects_small_ell(self):
        with pytest.raises(ConfigError):
            preset_dam_break(2.0)
        with pytest.raises(ConfigError):
            preset_dam_break(1.0)

    def test_preset_uniform_is_equilibrium(self):
        cfg = preset_uniform(10.0)
        se = float(equilibrium_sigma(cfg.params))
        assert cfg.left == (1.0, 0.0, se, se)

    @pytest.mark.parametrize(
        "patch",
        [
            dict(bc="open"),
            dict(cells=0),
            dict(t_end=-0.1),
            dict(cfl=0.0),
            dict(cfl=0.6),
            dict(snapshots=0),
            dict(jump_x=1.5),
            dict(scenario="blast"),
            dict(left=(0.0, 0.0, 1.0, 1.0)),
            dict(left=(1.0, 0.0, 6.0, 6.0)),
            dict(left=(1.0, 0.0, 1.0)),
            # cell widths that overflow or underflow
            dict(x_min=-1e308, x_max=1e308, jump_x=0.0),
            dict(x_min=-1e308, x_max=1.5e308, jump_x=0.0),
            dict(x_max=1e-320, cells=4096, jump_x=5e-321),
        ],
    )
    def test_validation_rejects(self, patch):
        cfg = preset_dam_break(10.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, **patch)

    @pytest.mark.parametrize("preset", [preset_dam_break, preset_uniform, preset_smooth_wave])
    def test_preset_builds_one_config(self, preset, monkeypatch):
        # The preset's values merged with the overrides, checked once: one
        # Grid built, and a bad override fails as the config's own check.
        grids = []
        original = Grid.__post_init__

        def counting(self):
            grids.append(self.n)
            original(self)

        monkeypatch.setattr(Grid, "__post_init__", counting)
        assert preset(10.0, cells=64, t_end=0.02).cells == 64 and grids == [64]
        for override, error, text in (
            (dict(cfl=2.0), ConfigError, "cfl must lie in (0, 1/2], got 2.0"),
            (dict(cells=0), ConfigError,
             "grid of 0 cells on [0.0, 1.0]: cell width nan is not a positive finite float"),
            (dict(bogus=1), TypeError, "RunConfig.__init__() got an unexpected keyword argument 'bogus'"),
        ):
            with pytest.raises(error) as err:
                preset(10.0, **override)
            assert type(err.value) is error and str(err.value) == text

    @pytest.mark.parametrize("name, value, what", [
        ("cells", 16.5, "an integer"),
        ("cells", True, "an integer"),
        ("snapshots", 2.5, "an integer"),
        ("snapshots", np.float64(4.0), "an integer"),
        ("max_steps", np.True_, "an integer >= 1 or unset"),
        ("t_end", "0.1", "a real number"),
        ("cfl", "0.5", "a real number"),
        ("x_min", False, "a real number"),
        ("x_max", "1", "a real number"),
        ("jump_x", None, "a real number"),
        ("params", None, "a PhysParams"),
        ("outdir", 5, "unset, a str or a path"),
        ("outdir", b"out", "unset, a str or a path"),
        ("strict_dissipation", "false", "a bool"),
        ("strict_subchar", "false", "a bool"),
        ("strict_subchar", 0, "a bool"),
    ])
    def test_settings_of_the_wrong_type(self, name, value, what):
        # Checked before any other setting: a ConfigError naming the setting.
        with pytest.raises(ConfigError) as err:
            preset_dam_break(10.0, **{name: value})
        assert str(err.value) == f"{name} must be {what}, got {value!r}"

    @pytest.mark.parametrize("scenario", ["dam-break", "uniform", "smooth-wave"])
    @pytest.mark.parametrize("side, value", [
        ("left", (1.0, 0.0, 1.0, "1")),
        ("left", None),
        ("right", None),
        ("right", (0.1, 0.0, 1.0, True)),
        ("left", (1.0, 0.0, 1.0)),
        ("right", "1.01"),
        ("left", np.array(1.0)),
        ("right", np.ones((4, 1))),
        ("right", ([0.1], 0.0, 1.0, 1.0)),
        ("left", (1.0, 0.0, 1.0, 10**400)),
    ])
    def test_states_must_be_four_real_numbers(self, scenario, side, value):
        # Both states, whichever the scenario reads: run.json records both.
        with pytest.raises(ConfigError) as err:
            preset_dam_break(10.0, scenario=scenario, **{side: value})
        assert str(err.value) == (
            f"{side} state must be 4 real numbers (h u sigma_xx sigma_zz), got {value!r}")

    def test_path_outdir_and_numpy_bools_are_stored_for_run_json(self, tmp_path):
        cfg = preset_dam_break(10.0, cells=16, t_end=0.001, outdir=tmp_path / "out",
                               strict_subchar=np.True_, left=np.array([1.0, 0.0, 1.0, 1.0]))
        assert cfg.strict_subchar is True and cfg.left == (1.0, 0.0, 1.0, 1.0)
        assert cfg.outdir == str(tmp_path / "out")
        run(cfg)
        config = json.loads((tmp_path / "out" / "run.json").read_text())["config"]
        assert config["outdir"] == str(tmp_path / "out") and config["strict_subchar"] is True
        assert config["left"] == [1.0, 0.0, 1.0, 1.0]

    def test_a_grid_that_cannot_be_allocated(self):
        # 2**40 cells: a grid of 8 TiB per array, whose allocation is refused at once.
        with pytest.raises(ConfigError, match=r"^cells=1099511627776: the grid cannot be allocated \("):
            preset_dam_break(10.0, cells=2**40)

    def test_numpy_numbers_are_stored_as_python_numbers(self, tmp_path):
        cfg = preset_dam_break(10.0, cells=np.int64(16), snapshots=np.int32(2),
                               max_steps=np.int64(100), t_end=np.float32(0.005), x_max=1,
                               outdir=str(tmp_path))
        assert [type(getattr(cfg, k)) for k in ("cells", "snapshots", "max_steps", "t_end", "x_max")] \
            == [int, int, int, float, int]
        assert cfg.t_end == float(np.float32(0.005))
        run(cfg)
        config = json.loads((tmp_path / "run.json").read_text())["config"]
        assert config["cells"] == 16 and config["snapshots"] == 2 and config["t_end"] == cfg.t_end

    def test_t_end_zero_accepted(self):
        cfg = dataclasses.replace(preset_dam_break(10.0), t_end=0.0)
        assert cfg.t_end == 0.0

    def test_step_settings_checked_when_built(self):
        # cfl is checked by the StepControl that the config builds
        with pytest.raises(ConfigError, match=r"^cfl must lie in \(0, 1/2\], got 0.6$"):
            dataclasses.replace(preset_dam_break(10.0), cfl=0.6)


class TestInitialCondition:
    def test_dam_break_pure_cells(self):
        cfg = preset_dam_break(10.0, cells=64)
        grid = Grid.uniform(0.0, 1.0, 64)
        q = initial_condition(cfg, grid)
        assert np.all(q[H, :32] == 1.0) and np.all(q[H, 32:] == 0.1)
        assert np.all(q[HU] == 0.0)
        assert np.all(q[HSXX, :32] == 1.0) and np.allclose(q[HSXX, 32:], 0.1)

    def test_dam_break_split_cell_exact_average(self):
        # 10 cells on [0,1], jump at 0.43: cell 4 holds 30% left, 70% right
        cfg = dataclasses.replace(preset_dam_break(10.0), cells=10, jump_x=0.43)
        grid = Grid.uniform(0.0, 1.0, 10)
        q = initial_condition(cfg, grid)
        assert q[H, 4] == pytest.approx(0.3 * 1.0 + 0.7 * 0.1, rel=1e-14)
        assert np.all(q[H, :4] == 1.0) and np.all(q[H, 5:] == 0.1)

    def test_uniform_fills_domain(self):
        cfg = preset_uniform(10.0, cells=7)
        grid = Grid.uniform(0.0, 1.0, 7)
        q = initial_condition(cfg, grid)
        assert q[H].shape == (7,) and np.all(q[H] == 1.0)

    def test_smooth_wave_cell_averages(self):
        # Gauss quadrature of sin over a cell, compared to the exact integral
        cfg = preset_smooth_wave(10.0, cells=16)
        grid = Grid.uniform(0.0, 1.0, 16)
        q = initial_condition(cfg, grid)
        lo, hi = grid.edges[:-1], grid.edges[1:]
        exact = 1.0 + 0.1 * (np.cos(2 * np.pi * lo) - np.cos(2 * np.pi * hi)) / (
            2 * np.pi * grid.dx
        )
        assert np.allclose(q[H], exact, rtol=1e-13)

    @pytest.mark.parametrize("preset", [preset_dam_break, preset_uniform, preset_smooth_wave])
    def test_is_an_owned_float_array(self, preset):
        cfg = preset(10.0, cells=16)
        q = initial_condition(cfg, Grid.uniform(cfg.x_min, cfg.x_max, 16))
        assert type(q) is np.ndarray and q.shape == (4, 16) and q.dtype == np.float64
        assert q.flags.c_contiguous and q.flags.owndata and q.flags.writeable


class TestRunDriver:
    def test_artifacts_written(self, tmp_path):
        cfg = preset_dam_break(10.0, cells=32, outdir=str(tmp_path / "r"), t_end=0.02)
        res = run(cfg)
        files = {p.name for p in (tmp_path / "r").iterdir()}
        assert "diagnostics.csv" in files and "run.json" in files and "final.svg" in files
        assert len([f for f in files if f.startswith("snapshot_")]) == 11
        assert res.snapshot_files[0] == "snapshot_0.000000.csv"
        assert res.snapshot_files[-1] == "snapshot_0.020000.csv"

    def test_snapshot_header_and_roundtrip(self, tmp_path):
        cfg = preset_dam_break(10.0, cells=16, outdir=str(tmp_path), t_end=0.01, snapshots=1)
        res = run(cfg)
        path = tmp_path / res.snapshot_files[-1]
        header = path.read_text().splitlines()[0]
        assert header == ",".join(SNAPSHOT_COLUMNS)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert np.array_equal(data["h"], res.state.q[H])
        assert np.array_equal(data["x"], res.grid.centers)
        p = res.final_primitive()
        assert np.array_equal(data["stretch"], np.asarray(p.sxx + p.szz))

    def test_outdir_that_cannot_be_made_is_a_config_error(self, tmp_path, capsys):
        # An outdir under a regular file: ConfigError naming the outdir and the
        # OS error, before any file is written; exit 2 from the command line.
        (tmp_path / "plain").write_text("")
        outdir = tmp_path / "plain" / "out"
        with pytest.raises(ConfigError, match=re.escape(f"cannot create output directory {outdir}: ")
                           + r"\[Errno 20\] Not a directory"):
            run(preset_dam_break(10.0, cells=16, t_end=0.001, outdir=str(outdir)))
        assert [f.name for f in tmp_path.iterdir()] == ["plain"]
        assert (tmp_path / "plain").read_text() == ""
        p = write_cfg(tmp_path / "c.cfg", "cells = 16\nt_end = 0.001\n")
        assert main(["solve", "--config", p, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory") and "Traceback" not in err

    def test_diagnostics_columns(self, tmp_path):
        cfg = preset_dam_break(10.0, cells=16, outdir=str(tmp_path), t_end=0.01)
        run(cfg)
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "n,t,dt,mass,momentum,free_energy,max_dissipation_residual,worst_subchar_ratio"
        assert len(lines[1].split(",")) == 8

    def test_run_json_contents(self, tmp_path):
        cfg = preset_dam_break(10.0, cells=16, outdir=str(tmp_path), t_end=0.01)
        res = run(cfg)
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["summary"]["status"] == "ok"
        assert payload["summary"]["steps"] == res.steps
        assert payload["config"]["cells"] == 16
        assert payload["config"]["params"]["ell"] == 10.0
        assert payload["snapshots"] == res.snapshot_files

    def test_t_end_zero_initial_snapshot_only(self, tmp_path):
        cfg = preset_dam_break(10.0, cells=16, outdir=str(tmp_path), t_end=0.0)
        res = run(cfg)
        assert res.steps == 0
        assert res.snapshot_files == ["snapshot_0.000000.csv"]
        assert (tmp_path / "final.svg").exists()
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 1  # header only

    def test_snapshot_names_collide_at_six_decimals(self, tmp_path):
        # 1e-07, 2e-07 and 3e-07 all read 0.000000: each later name takes the time's repr
        cfg = preset_dam_break(10.0, cells=16, outdir=str(tmp_path), t_end=3e-7, snapshots=3)
        names = ["snapshot_0.000000.csv", "snapshot_1e-07.csv", "snapshot_2e-07.csv",
                 "snapshot_3e-07.csv"]
        assert run(cfg).snapshot_files == names
        assert sorted(p.name for p in tmp_path.glob("snapshot_*")) == sorted(names)

    def test_uniform_equilibrium_run_stationary(self):
        cfg = preset_uniform(10.0, cells=16, t_end=0.05)
        res = run(cfg)
        q0, q1 = res.initial, res.state.q
        assert np.array_equal(q1[H], q0[H]) and np.array_equal(q1[HU], q0[HU])
        assert np.max(np.abs(q1[HSXX] - q0[HSXX])) <= 1e-12

    def test_final_time_exact(self):
        res = run(preset_dam_break(10.0, cells=32, t_end=0.02))
        assert res.state.t == 0.02

    def test_snapshot_landings_keep_the_carried_energy(self, monkeypatch):
        contexts = []
        check = model_mod.require_admissible

        def recording(p, params, context="state"):
            contexts.append(context)
            return check(p, params, context)

        monkeypatch.setattr(model_mod, "require_admissible", recording)
        res = run(preset_dam_break(10.0, cells=32, t_end=0.06, snapshots=5))
        assert res.steps > 2 * 5
        assert contexts.count("cell state") == 1
        assert contexts.count("cell after transport") == res.steps

    def test_rerun_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            run(preset_dam_break(10.0, cells=24, t_end=0.01, outdir=str(tmp_path / name)))
        for f in sorted((tmp_path / "a").iterdir()):
            if f.suffix in (".csv", ".svg"):
                assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name

    def test_svg_parses_with_panels(self, tmp_path):
        cfg = preset_dam_break(10.0, cells=16, outdir=str(tmp_path), t_end=0.01)
        run(cfg)
        root = ET.parse(tmp_path / "final.svg").getroot()
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//s:polyline", ns)) == 8  # 2 series x 4 panels
        titles = {t.text for t in root.findall(".//s:text", ns)}
        assert {"h", "u", "sigma_xx", "sigma_zz"} <= titles


class TestRunSpace:
    """run() keeps a piecewise-constant run in run space, from its initial
    condition to its result, with the bits of the run on every cell."""

    def test_peak_memory_of_a_large_dam_break(self):
        # q0, the grid and the result, and no step's full-size arrays: at
        # most three (4, n) states traced at the peak.
        n = 16384
        cfg = preset_dam_break(10.0, cells=n, t_end=3e-4)
        tracemalloc.start()
        try:
            res = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.steps > 10 and res.state._carried_runs is not None
        assert peak <= 3 * 4 * 8 * n

    def test_result_holds_full_arrays(self):
        res = run(preset_dam_break(10.0, cells=4096, t_end=1e-3))
        assert res.state._carried_runs is not None and "q" in vars(res.state)
        assert res.state.q.shape == res.initial.shape == (4, 4096)
        # Stepped from itself, the initial condition is read-only: with no
        # step, the result's q is it, and a write to either raises.
        res = run(preset_dam_break(10.0, cells=4096, t_end=0.0))
        assert res.steps == 0 and res.state.q is res.initial
        with pytest.raises(ValueError, match="read-only"):
            res.state.q[0, 0] = 2.0

    def test_parity_with_the_run_on_every_cell(self, tmp_path):
        # A reflective dam break of 4096 cells with 4 snapshots, in run space
        # and with RUNS_MIN_CELLS above n: the same final cells, the same
        # seven diagnostics of every step and the same snapshot bytes.
        import fenepsv.scenarios as scenarios_mod

        cfg = preset_dam_break(10.0, cells=4096, t_end=0.01, snapshots=4, bc="reflective")

        def solve(name, min_cells):
            diags, in_runs = [], []

            def recording(*args):
                state, diag = timeloop_mod.full_step(*args)
                diags.append(dataclasses.astuple(diag))
                in_runs.append(state._carried_runs is not None)
                return state, diag

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scenarios_mod, "full_step", recording)
                mp.setattr(timeloop_mod, "RUNS_MIN_CELLS", min_cells)
                res = run(dataclasses.replace(cfg, outdir=str(tmp_path / name)))
            snapshots = [(tmp_path / name / f).read_bytes() for f in res.snapshot_files]
            return res.state.q.tobytes(), np.array(diags).tobytes(), snapshots, in_runs

        *on_runs, in_runs = solve("runs", timeloop_mod.RUNS_MIN_CELLS)
        *every_cell, in_cells = solve("every_cell", cfg.cells + 1)
        assert all(in_runs) and not any(in_cells) and len(on_runs[2]) == 5
        assert on_runs == every_cell


def _loop_rows(cols):
    """Snapshot rows formatted one element at a time (the reference formatter)."""
    cols = np.broadcast_arrays(*cols)
    return [",".join(repr(float(c[i])) for c in cols) for i in range(cols[0].size)]


def _snapshot_columns(grid, q, params):
    """The SNAPSHOT_COLUMNS of q on the grid, through the public (checked) model functions."""
    p = primitive(q)
    return (grid.centers, p.h, p.u, p.sxx, p.szz, normal_stress(p, params), p.sxx + p.szz,
            free_energy(p, params))


def _written_rows(x, cols):
    """Snapshot rows as the writer composes them: the grid text joined by the
    row-run tails, each formatted once."""
    a = np.array(np.broadcast_arrays(*cols), dtype=np.float64)
    starts, lengths = _column_runs(a)
    tails = [_ROW_TAIL % row for row in zip(*a[:, starts].tolist())]
    x_text = _grid_text(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    return "".join(_joined(x_text, tails, starts, lengths)).splitlines()


def _joined_per_cell(col, fmt: str) -> str:
    """`_joined` of the heads "<i>" and the texts `fmt % v` of col's runs of equal bits."""
    starts, lengths = _column_runs(col[None])
    heads = [f"<{i}>" for i in range(col.size)]
    return "".join(_joined(heads, [fmt % v for v in col[starts].tolist()], starts, lengths))


def _seven(c):
    """Seven columns from one: the column rotated by 0..6 cells, so each changes at other cells."""
    return [np.roll(c, k) for k in range(len(SNAPSHOT_COLUMNS) - 1)]


class TestColumnFormat:
    TINY = 5e-324
    COLUMNS = {
        "signed_zeros": [0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
        "runs_at_both_ends": [1.5, 1.5, 1.5, 2.0, 0.1, 0.1, 0.1, 0.1],
        "all_equal": [0.1] * 17,
        "alternating": [1.0, 2.0] * 9,
        "subnormal_and_huge": [TINY, TINY, 2 * TINY, 2.2250738585072014e-308, 1e308, 1e308,
                               -1e308, -TINY, 1.7976931348623157e308],
        "one_cell": [0.30000000000000004],
    }

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_matches_loop(self, name):
        c = np.array(self.COLUMNS[name])
        x = np.linspace(0.0, 1.0, c.size)
        cols = _seven(c)
        assert _written_rows(x, cols) == _loop_rows((x, *cols))

    def test_columns_change_at_different_cells(self):
        n = 12
        i = np.arange(n)
        cols = [np.where(i < 2 + k, 0.5, 1.0 + k) for k in range(len(SNAPSHOT_COLUMNS) - 1)]
        x = np.linspace(0.0, 1.0, n)
        assert _written_rows(x, cols) == _loop_rows((x, *cols))

    def test_one_column_differs_only_in_zero_sign(self):
        n = 9
        cols = [np.zeros(n) for _ in range(len(SNAPSHOT_COLUMNS) - 1)]
        cols[3][[2, 3, 7]] = -0.0
        x = np.linspace(0.0, 1.0, n)
        rows = _written_rows(x, cols)
        assert rows == _loop_rows((x, *cols))
        assert [r.split(",")[4] for r in rows] == ["-0.0" if k in (2, 3, 7) else "0.0"
                                                   for k in range(n)]

    def test_stride_zero_broadcast_column(self):
        x = np.linspace(0.0, 1.0, 12)
        x_b, c = np.broadcast_arrays(x, np.array(-0.0))
        assert c.strides == (0,)
        cols = [c] + _seven(np.arange(12.0))[1:]
        assert _written_rows(x_b, cols) == _loop_rows((x, *cols))

    def test_random_runs_match_loop(self):
        rng = np.random.default_rng(7)
        values = np.array([0.0, -0.0, 1.0, 1 / 3, -2.5e-310, 1e308, np.nextafter(1.0, 2.0)])
        c = values[rng.integers(0, values.size, 400)].repeat(rng.integers(1, 4, 400))
        assert _joined_per_cell(c, "%r") == "".join(f"<{i}>{float(v)!r}" for i, v in enumerate(c))
        assert _joined_per_cell(np.broadcast_to(-0.0, 5), "%r") == "<0>-0.0<1>-0.0<2>-0.0<3>-0.0<4>-0.0"
        cols = _seven(c)
        x = np.linspace(-1.0, 1.0, c.size)
        assert _written_rows(x, cols) == _loop_rows((x, *cols))

    def test_grid_text_keyed_on_centres_and_scoped_to_run(self, tmp_path, monkeypatch):
        """Same cell count, other edges: the text follows the centres' values,
        is formatted once per run and is released before the SVG is written."""
        import fenepsv.scenarios as scenarios_mod

        cfg = preset_dam_break(10.0, cells=16, t_end=0.002, snapshots=3)
        grid_a, grid_b = Grid.uniform(0.0, 1.0, 16), Grid.uniform(-2.0, 3.0, 16)
        q = initial_condition(cfg, grid_a)
        # One grid object whose centres are rewritten in place: a cache keyed on
        # identity (of the grid or of its centres) would hand back stale text.
        shared = types.SimpleNamespace(centers=np.empty(16))
        for k, g in enumerate((grid_a, grid_b, grid_a)):
            shared.centers[:] = g.centers
            for tag, grid in (("grid", g), ("shared", shared)):
                path = tmp_path / f"{tag}{k}.csv"
                write_snapshot_csv(path, grid, q, cfg.params)
                rows = path.read_text().splitlines()[1:]
                assert rows == _loop_rows(_snapshot_columns(g, q, cfg.params))
        infos = []

        def csv_then_info(*args):
            write_snapshot_csv(*args)
            infos.append(_grid_text.cache_info())

        def info_then_svg(*args):
            infos.append(_grid_text.cache_info())
            write_svg_summary(*args)

        monkeypatch.setattr(scenarios_mod, "write_snapshot_csv", csv_then_info)
        monkeypatch.setattr(scenarios_mod, "write_svg_summary", info_then_svg)
        cfg = dataclasses.replace(cfg, outdir=str(tmp_path / "run"))
        for _ in range(2):
            infos.clear()
            res = run(cfg)
            *at_snapshots, at_svg = infos
            assert [(i.misses, i.hits) for i in at_snapshots] == [
                (1, k) for k in range(len(res.snapshot_files))]
            assert at_svg.currsize == 0

    def test_polyline_points_match_per_point_format(self):
        rng = np.random.default_rng(11)
        long_runs = np.repeat(rng.normal(0.0, 3.0, 6), rng.integers(20, 200, 6))
        cases = [rng.normal(0.0, 10.0, n) ** 3 for n in (1, 2, 257)] + [long_runs]
        for y in cases:
            n = y.size
            x = np.sort(rng.uniform(-3.0, 5.0, n))
            ox, oy, w, h = rng.uniform(0.0, 500.0, 4)
            xl, xr = float(x[0]) - 0.5, float(x[-1]) + 0.5
            lo, hi = float(np.min(y)) - 0.1, float(np.max(y)) + 0.1

            def sx(v):
                return ox + (v - xl) / (xr - xl) * w

            def sy(v):
                return oy + h - (v - lo) / (hi - lo) * h

            ref = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
            py = sy(y)
            starts, lengths = _column_runs(py[None])
            texts = ["%.2f" % v for v in py[starts].tolist()]
            assert "".join(_joined(_x_points(sx(x)), texts, starts, lengths)) == ref
        assert _joined_per_cell(np.array([0.0, -0.0, -0.0, 0.0]), "%.2f") == (
            "<0>0.00<1>-0.00<2>-0.00<3>0.00")

    @pytest.mark.parametrize("lengths", [
        [1] * 7, [1] * (2 * _ROWS_PER_WRITE + 3), [_ROWS_PER_WRITE], [_ROWS_PER_WRITE, 1],
        [1, _ROWS_PER_WRITE, 1], [1] * (_ROWS_PER_WRITE - 1) + [2, 1],
        [_ROWS_PER_WRITE + 1, 3 * _ROWS_PER_WRITE - 2, 5], [1, 2] * 400,
        [1, 2] * 200 + [3 * _ROWS_PER_WRITE]])
    def test_joined_pieces_hold_rows_per_write_cells(self, lengths):
        # Runs of one cell, of exactly _ROWS_PER_WRITE and of more, starting at
        # a piece's first cell or running across pieces, in states whose runs
        # average under two cells and in states of longer runs: each piece but
        # the last holds _ROWS_PER_WRITE cells, and the pieces are heads[i] +
        # texts[k] for every cell, in order.
        lengths = np.array(lengths)
        starts = np.cumsum(lengths) - lengths
        n = int(lengths.sum())
        heads = [f"{i}:" for i in range(n)]
        texts = [f"r{k};" for k in range(lengths.size)]
        pieces = list(_joined(heads, texts, starts, lengths))
        assert [p.count(";") for p in pieces] == [
            min(_ROWS_PER_WRITE, n - i) for i in range(0, n, _ROWS_PER_WRITE)]
        assert "".join(pieces) == "".join(h + t for h, t in zip(heads, np.repeat(texts, lengths)))

    def test_one_cell_solve_writes_outputs(self, tmp_path):
        res = run(preset_uniform(10.0, cells=1, t_end=0.01, outdir=str(tmp_path)))
        root = ET.parse(tmp_path / "final.svg").getroot()
        assert root.tag.endswith("svg")
        rows = (tmp_path / res.snapshot_files[-1]).read_text().splitlines()
        assert rows[1:] == _loop_rows(_snapshot_columns(res.grid, res.state.q, res.config.params))


    def test_snapshot_checks_its_state_once(self, tmp_path, monkeypatch):
        # One admissibility check per file, then the unchecked kernels.
        cfg = preset_dam_break(10.0, cells=16)
        grid = Grid.uniform(0.0, 1.0, 16)
        q = initial_condition(cfg, grid)
        calls = dict.fromkeys(("is_admissible", "require_admissible", "free_energy",
                               "normal_stress"), 0)
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "fenepsv"]
        for name in calls:
            original = getattr(model_mod, name)

            def counting(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        write_snapshot_csv(tmp_path / "s.csv", grid, q, cfg.params)
        assert calls == {"is_admissible": 1, "require_admissible": 1, "free_energy": 0,
                         "normal_stress": 0}
        bad = q.copy()
        bad[HSZZ, 3] = -1.0
        with pytest.raises(AdmissibilityError) as err:
            write_snapshot_csv(tmp_path / "bad.csv", grid, bad, cfg.params)
        assert err.value.index == (3,)
        assert str(err.value).startswith("snapshot state outside admissible region at index (3,)")


def _polylines(svg_path) -> list:
    """The `points` text of every polyline of an SVG file, in document order."""
    ns = {"s": "http://www.w3.org/2000/svg"}
    return [e.get("points") for e in ET.parse(svg_path).getroot().findall(".//s:polyline", ns)]


class TestOutputLayer:
    """Snapshots written from a state's runs and a streamed SVG: the bytes of
    the text made row by row and point by point, in bounded memory."""

    def _solve(self, cfg, outdir, min_cells=None):
        """run() with an outdir, recording each snapshot's state (its full q),
        each polyline's screen coordinates and the full q built per state."""
        import fenepsv.scenarios as scenarios_mod

        seen = {"q": [], "x": [], "y": [], "builds": 0}
        csv, x_points, column_runs = (scenarios_mod.write_snapshot_csv, scenarios_mod._x_points,
                                      scenarios_mod._column_runs)
        build = SimState.__getattr__

        def recording_csv(path, grid, q, params):
            runs = isinstance(q, tuple)
            seen["q"].append(np.repeat(q[0], q[2], axis=1) if runs else q.copy())
            csv(path, grid, q, params)

        def recording_x(px):
            seen["x"].append(np.array(px))
            return x_points(px)

        def recording_runs(a):
            if a.shape[0] == 1:   # a polyline's screen y, one row
                seen["y"].append(np.array(a[0]))
            return column_runs(a)

        def counting_build(state, name):
            seen["builds"] += name == "q"
            return build(state, name)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios_mod, "write_snapshot_csv", recording_csv)
            mp.setattr(scenarios_mod, "_x_points", recording_x)
            mp.setattr(scenarios_mod, "_column_runs", recording_runs)
            mp.setattr(SimState, "__getattr__", counting_build)
            if min_cells is not None:
                mp.setattr(timeloop_mod, "RUNS_MIN_CELLS", min_cells)
            res = run(dataclasses.replace(cfg, outdir=str(outdir)))
        return res, seen

    def _check_against_references(self, res, seen):
        # every row as `_loop_rows` formats it, every polyline point by point
        outdir = res.outdir
        assert len(seen["q"]) == len(res.snapshot_files)
        for name, q in zip(res.snapshot_files, seen["q"]):
            rows = (outdir / name).read_text().splitlines()
            assert rows[0] == ",".join(SNAPSHOT_COLUMNS)
            assert rows[1:] == _loop_rows(_snapshot_columns(res.grid, q, res.config.params))
        lines = _polylines(outdir / "final.svg")
        assert len(lines) == len(seen["y"]) == 8 and len(seen["x"]) == 2
        for k, (line, py) in enumerate(zip(lines, seen["y"])):
            px = seen["x"][(k // 2) % 2]   # panels h, u / sigma_xx, sigma_zz: two per column
            assert line == " ".join("%.2f,%.2f" % p for p in zip(px.tolist(), py.tolist()))

    def test_runs_write_the_bytes_of_their_cells(self, tmp_path):
        # The runs (cells, starts, lengths) of a 16-cell dam break write the
        # bytes of its q; an inadmissible run fails as the check on every
        # cell does, naming the run's first cell and counting its cells,
        # before the file is opened, as does a state of other length than the grid.
        cfg = preset_dam_break(10.0, cells=16)
        grid = Grid.uniform(0.0, 1.0, 16)
        q = initial_condition(cfg, grid)
        starts, lengths = _column_runs(q)
        assert starts.tolist() == [0, 8] and lengths.tolist() == [8, 8]
        write_snapshot_csv(tmp_path / "q.csv", grid, q, cfg.params)
        write_snapshot_csv(tmp_path / "runs.csv", grid, (q[:, starts], starts, lengths), cfg.params)
        assert (tmp_path / "runs.csv").read_bytes() == (tmp_path / "q.csv").read_bytes()
        cells = q[:, starts]
        cells[HSZZ, 1] = -1.0
        with pytest.raises(AdmissibilityError) as err:
            write_snapshot_csv(tmp_path / "bad.csv", grid, (cells, starts, lengths), cfg.params)
        assert err.value.index == (8,)
        assert str(err.value).startswith("snapshot state outside admissible region at index (8,)")
        assert str(err.value).endswith("(8 offending entries)")
        assert not (tmp_path / "bad.csv").exists()
        with pytest.raises(ValueError, match="^16 cells on a grid of 12$"):
            write_snapshot_csv(tmp_path / "bad.csv", Grid.uniform(0.0, 1.0, 12), q, cfg.params)
        assert not (tmp_path / "bad.csv").exists()

    def test_a_csv_from_q_has_the_bytes_of_one_from_its_runs(self, tmp_path):
        # One state with runs of one cell, of exactly _ROWS_PER_WRITE cells and of more.
        cfg = preset_dam_break(10.0, cells=2048)
        grid = Grid.uniform(0.0, 1.0, 2048)
        q = initial_condition(cfg, grid)
        q[HU, 1:1 + _ROWS_PER_WRITE] = 0.25
        q[HU, 1 + _ROWS_PER_WRITE:9 + _ROWS_PER_WRITE] = np.linspace(-0.5, 0.5, 8)
        starts, lengths = _column_runs(q)
        assert sorted(set(lengths.tolist())) == [1, 503, _ROWS_PER_WRITE, 1024]
        write_snapshot_csv(tmp_path / "q.csv", grid, q, cfg.params)
        write_snapshot_csv(tmp_path / "runs.csv", grid, (q[:, starts], starts, lengths), cfg.params)
        assert (tmp_path / "runs.csv").read_bytes() == (tmp_path / "q.csv").read_bytes()
        rows = (tmp_path / "q.csv").read_text().splitlines()
        assert rows[1:] == _loop_rows(_snapshot_columns(grid, q, cfg.params))

    def test_run_space_writes_the_bytes_of_every_cell(self, tmp_path):
        # A reflective 4096-cell dam break with 20 snapshots, written from its
        # runs and with RUNS_MIN_CELLS above n: the same files, byte for byte.
        cfg = preset_dam_break(10.0, cells=4096, t_end=0.002, snapshots=20, bc="reflective")
        on_runs, seen = self._solve(cfg, tmp_path / "runs")
        every_cell, seen_cells = self._solve(cfg, tmp_path / "cells", cfg.cells + 1)
        names = on_runs.snapshot_files + ["final.svg"]
        assert len(names) == 22 and names == every_cell.snapshot_files + ["final.svg"]
        for name in names:
            assert (tmp_path / "runs" / name).read_bytes() == (tmp_path / "cells" / name).read_bytes()
        # In run space from start to end: the full q is built once, for the result.
        assert on_runs.state._carried_runs is not None and seen["builds"] == 1
        assert seen_cells["builds"] == 0
        self._check_against_references(every_cell, seen_cells)

    def test_every_row_of_a_run_free_state(self, tmp_path):
        # A periodic smooth wave has no runs of equal cells: one row text per cell.
        cfg = preset_smooth_wave(10.0, cells=1024, t_end=0.002, snapshots=4)
        res, seen = self._solve(cfg, tmp_path / "smooth")
        self._check_against_references(res, seen)

    def test_memory_of_the_output_layer(self, tmp_path):
        # The solve_snapshots configuration: no (4, n) q per snapshot, no
        # column stack, no whole SVG document, and the grid text released
        # before the SVG.  Traced peaks after one warm-up run.
        cfg = preset_dam_break(10.0, cells=4096, t_end=0.001, snapshots=20, outdir=str(tmp_path))
        run(cfg)

        def traced_peak(fn, *args):
            tracemalloc.start()   # traces only what is allocated from here on
            try:
                return fn(*args), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        res, run_peak = traced_peak(run, cfg)
        _, svg_peak = traced_peak(write_svg_summary, tmp_path / "again.svg", res.grid, res.initial,
                                  res.state.q)
        assert (tmp_path / "again.svg").read_bytes() == (tmp_path / "final.svg").read_bytes()
        assert run_peak <= 1.6e6 and svg_peak <= 1.2e6


class TestConvergence:
    def test_validation(self):
        cfg = preset_dam_break(10.0)
        with pytest.raises(ConfigError):
            convergence_study(cfg, [64])
        with pytest.raises(ConfigError):
            convergence_study(cfg, [64, 96])
        with pytest.raises(ConfigError):
            convergence_study(cfg, [64, 128], reference="bogus")
        with pytest.raises(ConfigError, match="got 64 then 32"):
            convergence_study(cfg, [64, 32])

    def test_self_convergence_smooth(self):
        cfg = preset_smooth_wave(10.0, t_end=0.01)
        res = convergence_study(cfg, [32, 64, 128, 256])
        assert res.reference == "self"
        assert len(res.errors) == 3 and len(res.orders) == 2
        assert all(e2 < e1 for e1, e2 in zip(res.errors, res.errors[1:]))
        assert res.orders[-1] >= 0.7
        assert "order" in res.table()

    def test_exact_reference_picked_for_plain_dam_break(self):
        params = PhysParams(g=10.0, G=0.0, lam=0.1, zeta=0.0, ell=10.0)
        cfg = dataclasses.replace(preset_dam_break(10.0), params=params, t_end=0.02)
        res = convergence_study(cfg, [32, 64])
        assert res.reference == "exact-sw"
        assert len(res.errors) == 2 and res.errors[1] < res.errors[0]

    @pytest.mark.parametrize("overrides", [
        {},   # G = 0.1
        dict(params=PhysParams(g=10.0, G=0.0, lam=0.1, zeta=0.0, ell=10.0),
             left=(0.1, 0.0, 1.0, 1.0), right=(1.0, 0.0, 1.0, 1.0)),
        dict(params=PhysParams(g=10.0, G=0.0, lam=0.1, zeta=0.0, ell=10.0),
             left=(1.0, 0.5, 1.0, 1.0)),
    ])
    def test_exact_reference_where_it_does_not_apply(self, overrides, monkeypatch):
        # The condition under which 'auto' picks the exact solution, checked before any run.
        monkeypatch.setattr(fenepsv.scenarios, "run", None)
        cfg = preset_dam_break(10.0, t_end=0.02, **overrides)
        with pytest.raises(ConfigError, match="^reference 'exact-sw' needs a dam break with G = 0"):
            convergence_study(cfg, [32, 64], reference="exact-sw")

    @pytest.mark.parametrize("cfg", [preset_uniform(10.0, t_end=0.01),
                                     preset_dam_break(10.0, t_end=0.0)])
    def test_zero_errors_have_no_order(self, cfg):
        # A lake at rest stays exactly at rest, and t_end = 0 takes no step:
        # every error is 0, so no order is defined.
        res = convergence_study(cfg, [16, 32, 64])
        assert res.errors == [0.0, 0.0] and res.orders == [None]
        assert [line.split()[-1] for line in res.table().splitlines()[1:]] == ["-", "-"]


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


class TestConfigFile:
    def test_parse_comments_and_blanks(self, tmp_path):
        p = write_cfg(
            tmp_path / "c.cfg",
            "# heading\n\nell = 100 # trailing comment\ncells = 32\nbc = periodic\n",
        )
        vals = parse_config_file(p)
        assert vals == {"ell": 100.0, "cells": 32, "bc": "periodic"}

    def test_unknown_key(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "volume = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(p)

    def test_duplicate_key(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "ell = 3\nell = 4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(p)

    def test_bad_number(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "ell = ten\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(p)

    def test_missing_equals(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "ell 10\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("text, message", [
        ("strict_subchar = maybe\n", "bad value for 'strict_subchar': not a boolean: 'maybe'"),
        ("cells =\n", "empty value for 'cells'"),
    ])
    def test_bad_bool_and_empty_value(self, tmp_path, text, message):
        p = write_cfg(tmp_path / "c.cfg", text)
        with pytest.raises(ConfigError, match=re.escape(f"{p}:1: {message}")):
            parse_config_file(p)

    def test_bool_values(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "strict_dissipation = true\nstrict_subchar = off\n")
        vals = parse_config_file(p)
        assert vals == {"strict_dissipation": True, "strict_subchar": False}

    def test_build_config_precedence(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "ell = 100\ncells = 64\n")
        cfg = build_config(parse_config_file(p), {"cells": 32, "t_end": None})
        assert cfg.params.ell == 100.0  # file beats default
        assert cfg.cells == 32  # flag beats file
        assert cfg.t_end == 0.1  # None flags fall through

    def test_build_config_lambda_key(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "lambda = 0.25\n")
        cfg = build_config(parse_config_file(p), {})
        assert cfg.params.lam == 0.25

    def test_empty_config_is_paper_preset(self):
        assert build_config({}, {}) == preset_dam_break(10.0)

    def test_seed_key_unknown(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "seed = 0\n")
        with pytest.raises(ConfigError, match="unknown key 'seed'"):
            parse_config_file(p)


NON_FINITE_CONFIG = [
    ("g", "inf"), ("G", "inf"), ("lambda", "inf"), ("ell", "inf"), ("g", "nan"),
    ("x_min", "-inf"), ("x_max", "inf"), ("t_end", "inf"), ("t_end", "nan"), ("jump_x", "nan"),
    ("left_h", "inf"), ("left_u", "nan"), ("right_u", "-inf"), ("right_szz", "nan"),
    # a setting no more: a file that sets it is refused as an unknown key
    ("dt_min_factor", "inf"), ("dt_min_factor", "nan"), ("dt_min_factor", "-1e-12"),
]


class TestNonFiniteConfig:
    """Non-finite physics, domain, time and state values are configuration errors."""

    @pytest.mark.parametrize("key,raw", NON_FINITE_CONFIG)
    def test_build_config_rejects(self, tmp_path, key, raw):
        p = write_cfg(tmp_path / "c.cfg", f"{key} = {raw}\n")
        with pytest.raises(ConfigError):
            build_config(parse_config_file(p), {})

    @pytest.mark.parametrize("key,raw", NON_FINITE_CONFIG)
    def test_solve_exits_2_without_traceback(self, tmp_path, capsys, key, raw):
        p = write_cfg(tmp_path / "c.cfg", f"cells = 16\n{key} = {raw}\n")
        assert main(["solve", "--config", p, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("x_min = -1e308\nx_max = 1e308\njump_x = 0\n", "is not a positive finite float"),
        ("x_min = -1e308\nx_max = 1.5e308\njump_x = 0\n", "is not a positive finite float"),
        ("x_max = 1e-320\ncells = 4096\njump_x = 5e-321\n", "is not a positive finite float"),
        ("x_max = 1e-320\ncells = 1000\njump_x = 5e-321\n", "cell width 1e-323 is subnormal"),
    ], ids=["overflow", "overflow_1.5e308", "underflow", "subnormal"])
    def test_cell_width_out_of_range_exits_2(self, tmp_path, capsys, text, message):
        # finite bounds whose cell width overflows to inf, underflows to 0 or
        # is subnormal
        p = write_cfg(tmp_path / "c.cfg", text)
        assert main(["solve", "--config", p, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid of ") and "Traceback" not in err
        assert message in err
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_solve_end_to_end(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.cfg", "cells = 24\nt_end = 0.01\n")
        out = tmp_path / "out"
        code = main(["solve", "--config", p, "--out", str(out)])
        assert code == 0
        assert (out / "run.json").exists()
        assert "completed" in capsys.readouterr().out

    def test_solve_flag_overrides(self, tmp_path, monkeypatch):
        # Each of solve's flags overrides its key alone; an unset flag keeps the file's value.
        import fenepsv.cli as cli_mod

        p = write_cfg(tmp_path / "c.cfg", (
            "scenario = uniform\nell = 20\ncells = 12\nt_end = 0.002\ncfl = 0.4\nbc = reflective\n"
            f"outdir = {tmp_path / 'file_out'}\nstrict_dissipation = false\n"))
        base = build_config(parse_config_file(p), {})
        solved = []
        monkeypatch.setattr(cli_mod, "run", lambda cfg: solved.append(cfg) or run(cfg))
        for flags, changed in [
            ([], {}),
            (["--scenario", "smooth-wave"], {"scenario": "smooth-wave"}),
            (["--ell", "100"], {"params": dataclasses.replace(base.params, ell=100.0)}),
            (["--cells", "16"], {"cells": 16}),
            (["--t-end", "0.001"], {"t_end": 0.001}),
            (["--cfl", "0.25"], {"cfl": 0.25}),
            (["--bc", "periodic"], {"bc": "periodic"}),
            (["--out", str(tmp_path / "flag_out")], {"outdir": str(tmp_path / "flag_out")}),
            (["--strict-dissipation"], {"strict_dissipation": True}),
        ]:
            assert main(["solve", "--config", p, *flags]) == 0
            assert solved.pop() == dataclasses.replace(base, **changed)

    def test_solve_without_outdir_writes_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = write_cfg(tmp_path / "c.cfg", "cells = 8\nt_end = 0.001\n")
        assert main(["solve", "--config", p]) == 0
        assert json.loads((tmp_path / "out" / "run.json").read_text())["config"]["outdir"] == "out"

    def test_failed_solve_prints_only_its_error(self, tmp_path, capsys):
        # A right depth of 1e-300 overflows and divides by zero in the fan
        # before its star-depth check fails.  `solve` and `converge` print the
        # typed error alone, with numpy's settings restored after; the library
        # run() warns as numpy is set to.
        text = "cells = 64\nright_h = 1e-300\n"
        p = write_cfg(tmp_path / "c.cfg", text)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", p, "--out", str(tmp_path / "out")]) == 3
            assert main(["converge", "--config", p, "--levels", "32,64"]) == 3
        assert np.geterr() == before
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("solver failure: StarStateError: ") for e in err)
        with pytest.warns(RuntimeWarning), pytest.raises(SolverError):
            run(build_config(parse_config_file(p), {}))

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # dt_min_factor is a key no more: the collapse threshold is timeloop.DT_MIN_FACTOR
        for key in ("frobnicate", "dt_min_factor"):
            p = write_cfg(tmp_path / "c.cfg", f"{key} = 1\n")
            assert main(["solve", "--config", p, "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"config error: {p}:1: unknown key {key!r}\n"
            assert not (tmp_path / "out").exists()

    def test_bad_ell_exits_2(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "ell = 1.0\n")
        assert main(["solve", "--config", p]) == 2

    @pytest.mark.parametrize("text", ["", "G = 0\nleft_h = 0.1\nright_h = 1.0\n"])
    def test_inapplicable_exact_reference_exits_2(self, tmp_path, capsys, text):
        # The default config (G = 0.1), and depths rising to the right.
        p = write_cfg(tmp_path / "c.cfg", text)
        assert main(["converge", "--config", p, "--levels", "16,32", "--reference", "exact-sw"]) == 2
        assert capsys.readouterr().err.startswith("config error: reference 'exact-sw' needs")

    def test_unallocatable_grid_exits_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.cfg", "cells = 1099511627776\n")
        assert main(["solve", "--config", p, "--out", str(tmp_path / "out")]) == 2
        assert "the grid cannot be allocated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["initial_condition", "full_step", "write_snapshot_csv",
                                       "write_svg_summary"])
    def test_run_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys, stage):
        # A MemoryError anywhere in the run is a ConfigError naming cells, with no error run.json.
        import fenepsv.scenarios as scenarios_mod

        def refused(*args):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(scenarios_mod, stage, refused)
        p = write_cfg(tmp_path / "c.cfg", "cells = 16\nt_end = 0.001\n")
        assert main(["solve", "--config", p, "--out", str(tmp_path / "out")]) == 2
        message = "cells=16: the run does not fit in memory (Unable to allocate)"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out" / "run.json").exists()
        # what the run wrote before stays: its directory is made after the initial condition
        assert (tmp_path / "out" / "diagnostics.csv").exists() is (stage != "initial_condition")
        with pytest.raises(ConfigError) as err:
            run(preset_dam_break(10.0, cells=16, t_end=0.001, outdir=str(tmp_path / "lib")))
        assert str(err.value) == message and type(err.value.__cause__) is MemoryError

    def test_solver_failure_exits_3_and_records(self, tmp_path, monkeypatch):
        from fenepsv.timeloop import TimeStepCollapse
        import fenepsv.scenarios as scenarios_mod

        def boom(*args):
            raise TimeStepCollapse("forced failure for the error path")

        monkeypatch.setattr(scenarios_mod, "full_step", boom)
        p = write_cfg(tmp_path / "c.cfg", "cells = 8\nt_end = 0.001\n")
        out = tmp_path / "err"
        assert main(["solve", "--config", p, "--out", str(out)]) == 3
        payload = json.loads((out / "run.json").read_text())
        assert payload["status"] == "error"
        assert "TimeStepCollapse" in payload["error"]

    def test_failed_solve_keeps_diagnostics_trail(self, tmp_path, monkeypatch):
        import fenepsv.scenarios as scenarios_mod

        calls = []
        full_step = scenarios_mod.full_step

        def failing_fifth(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise SourceSolveFailure("forced failure at the fifth step")
            return full_step(*args, **kwargs)

        p = write_cfg(tmp_path / "c.cfg", "cells = 16\nt_end = 0.01\n")
        assert main(["solve", "--config", p, "--out", str(tmp_path / "ok")]) == 0
        monkeypatch.setattr(scenarios_mod, "full_step", failing_fifth)
        out = tmp_path / "err"
        assert main(["solve", "--config", p, "--out", str(out)]) == 3
        assert json.loads((out / "run.json").read_text())["status"] == "error"
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4"]
        assert lines == (tmp_path / "ok" / "diagnostics.csv").read_text().splitlines()[:5]

    def test_strict_subchar_above_one_exits_3(self, tmp_path, monkeypatch, capsys):
        import fenepsv.timeloop as timeloop_mod

        def stuck(fan, params):
            return np.full(np.shape(fan.s1), 2.0)

        monkeypatch.setattr(timeloop_mod, "subcharacteristic_monitor", stuck)
        p = write_cfg(tmp_path / "c.cfg", "cells = 16\nt_end = 0.01\nstrict_subchar = true\n")
        out = tmp_path / "sub"
        assert main(["solve", "--config", p, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "SubcharacteristicViolation" in err and "Traceback" not in err
        assert "ratio above 1 after 3 speed doublings at index (0,): ratio=2.0, x=0.0" in err
        assert "SubcharacteristicViolation" in json.loads((out / "run.json").read_text())["error"]

    def test_dissipation_violation_exits_4(self, tmp_path, monkeypatch):
        from fenepsv.timeloop import DissipationViolation
        import fenepsv.cli as cli_mod

        def boom(cfg):
            raise DissipationViolation("forced violation for the error path")

        monkeypatch.setattr(cli_mod, "run", boom)
        p = write_cfg(tmp_path / "c.cfg", "strict_dissipation = true\n")
        assert main(["solve", "--config", p, "--out", str(tmp_path / "v")]) == 4

    def test_forced_violation_exits_4_in_solve_and_converge(self, tmp_path, monkeypatch, capsys):
        import fenepsv.timeloop as timeloop_mod

        monkeypatch.setattr(timeloop_mod, "DISSIPATION_RTOL", -1.0)
        p = write_cfg(tmp_path / "c.cfg", "cells = 16\nt_end = 0.005\nstrict_dissipation = true\n")
        assert main(["solve", "--config", p, "--out", str(tmp_path / "v")]) == 4
        solve_err = capsys.readouterr().err
        assert main(["converge", "--config", p, "--levels", "16,32"]) == 4
        converge_err = capsys.readouterr().err
        for err in (solve_err, converge_err):
            assert err.startswith("dissipation violation: free-energy balance violated at index (")
            assert "Traceback" not in err

    def test_strict_dissipation_clean_run_ok(self, tmp_path):
        p = write_cfg(tmp_path / "c.cfg", "cells = 16\nt_end = 0.005\n")
        code = main(
            ["solve", "--config", p, "--strict-dissipation", "--out", str(tmp_path / "s")]
        )
        assert code == 0

    def test_converge_prints_table(self, tmp_path, capsys):
        p = write_cfg(
            tmp_path / "c.cfg", "scenario = smooth-wave\nbc = periodic\nt_end = 0.005\n"
        )
        assert main(["converge", "--config", p, "--levels", "16,32,64"]) == 0
        out = capsys.readouterr().out
        assert "L1(h) error" in out and "reference: self" in out

    def test_converge_bad_levels(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.cfg", "cells = 16\n")
        assert main(["converge", "--config", p, "--levels", "16,twenty"]) == 2
        assert main(["converge", "--config", p, "--levels", "64,32"]) == 2

    @pytest.mark.parametrize("text", ["scenario = uniform\n", "t_end = 0\n"])
    def test_converge_zero_errors_exit_0(self, text, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.cfg", text)
        assert main(["converge", "--config", p, "--levels", "16,32,64"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-2:] == ["16       0.000000e+00   -", "32       0.000000e+00   -"]
        assert "Traceback" not in err

    def test_check_json(self, capsys):
        assert main(["check", "--samples", "50", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in reports)
        assert len(reports) == 7

    def test_check_text(self, capsys):
        assert main(["check", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out and "fd_dP_dh" in out

    def test_check_failure_exits_3(self, monkeypatch, capsys):
        import fenepsv.oracles as oracles_mod

        failed = oracles_mod.OracleReport("forced", 1, 1.0, 0.0, False)
        monkeypatch.setattr(oracles_mod, "run_all_checks", lambda seed, samples: [failed])
        assert main(["check", "--samples", "1"]) == 3
        out, err = capsys.readouterr()
        assert failed.line() in out and "all checks passed" not in out
        assert err == "CHECK FAILURES PRESENT\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--samples", "0"],
            ["check", "--samples", "-1"],
            ["check", "--seed", "-1"],
            ["converge", "--levels", "0,4"],
        ],
    )
    def test_bad_flag_value_exits_2(self, argv, tmp_path, capsys):
        if argv[0] == "converge":
            argv = [*argv, "--config", write_cfg(tmp_path / "c.cfg", "cells = 16\n")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err


    def test_import_loads_neither_the_oracles_nor_numpy_polynomial(self):
        # A fresh interpreter: the oracle battery and the quadrature nodes
        # load where a check or a smooth wave needs them, not at import.
        code = ("import sys, fenepsv, fenepsv.cli; "
                "print([m for m in ('fenepsv.oracles', 'numpy.polynomial') if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=str(Path(fenepsv.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        assert out.stdout == "[]\n"


# Runs whose t_end is out of reach: a dam break on a domain 1e-300 wide, and
# a t_end of 1e300.
UNREACHABLE = {
    "tiny_domain": "cells = 64\nx_max = 1e-300\njump_x = 5e-301\n",
    "far_t_end": "cells = 16\nt_end = 1e300\n",
}


class TestStepBudget:
    """max_steps caps a run's steps; unset, it changes nothing.  A run that
    projects more than RUN_STEP_LIMIT steps ends typed."""

    @pytest.mark.parametrize("name", UNREACHABLE)
    def test_unreachable_t_end_ends_typed(self, name, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.cfg", UNREACHABLE[name])
        with pytest.raises(fenepsv.StepBudgetExceeded) as err:
            run(build_config(parse_config_file(p), {}))
        assert isinstance(err.value, SolverError)
        assert re.fullmatch(r"t_end=\S+ out of reach: step 1 ended at t=\S+ with dt=\S+, "
                            r"which projects more than 100000000 steps", str(err.value))
        out = tmp_path / "out"
        assert main(["solve", "--config", p, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "StepBudgetExceeded: t_end=" in err and "Traceback" not in err
        record = json.loads((out / "run.json").read_text())
        assert record["status"] == "error" and record["error"].startswith("StepBudgetExceeded: ")
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 1

    def test_output_times_are_made_as_the_run_reaches_them(self, tmp_path):
        # A million output times and a budget of 2 steps: the run holds no
        # list of the times (32 MB traced), and each time it lands on keeps
        # the bits of k t_end / snapshots, the last one t_end itself.
        cfg = preset_dam_break(10.0, cells=16, snapshots=10**6, max_steps=2)
        tracemalloc.start()
        try:
            with pytest.raises(fenepsv.StepBudgetExceeded, match="step budget of 2 steps"):
                run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        cfg = preset_dam_break(10.0, cells=16, t_end=0.1, snapshots=6, outdir=str(tmp_path))
        assert run(cfg).state.t == 0.1
        rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
        landed = {float(row.split(",")[1]) for row in rows}
        assert {k * 0.1 / 6 for k in range(1, 6)} | {0.1} <= landed
        assert 6 * 0.1 / 6 not in landed   # the last time is t_end, not 6 t_end / 6

    @pytest.mark.parametrize("snapshots", [10, 1000])
    def test_landing_steps_do_not_trip_the_projection(self, snapshots, monkeypatch):
        import fenepsv.scenarios as scenarios_mod

        cfg = preset_dam_break(10.0, cells=32, t_end=0.1, snapshots=snapshots)
        full = run(cfg)
        monkeypatch.setattr(scenarios_mod, "RUN_STEP_LIMIT", 2 * full.steps)
        assert run(cfg).state.q.tobytes() == full.state.q.tobytes()
        monkeypatch.setattr(scenarios_mod, "RUN_STEP_LIMIT", full.steps // 2)
        with pytest.raises(fenepsv.StepBudgetExceeded, match="out of reach"):
            run(cfg)

    def test_run_stops_after_max_steps(self):
        cfg = preset_dam_break(10.0, cells=32, t_end=0.1)
        full = run(cfg)
        capped = run(dataclasses.replace(cfg, max_steps=full.steps))
        assert capped.steps == full.steps
        assert capped.state.q.tobytes() == full.state.q.tobytes()
        with pytest.raises(fenepsv.StepBudgetExceeded) as err:
            run(dataclasses.replace(cfg, max_steps=3))
        assert isinstance(err.value, SolverError)
        assert re.fullmatch(
            r"step budget of 3 steps spent before t_end=0\.1: step 3 ended at t=\S+ with dt=\S+",
            str(err.value),
        )

    @pytest.mark.parametrize("bad", [0, -2, 2.5, True, "3"])
    def test_validation(self, bad):
        cfg = preset_dam_break(10.0, cells=16)
        assert dataclasses.replace(cfg, max_steps=1).max_steps == 1
        with pytest.raises(ConfigError, match="max_steps must be an integer >= 1 or unset"):
            dataclasses.replace(cfg, max_steps=bad)

    @pytest.mark.parametrize("raw", ["0", "-1", "2.5", "none"])
    def test_bad_values_exit_2(self, raw, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.cfg", f"cells = 16\nmax_steps = {raw}\n")
        assert main(["solve", "--config", p, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_solve_exits_3_and_records(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.cfg", "cells = 64\nmax_steps = 3\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", p, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "StepBudgetExceeded: step budget of 3 steps" in err and "Traceback" not in err
        record = json.loads((out / "run.json").read_text())
        assert record["status"] == "error" and record["config"]["max_steps"] == 3
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 3


class TestSolverErrors:
    def test_root_exports_every_solver_error(self):
        assert SOLVER_ERROR_NAMES == [
            "AdmissibilityError",
            "DissipationViolation",
            "NonHyperbolicError",
            "SolverError",
            "SourceSolveFailure",
            "StarStateError",
            "StepBudgetExceeded",
            "SubcharacteristicViolation",
            "TimeStepCollapse",
        ]

    @pytest.mark.parametrize("name", SOLVER_ERROR_NAMES)
    def test_contract(self, name, tmp_path, monkeypatch, capsys):
        import fenepsv.scenarios as scenarios_mod

        cls = getattr(fenepsv, name)
        assert issubclass(cls, SolverError)
        err = cls.at(
            "forced failure", np.array([False, True, True]),
            h=np.array([1.0, 2.0, 3.0]), ell=np.float64(10.0),
        )
        assert err.index == (1,) and all(type(i) is int for i in err.index)
        assert err.values == {"h": 2.0, "ell": 10.0}
        assert all(type(v) is float for v in err.values.values())
        assert str(err) == "forced failure at index (1,): h=2.0, ell=10.0 (2 offending entries)"

        def boom(*args):
            raise err

        monkeypatch.setattr(scenarios_mod, "full_step", boom)
        out = tmp_path / "err"
        code = main(["solve", "--config", write_cfg(tmp_path / "c.cfg", ""), "--out", str(out)])
        assert code == (4 if cls is DissipationViolation else 3)
        record = json.loads((out / "run.json").read_text())
        assert record["status"] == "error" and record["error"] == f"{name}: {err}"
        assert "Traceback" not in capsys.readouterr().err


def stuck_monitor(fan, params):
    """A subcharacteristic monitor stuck above 1 where the right cell is
    shallow and moving: on a dam break, from the second step on."""
    return np.where((fan.sides[H, 1] < 0.5) & (fan.sides[HU, 1] != 0), 2.0, 0.5)


class TestFailureRecord:
    """A failed run leaves what replays its failing step."""

    def test_failing_step_replays_on_both_paths(self, tmp_path, monkeypatch):
        monkeypatch.setattr(timeloop_mod, "subcharacteristic_monitor", stuck_monitor)
        cfg = preset_dam_break(10.0, cells=64, t_end=0.01, strict_subchar=True)
        grid = Grid.uniform(cfg.x_min, cfg.x_max, cfg.cells)
        for on in (True, False):
            out = tmp_path / str(on)
            with pytest.MonkeyPatch.context() as mp:
                force_runs(mp, on)
                with pytest.raises(SubcharacteristicViolation) as err:
                    run(dataclasses.replace(cfg, outdir=str(out)))
            failure = err.value.failure
            assert failure["step"] == 2 and failure["dt"] == failure["max_dt"] == 0.001
            assert failure["step_dt"] is None   # the monitor fails before the CFL step
            assert failure["index"] == [32] and failure["cells"]["first"] == 31
            assert len(failure["cells"]["h"]) == 3
            q = np.load(out / "failure_q.npy")
            control = StepControl(cfl=cfg.cfl, bc=cfg.bc, strict_subchar=True,
                                  max_dt=failure["max_dt"])
            for replay_on in (True, False):
                with pytest.MonkeyPatch.context() as mp:
                    force_runs(mp, replay_on)
                    with pytest.raises(SubcharacteristicViolation) as again:
                        full_step(SimState(failure["t"], q), grid, cfg.params, control)
                assert str(again.value) == str(err.value)
                assert again.value.index == err.value.index

    def test_error_run_json_holds_the_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(timeloop_mod, "subcharacteristic_monitor", stuck_monitor)
        p = write_cfg(tmp_path / "c.cfg", "cells = 64\nt_end = 0.01\nstrict_subchar = true\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", p, "--out", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        record = json.loads((out / "run.json").read_text())
        failure = record["failure"]
        assert record["status"] == "error" and failure["step"] == 2 and failure["t"] == 0.001
        assert failure["step_dt"] is None
        assert failure["index"] == [32] and set(failure["cells"]) == {
            "first", "h", "u", "sigma_xx", "sigma_zz"}
        assert np.load(out / "failure_q.npy").shape == (4, 64)

    def test_library_run_writes_the_error_run_json(self, tmp_path, monkeypatch):
        # a collapsed step, through run() and through solve
        monkeypatch.setattr(timeloop_mod, "DT_MIN_FACTOR", 1.0)
        lib, cli = tmp_path / "lib", tmp_path / "cli"
        with pytest.raises(fenepsv.TimeStepCollapse):
            run(preset_dam_break(10.0, cells=16, t_end=0.01, outdir=str(lib)))
        assert {p.name for p in lib.iterdir()} >= {"failure_q.npy", "diagnostics.csv", "run.json"}
        p = write_cfg(tmp_path / "collapse.cfg", "cells = 16\nt_end = 0.01\n")
        assert main(["solve", "--config", p, "--out", str(cli)]) == 3
        record = (lib / "run.json").read_text()
        assert json.loads(record)["status"] == "error"
        cli_record = (cli / "run.json").read_text()
        assert record.replace(str(lib), "OUT") == cli_record.replace(str(cli), "OUT")

    def test_source_failure_records_its_own_dt(self, monkeypatch):
        # The source fails from the third step on: the record holds the dt
        # that step chose as step_dt, and the second step's as dt.
        dts = []

        def failing(sxx0, szz0, dt, params):
            dts.append(dt)
            if len(dts) >= 3:
                raise SourceSolveFailure.at("stuck", np.ones(np.shape(sxx0), bool), s0=sxx0)
            return relax_conformations(sxx0, szz0, dt, params)

        monkeypatch.setattr(timeloop_mod, "relax_conformations", failing)
        cfg = preset_dam_break(10.0, cells=256, t_end=0.01, snapshots=1)
        for on in (True, False):
            dts.clear()
            with pytest.MonkeyPatch.context() as mp:
                force_runs(mp, on)
                with pytest.raises(SourceSolveFailure) as err:
                    run(cfg)
            failure = err.value.failure
            assert failure["step"] == 3 and failure["dt"] == dts[1] != dts[2]
            assert failure["step_dt"] == dts[2] == err.value.step_dt

    def test_errors_outside_a_step_carry_no_failure(self):
        with pytest.raises(fenepsv.StepBudgetExceeded) as err:
            run(preset_dam_break(10.0, cells=16, max_steps=1))
        assert err.value.failure is None


@st.composite
def small_configs(draw):
    """Small dam-break and smooth-wave runs with random parameters, boundaries,
    strict modes and a small step budget."""
    ell = draw(st.floats(2.05, 1e3))
    params = PhysParams(g=10.0, G=draw(st.floats(1e-3, 10.0)), lam=draw(st.floats(1e-4, 10.0)),
                        zeta=draw(st.floats(0.0, 0.5)), ell=ell)
    state = st.tuples(st.floats(1e-2, 1e2), st.floats(-5.0, 5.0), st.floats(1e-3, 0.99),
                      st.floats(1e-2, 0.99))

    def side():
        h, u, frac, share = draw(state)
        return (h, u, share * frac * ell, (1.0 - share) * frac * ell)

    return RunConfig(
        params=params, cells=draw(st.integers(1, 40)),
        scenario=draw(st.sampled_from(("dam-break", "smooth-wave"))),
        bc=draw(st.sampled_from(("transmissive", "reflective", "periodic"))),
        left=side(), right=side(), jump_x=draw(st.floats(0.05, 0.95)),
        t_end=draw(st.floats(1e-4, 0.05)), snapshots=draw(st.integers(1, 3)),
        max_steps=draw(st.integers(1, 12)), strict_dissipation=draw(st.booleans()),
        strict_subchar=draw(st.booleans()),
    )


def run_outcome(cfg, outdir):
    """run(cfg) writing into outdir under raising floating-point traps: the
    final state, which must be finite, or the typed error; and the bytes of
    every file written, run.json without its wall time (an error run.json
    has none) and outdir."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            result = run(dataclasses.replace(cfg, outdir=str(outdir)))
    except SolverError as e:
        outcome = (type(e), str(e), e.index, e.failure)
    else:
        q = result.state.q
        assert np.isfinite(q).all()
        outcome = q.tobytes()
    files = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "run.json":
            record = json.loads(data)
            if "summary" in record:
                del record["summary"]["wall_time_s"]
            del record["config"]["outdir"]
            data = json.dumps(record, sort_keys=True)
        files[path.name] = data
    return outcome, files


class TestRunFuzz:
    @given(small_configs())
    def test_runs_end_finite_or_typed_and_write_the_same_on_both_paths(self, cfg):
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            for on in (True, False):
                with pytest.MonkeyPatch.context() as mp:
                    force_runs(mp, on)
                    outcomes.append(run_outcome(cfg, Path(tmp) / str(on)))
        assert outcomes[0] == outcomes[1]
