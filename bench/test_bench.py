"""Tests of the benchmark's own machinery: span recorder, workloads and gate.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import fenepsv  # noqa: E402
from fenepsv import cli, riemann, scenarios, timeloop  # noqa: E402
from spans import LAYERS, SPAN_NAMES, SpanRecorder, peak_temp_bytes  # noqa: E402
from worker import Solve, state_digest  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEED, WORKLOADS, Workload, build_run_config, config_text, config_values, dam_states,
)

SMALL = Workload("small", 256, 0.01, 2, False)


def final_digest(result):
    p = result.final_primitive()
    return state_digest(np.stack(np.broadcast_arrays(p.h, p.u, p.sxx, p.szz)))


@pytest.fixture(scope="module")
def traced():
    cfg = build_run_config(SMALL, REFERENCE_SEED)
    plain = fenepsv.run(cfg)
    rec = SpanRecorder()
    with rec:
        t0 = time.perf_counter()
        result = fenepsv.run(cfg)
        run_s = time.perf_counter() - t0
    return plain, result, run_s, rec


def test_full_step_calls_equal_steps(traced):
    _, result, _, rec = traced
    assert result.steps > 10
    assert rec.summary()["timeloop.full_step"]["calls"] == result.steps


def test_calls_through_imported_names_are_recorded(traced):
    # timeloop and riemann reach these only through `from .x import f` names.
    summ = traced[3].summary()
    steps = traced[1].steps
    assert summ["riemann.star_states"]["calls"] == steps
    assert summ["model.dP_dh_frozen"]["calls"] >= 2 * steps
    assert summ["timeloop.relax_conformations"]["calls"] == steps


def test_self_times_sum_to_run_time(traced):
    _, _, run_s, rec = traced
    summ = rec.summary()
    total = sum(v["self_s"] for v in summ.values())
    assert 0.95 * run_s <= total <= run_s
    layered = sum(summ[n]["self_s"] for names in LAYERS.values() for n in names)
    assert layered == pytest.approx(total, rel=1e-9)   # every span belongs to a layer


def test_traced_state_is_bitwise_untraced(traced):
    plain, result, _, _ = traced
    assert final_digest(result) == final_digest(plain)


def test_originals_restored_after_exit(traced):
    assert timeloop.star_states is riemann.star_states
    assert scenarios.full_step is timeloop.full_step
    assert cli.run is scenarios.run
    assert not hasattr(riemann.star_states, "__wrapped__")


def test_every_span_name_is_found():
    with SpanRecorder() as rec:
        pass
    assert sorted(rec.found) == sorted(SPAN_NAMES)


def test_peak_temp_bytes_median_repeats_exactly():
    # Single steps differ by a few Python objects; the median over steps repeats.
    cfg = build_run_config(SMALL, REFERENCE_SEED)
    _, first = peak_temp_bytes(lambda: fenepsv.run(cfg))
    _, second = peak_temp_bytes(lambda: fenepsv.run(cfg))
    assert len(first) == len(second) > 10
    assert np.median(first) == np.median(second)
    assert 500 * SMALL.cells < np.median(first) < 1000 * SMALL.cells


@pytest.mark.parametrize("seed", [REFERENCE_SEED, 1, 2, 12345])
def test_cli_config_matches_run_config(seed, tmp_path):
    path = tmp_path / "run.cfg"
    for w in WORKLOADS.values():
        path.write_text(config_text(config_values(w, seed)))
        assert cli.build_config(cli.parse_config_file(path), {}) == build_run_config(w, seed)


def test_reference_seed_is_paper_preset():
    left, right, jump_x = dam_states(REFERENCE_SEED)
    preset = fenepsv.preset_dam_break(10.0)
    assert (left, right, jump_x) == (preset.left, preset.right, preset.jump_x)
    left, right, _ = dam_states(7)
    assert left[0] == 1.0 and right[0] == 0.1 and left != preset.left


def test_gate_rejects_bad_outcomes(tmp_path):
    solve = Solve(SMALL, 3, tmp_path)
    solve.setup()
    _, raw = solve.execute()
    good = solve.outcome(raw)
    assert solve.check(good)["failures"] == []
    bad_state = good["state"].copy()
    bad_state[0, 5] = -1.0
    for change in ({"state": bad_state}, {"violations": 1}, {"mass_err": 1e-9},
                   {"final_time": SMALL.t_end / 2}, {"exit_code": 3}):
        assert solve.check(dict(good, **change))["failures"], change


def test_reference_gate_catches_a_perturbed_state(tmp_path):
    solve = Solve(WORKLOADS["dam_break_256"], REFERENCE_SEED, tmp_path)
    solve.setup()
    _, raw = solve.execute()
    out = solve.outcome(raw)
    chk = solve.check(out)
    assert chk["failures"] == [] and chk["outputs_bitwise"] is True
    out["state"] = out["state"] * (1 + 1e-6)
    chk = solve.check(out)
    assert chk["outputs_bitwise"] is False and chk["failures"]


def test_benchmark_json_names_the_workloads():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
