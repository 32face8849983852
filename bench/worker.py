"""One fresh benchmark process: set up, solve, check, report one JSON line.

    python3 bench/worker.py '<json spec>'

The spec names the workload, the seed, the mode and a scratch directory.
Mode "sample" times set-up (importing fenepsv and building the validated
config), then times and checks solves until its time budget is spent.  Mode
"trace" alternates untraced and span-traced solves until its time budget is
spent, then runs one solve with tracemalloc inside each step, and reports the
per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE_SEED, WORKLOADS, config_text, config_values  # noqa: E402

REFERENCE_DIR = BENCH_DIR / "reference"
# Relative mass drift allowed.  No workload's waves reach the boundaries, so
# no mass leaves and the drift is roundoff only (measured: exactly 0).
MASS_TOL = 64 * 2.220446049250313e-16
# Final state against the stored reference, per field, relative to the
# field's largest magnitude (at least 1): loose enough for re-associated
# arithmetic, far below any change to the scheme.
REF_RTOL = 1e-9


def state_digest(state) -> str:
    return hashlib.sha256(state.astype("<f8").tobytes()).hexdigest()


class Solve:
    """One configured solve of a workload, through run() or `fenepsv solve`."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.config_path = scratch / "run.cfg"
        self.config = None
        self.peak_rss_mb = None
        self._runs = 0

    def setup(self):
        """Import fenepsv and build the validated config (the timed set-up)."""
        if self.workload.via_cli:
            self.config_path.write_text(config_text(config_values(self.workload, self.seed)))
        t0 = time.perf_counter()
        import fenepsv  # noqa: F401

        if self.workload.via_cli:
            from fenepsv import cli

            self.config = cli.build_config(cli.parse_config_file(self.config_path), {})
        else:
            from workloads import build_run_config

            self.config = build_run_config(self.workload, self.seed)
        setup_s = time.perf_counter() - t0
        src = Path(fenepsv.__file__).resolve()
        if (ROOT / "src") not in src.parents:
            raise RuntimeError(f"fenepsv imported from {src}, not from {ROOT / 'src'}")
        return setup_s

    def execute(self):
        """Solve once; returns (run_s, raw result) with the timed call only.

        The first call also records the process's peak RSS, before any output
        is read back and checked.
        """
        if self.workload.via_cli:
            from fenepsv import cli

            self._runs += 1
            outdir = self.scratch / f"out{self._runs}"
            argv = ["solve", "--config", str(self.config_path), "--out", str(outdir)]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                run_s = time.perf_counter() - t0
            raw = (code, outdir)
        else:
            from fenepsv import run

            t0 = time.perf_counter()
            raw = run(self.config)
            run_s = time.perf_counter() - t0
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        return run_s, raw

    def outcome(self, raw) -> dict:
        """Final state and audit figures of a finished solve."""
        import numpy as np

        w = self.workload
        if not w.via_cli:
            res = raw   # the RunResult of run()
            p = res.final_primitive()
            state = np.stack(np.broadcast_arrays(p.h, p.u, p.sxx, p.szz)).astype(float)
            return {
                "exit_code": 0, "state": state, "steps": res.steps, "final_time": res.state.t,
                "violations": res.dissipation_violations,
                "mass_err": res.summary()["mass_drift_rel"],
                "worst_subchar_ratio": res.worst_subchar_ratio, "sizes": {},
            }
        code, outdir = raw
        out = {"exit_code": code, "sizes": {}}
        if code != 0:
            return out
        meta = json.loads((outdir / "run.json").read_text())
        s = meta["summary"]
        outputs = hashlib.sha256()
        sizes = {}
        for f in sorted(outdir.iterdir()):
            sizes[f.name] = f.stat().st_size
            if f.name != "run.json":   # run.json carries the wall time
                outputs.update(f.name.encode() + b"\0" + f.read_bytes())
        with open(outdir / meta["snapshots"][-1], newline="") as f:
            rows = list(csv.DictReader(f))
        state = np.array([[float(r[c]) for r in rows] for c in ("h", "u", "sigma_xx", "sigma_zz")])
        out.update(
            state=state, steps=s["steps"], final_time=s["final_time"],
            violations=s["dissipation_violations"], mass_err=s["mass_drift_rel"],
            worst_subchar_ratio=s["worst_subchar_ratio"], sizes=sizes,
            outputs_sha256=outputs.hexdigest(),
            snapshots=len(meta["snapshots"]),
        )
        shutil.rmtree(outdir)
        return out

    def check(self, out: dict) -> dict:
        """Correctness gate of one solve; `failures` is empty when it passes."""
        import numpy as np

        w = self.workload
        failures = []
        if out["exit_code"] != 0:
            return {"failures": [f"exit code {out['exit_code']}"]}
        state = out["state"]
        h, u, sxx, szz = state
        ell = self.config.params.ell
        if state.shape != (4, w.cells) or not np.all(np.isfinite(state)):
            failures.append("final state not finite or of the wrong shape")
        elif not np.all((h > 0) & (sxx > 0) & (szz > 0) & (sxx + szz < ell)):
            failures.append("final state has inadmissible cells")
        if out["violations"] != 0:
            failures.append(f"{out['violations']} dissipation violations")
        if not out["mass_err"] <= MASS_TOL:
            failures.append(f"mass balance error {out['mass_err']!r} > {MASS_TOL!r}")
        if out["steps"] < 1 or out["final_time"] != w.t_end:
            failures.append(f"stopped at t={out['final_time']!r} after {out['steps']} steps")
        if w.via_cli and out["snapshots"] != w.snapshots + 1:
            failures.append(f"{out['snapshots']} snapshots written, expected {w.snapshots + 1}")
        digest = state_digest(state)
        result = {
            "failures": failures,
            "steps": out["steps"],
            "state_sha256": digest,
            "outputs_sha256": out.get("outputs_sha256"),
            "worst_subchar_ratio": out["worst_subchar_ratio"],
            "outputs_bitwise": None,
            "ref_max_rel_diff": None,
        }
        if self.seed == REFERENCE_SEED:
            ref_file = REFERENCE_DIR / f"{w.name}.npz"
            if not ref_file.exists():
                failures.append(f"no stored reference {ref_file.name}")
                return result
            with np.load(ref_file, allow_pickle=False) as ref:
                ref_state = ref["state"]
                bitwise = str(ref["state_sha256"]) == digest
                if w.via_cli:
                    bitwise = bitwise and str(ref["outputs_sha256"]) == result["outputs_sha256"]
            if ref_state.shape != state.shape:
                failures.append("final state shape differs from the reference")
                return result
            scale = np.maximum(1.0, np.max(np.abs(ref_state), axis=1))
            diff = float(np.max(np.max(np.abs(state - ref_state), axis=1) / scale))
            result["ref_max_rel_diff"] = diff
            result["outputs_bitwise"] = bool(bitwise)
            if not diff <= REF_RTOL:
                failures.append(f"final state differs from the reference by {diff!r} > {REF_RTOL!r}")
        return result


def solve_and_check(solve: Solve):
    """(run_s, check dict, outcome); exceptions from the solver count as failures."""
    try:
        run_s, raw = solve.execute()
        out = solve.outcome(raw)
    except Exception as e:   # any solver error is a failed attempt, not a crash
        return None, {"failures": [f"{type(e).__name__}: {e}"]}, None
    return run_s, solve.check(out), out


def sample_mode(solve: Solve, budget_s: float) -> dict:
    """Set up once, then solve until `budget_s` of solving has passed (at least once)."""
    setup_s = solve.setup()
    run_s, checks = [], []
    while not run_s or sum(run_s) < budget_s:
        t, chk, _ = solve_and_check(solve)
        checks.append(chk)
        if t is None:
            break
        run_s.append(t)
    return {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": solve.peak_rss_mb,
            "cells": solve.workload.cells, "checks": checks}


def trace_mode(solve: Solve, budget_s: float) -> dict:
    from spans import LAYERS, TARGETS, SpanRecorder, peak_temp_bytes

    solve.setup()
    w = solve.workload
    checks, overheads, summaries, shares, io_bytes = [], [], [], [], []
    t_start = time.perf_counter()
    pair = 0
    while pair < 2 or time.perf_counter() - t_start < budget_s:
        times = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                rec = SpanRecorder()
                with rec:
                    run_s, chk, out = solve_and_check(solve)
            else:
                run_s, chk, out = solve_and_check(solve)
            checks.append(chk)
            if run_s is None:
                continue
            times[traced] = run_s
            if traced:
                summ = rec.summary()
                summaries.append(summ)
                shares.append({layer: sum(summ[n]["self_s"] for n in names) / run_s
                               for layer, names in LAYERS.items()})
                io_bytes.append(sum(size for n, size in out["sizes"].items()
                                    if n.startswith("snapshot_") or n.endswith(".svg")))
                bytes_written = sum(out["sizes"].values())
        if len(times) == 2:   # adjacent solves, so slow drifts of the machine cancel
            overheads.append(times[True] / times[False] - 1.0)
        pair += 1
    (_, chk, _), peaks = peak_temp_bytes(lambda: solve_and_check(solve))
    checks.append(chk)

    if not overheads:
        return {"checks": checks, "metrics": None}
    steps = summaries[0]["timeloop.full_step"]["calls"]
    med = statistics.median

    def self_s(name):
        return med(s[name]["self_s"] for s in summaries)

    metrics = {}
    for mod in ("riemann", "model"):
        for fn in TARGETS[mod]:
            name = f"{mod}.{fn}"
            metrics[f"{name}.calls_per_step"] = summaries[0][name]["calls"] / steps
            metrics[f"{name}.self_s"] = self_s(name)
    metrics["timeloop.steps"] = steps
    for fn in TARGETS["timeloop"]:
        metrics[f"timeloop.{fn}.self_s"] = self_s(f"timeloop.{fn}")
    metrics["timeloop.peak_temp_bytes_per_cell"] = med(peaks) / w.cells
    for fn in TARGETS["scenarios"]:
        metrics[f"scenarios.{fn}.self_s"] = self_s(f"scenarios.{fn}")
    write_s = self_s("scenarios.write_snapshot_csv") + self_s("scenarios.write_svg_summary")
    metrics["scenarios.bytes_written"] = bytes_written
    metrics["scenarios.write_mb_per_s"] = med(io_bytes) / write_s / 1e6 if write_s > 0 else 0.0
    for fn in TARGETS["cli"]:
        metrics[f"cli.{fn}.self_s"] = self_s(f"cli.{fn}")
    for layer in LAYERS:
        metrics[f"share.{layer}"] = med(s[layer] for s in shares)
    metrics["trace.overhead"] = med(overheads)
    calls = {n: summaries[0][n]["calls"] for n in summaries[0]}
    return {"checks": checks, "metrics": metrics, "calls": calls, "pairs": len(overheads),
            "peak_temp_bytes": [min(peaks), max(peaks)]}


def main(argv) -> int:
    spec = json.loads(argv[1])
    workload = WORKLOADS[spec["workload"]]
    scratch = Path(tempfile.mkdtemp(prefix="w", dir=spec["scratch"]))
    try:
        solve = Solve(workload, spec["seed"], scratch)
        if spec["mode"] == "sample":
            report = sample_mode(solve, spec["budget_s"])
        else:
            report = trace_mode(solve, spec["budget_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
