"""fenepsv benchmark: cost per cell-step, set-up time and memory, per workload.

    python3 bench/run.py --workload dam_break_256 --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --trace 1

With --trace 0 the end-to-end metrics of BENCHMARK.json are measured: fresh
processes (after one warm-up process) each time set-up once and then solves
for about two seconds, until --seconds have passed; the medians over all
solves (over processes for set-up time and peak RSS) are reported.  With
--trace 1 one process alternates untraced and span-traced solves and reports
the per-layer metrics.  Every solve goes through the correctness gate of
worker.py; samples of one run must also agree bit for bit.

Human-readable lines come first; the last line of standard output is the
JSON result.  A full record (environment, every sample) is written to
.bench_out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
THREAD_ENV = {
    k: "1"
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
MIN_PROCESSES = 3
SOLVE_S_PER_PROCESS = 2.0   # each fresh process solves repeatedly for this long
RUN_LIMIT_S = 170           # a whole run, warm-up and trace included, ends within this


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "thread_env": THREAD_ENV,
    }


def git_commit():
    """HEAD of the repository rooted exactly here, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_worker(spec: dict, deadline: float) -> dict:
    """Run worker.py in a fresh process; a crash or a missed deadline is a failed attempt."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"checks": [{"failures": [f"worker still running after {timeout:.0f} s"]}]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"checks": [{"failures": [f"worker exit {proc.returncode}: {tail[0]}"]}]}
    return json.loads(lines[-1])


def gate(checks: list) -> int:
    """Mark solves that disagree with the most common final state; count failures.

    This is the rerun-determinism check: across fresh processes, and between
    traced, untraced and allocation-probed solves.
    """
    digests = collections.Counter(c.get("state_sha256") for c in checks if not c["failures"])
    if digests:
        common = digests.most_common(1)[0][0]
        for c in checks:
            if not c["failures"] and c["state_sha256"] != common:
                c["failures"].append("final state differs from the other runs (not deterministic)")
    return sum(1 for c in checks if c["failures"])


def summarize(values) -> dict:
    """Median, quartiles, count, and the highest percentile with ten samples above it."""
    v = sorted(values)
    n = len(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if n > 1 else (v[0],) * 3
    out = {"median": statistics.median(v), "q1": q1, "q3": q3, "n": n}
    if n > 10:
        out["tail"] = (100 * (n - 10) // n, v[n - 11])
    return out


def measure(workload, seed: int, seconds: int, trace: bool, scratch: Path):
    """(metrics, stats, checks, raw reports) of one benchmark run."""
    spec = {"workload": workload.name, "seed": seed, "scratch": str(scratch)}
    deadline = time.perf_counter() + RUN_LIMIT_S
    if trace:
        report = run_worker(dict(spec, mode="trace", budget_s=seconds), deadline)
        return report.get("metrics"), {"pairs": report.get("pairs")}, report["checks"], [report]
    # warm-up: checked, not timed
    reports = [run_worker(dict(spec, mode="sample", budget_s=0), deadline)]
    sample = dict(spec, mode="sample", budget_s=SOLVE_S_PER_PROCESS)
    t0 = time.perf_counter()
    while len(reports) <= MIN_PROCESSES or time.perf_counter() - t0 < seconds:
        reports.append(run_worker(sample, deadline))
    checks = [c for r in reports for c in r["checks"]]
    timed = [r for r in reports[1:] if r.get("run_s") and not any(c["failures"] for c in r["checks"])]
    series = {
        "ns_per_cell_step": [t / (r["checks"][0]["steps"] * r["cells"]) * 1e9
                             for r in timed for t in r["run_s"]],
        "run_s": [t for r in timed for t in r["run_s"]],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    stats = {k: summarize(v) for k, v in series.items() if v}
    metrics = {k: s["median"] for k, s in stats.items()} if timed else None
    return metrics, stats, checks, reports


def bench(name: str, seed: int, seconds: int, trace: bool, spec: dict, env: dict) -> dict:
    workload = WORKLOADS[name]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    metrics, stats, checks, reports = measure(workload, seed, seconds, trace, scratch)
    failed = gate(checks)
    ok_checks = [c for c in checks if not c["failures"]]
    if metrics is not None and set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    result = {
        "correct": failed == 0 and metrics is not None,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()} if metrics else {},
    }

    print(f"# env {json.dumps(env)}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"{name}  seed {seed}  trace {int(trace)}  ({why})")
    if trace:
        print(f"  medians over {stats['pairs']} pairs of untraced and traced solves")
    for k, u in declared.items():
        if metrics is None:
            break
        extra = ""
        if k in stats:
            st = stats[k]
            extra = f"   median of {st['n']}, quartiles {st['q1']:.6g} .. {st['q3']:.6g}"
            if "tail" in st:
                extra += f", p{st['tail'][0]} {st['tail'][1]:.6g}"
        print(f"  {k:<48} {metrics[k]:>14.6g} {u}{extra}")
    bitwise = {c.get("outputs_bitwise") for c in ok_checks} if seed == REFERENCE_SEED else {"n/a"}
    print(f"  failure_ratio {failed}/{len(checks)} = {failed / max(1, len(checks)):.3g}"
          f"   outputs_bitwise {bitwise.pop() if len(bitwise) == 1 else 'mixed'}"
          f"   worst_subchar_ratio {max((c['worst_subchar_ratio'] for c in ok_checks), default=None)!r}")
    for msg in sorted({f for c in checks for f in c["failures"]}):
        print(f"  FAILED: {msg}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env,
              "stats": stats, "reports": reports, "result": result}
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "fenepsv" / "__init__.py").is_file():
        print(f"error: no fenepsv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        bench(name, args.seed, args.seconds, bool(args.trace), spec, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
