"""Command-line interface.

Subcommands:
  solve     run one scenario and write snapshots, diagnostics, run.json, final.svg
  converge  grid-refinement study of a scenario
  check     run the self-verification oracle battery

Configuration comes from a flat `key = value` file (`#` starts a comment);
command-line flags override file values.  The command line only parses:
`RunConfig` checks the merged settings when it is built, and `run` writes
every artifact of a solve, the error run.json of a failed one included.
Exit codes: 0 success, 2 bad configuration, 3 solver failure, 4 free-energy
dissipation violation when --strict-dissipation is active.  `solve` and
`converge` run with numpy's floating-point warnings off: every fault they
would announce ends in a typed error, an audit count or a rejected state,
so a failure prints its one error line alone.  The library's `run` keeps
numpy's settings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .model import SolverError
from .scenarios import (SCENARIOS, ConfigError, RunConfig, _params_or_error, convergence_study,
                        preset_dam_break, run)
from .timeloop import BOUNDARY_KINDS, DissipationViolation

__all__ = ["main", "parse_config_file", "build_config"]

# RunConfig fields named alike in config files, and the per-side state keys.
_RUN_KEYS = tuple(
    f.name for f in dataclasses.fields(RunConfig) if f.name not in ("params", "left", "right")
)
_STATE_KEYS = ("h", "u", "sxx", "szz")


def _flat_keys(cfg: RunConfig) -> dict:
    """The configuration-file keys and values that describe cfg."""
    p = cfg.params
    flat = {"g": p.g, "G": p.G, "lambda": p.lam, "zeta": p.zeta, "ell": p.ell}
    flat.update((k, getattr(cfg, k)) for k in _RUN_KEYS)
    for side in ("left", "right"):
        flat.update((f"{side}_{k}", v) for k, v in zip(_STATE_KEYS, getattr(cfg, side)))
    return flat


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# An empty configuration file describes the paper's dam break at ell = 10.
_DEFAULTS = _flat_keys(preset_dam_break(10.0))
# Each key is parsed as the type of its default; outdir (None) reads as
# text, max_steps (None) as an integer.
_PARSERS = {
    k: {bool: _parse_bool, int: int, float: float}.get(type(v), str) for k, v in _DEFAULTS.items()
}
_PARSERS["max_steps"] = int


def _parse_value(key: str, raw: str, where: str):
    try:
        return _PARSERS[key](raw)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key!r}: {e}") from e


def parse_config_file(path: str | Path) -> dict:
    """Read a flat `key = value` file; `#` comments, blank lines ignored."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        where = f"{path}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {line.rstrip()!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"{where}: empty value for {key!r}")
        values[key] = _parse_value(key, raw, where)
    return values


def build_config(file_values: dict, overrides: dict) -> RunConfig:
    """Merge defaults <- config file <- CLI flags into a RunConfig (which checks itself)."""
    merged = dict(_DEFAULTS)
    merged.update(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    params = _params_or_error(
        g=merged["g"], G=merged["G"], lam=merged["lambda"], zeta=merged["zeta"], ell=merged["ell"],
    )
    return RunConfig(
        params=params,
        left=tuple(merged[f"left_{k}"] for k in _STATE_KEYS),
        right=tuple(merged[f"right_{k}"] for k in _STATE_KEYS),
        **{k: merged[k] for k in _RUN_KEYS},
    )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fenepsv",
        description="Finite-volume solver for shallow viscoelastic flows",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one scenario and write its artifacts")
    solve.add_argument("--config", required=True, help="flat key = value configuration file")
    solve.add_argument("--scenario", choices=SCENARIOS)
    solve.add_argument("--ell", type=float, help="extensibility parameter")
    solve.add_argument("--cells", type=int)
    solve.add_argument("--t-end", type=float, dest="t_end")
    solve.add_argument("--cfl", type=float)
    solve.add_argument("--bc", choices=BOUNDARY_KINDS)
    solve.add_argument("--out", dest="outdir", help="output directory (default: out)")
    solve.add_argument(
        "--strict-dissipation",
        action="store_true",
        default=None,
        help="abort with exit code 4 on any free-energy dissipation violation",
    )

    conv = sub.add_parser("converge", help="grid-refinement study")
    conv.add_argument("--config", required=True)
    conv.add_argument(
        "--levels", required=True, help="comma-separated cell counts, e.g. 64,128,256,512"
    )
    conv.add_argument("--reference", choices=("auto", "exact-sw", "self"), default="auto")

    chk = sub.add_parser("check", help="run the oracle/property battery")
    chk.add_argument("--seed", type=int, default=None, help="default: oracles.DEFAULT_SEED")
    chk.add_argument("--samples", type=int, default=2000)
    chk.add_argument("--json", action="store_true", help="emit reports as JSON")
    return ap


def _cmd_solve(args) -> int:
    # each flag's dest is its config key
    overrides = {k: v for k, v in vars(args).items() if k in _PARSERS}
    cfg = build_config({"outdir": "out", **parse_config_file(args.config)}, overrides)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        result = run(cfg)
    s = result.summary()
    print(
        f"completed {s['steps']} steps to t={s['final_time']:g} "
        f"({result.config.cells} cells, scenario {result.config.scenario})"
    )
    print(
        f"min dt {s['min_dt']:.3e}, dissipation violations {s['dissipation_violations']}, "
        f"worst subcharacteristic ratio {s['worst_subchar_ratio']:.6f}"
        if s["steps"]
        else "no steps taken (t_end = 0)"
    )
    print(f"artifacts in {result.outdir}/ ({len(result.snapshot_files)} snapshots)")
    return 0


def _cmd_converge(args) -> int:
    try:
        levels = [int(tok) for tok in args.levels.split(",") if tok.strip()]
    except ValueError as e:
        raise ConfigError(f"bad --levels: {e}") from e
    cfg = build_config(parse_config_file(args.config), {})
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        result = convergence_study(cfg, levels, reference=args.reference)
    print(f"reference: {result.reference}")
    print(result.table())
    return 0


def _cmd_check(args) -> int:
    # The oracle battery is imported here alone, so that a solve does not load it.
    from .oracles import DEFAULT_SEED, run_all_checks

    seed = DEFAULT_SEED if args.seed is None else args.seed
    for flag, value, low in (("--samples", args.samples, 1), ("--seed", seed, 0)):
        if value < low:
            raise ConfigError(f"{flag} must be >= {low}, got {value}")
    reports = run_all_checks(seed=seed, samples=args.samples)
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in reports], indent=2))
    else:
        for r in reports:
            print(r.line())
    if all(r.passed for r in reports):
        if not args.json:
            print("all checks passed")
        return 0
    print("CHECK FAILURES PRESENT", file=sys.stderr)
    return 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "converge":
            return _cmd_converge(args)
        return _cmd_check(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DissipationViolation as e:
        print(f"dissipation violation: {e}", file=sys.stderr)
        return 4
    except SolverError as e:
        print(f"solver failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
