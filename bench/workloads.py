"""Benchmark workloads: the paper's dam-break preset at three sizes and paths.

A workload turns a seed into the inputs of one solve.  The reference seed
reproduces the paper preset exactly (g=10, G=0.1, lambda=0.1, zeta=0,
ell=10, transmissive, (1,0,1,1) against (0.1,0,1,1) at x=0.5).  Any other
seed draws the four conformation components uniformly from [0.9, 1.1] and
the jump position from the cell edges k/256, k in [115, 141].  Depths stay at
1 and 0.1 and both sides start at rest: the depth ratio sets the wave speeds
and so the step count, and holding it keeps the work of a run the same
across seeds (measured: 292-298 steps at 256 cells to t=0.1 against 293 for
the preset).  Every drawn state is admissible and no run on it fails.

Each t_end keeps the step count below the number of cells between the jump
and either boundary, so no wave reaches a boundary, no mass leaves the
domain, and the mass drift is roundoff only.

This module does not import fenepsv, so a fresh process can time that import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REFERENCE_SEED = 0

PRESET = {"g": 10.0, "G": 0.1, "lambda": 0.1, "zeta": 0.0, "ell": 10.0}
CONFORMATION_RANGE = (0.9, 1.1)
JUMP_EDGES = (115, 141)   # jump_x = k / 256


@dataclass(frozen=True)
class Workload:
    name: str
    cells: int
    t_end: float
    snapshots: int
    via_cli: bool     # fenepsv solve through cli.main, else run() with outdir=None


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists is stated in BENCHMARK.json.
        Workload("dam_break_256", 256, 0.04, 4, False),
        Workload("dam_break_16k", 16384, 0.0003, 1, False),
        Workload("solve_snapshots", 4096, 0.001, 20, True),
    )
}


def dam_states(seed: int):
    """(left, right, jump_x) for a seed; the reference seed is the paper preset."""
    if seed == REFERENCE_SEED:
        return (1.0, 0.0, 1.0, 1.0), (0.1, 0.0, 1.0, 1.0), 0.5
    rng = random.Random(seed)
    lo, hi = CONFORMATION_RANGE
    left = (1.0, 0.0, rng.uniform(lo, hi), rng.uniform(lo, hi))
    right = (0.1, 0.0, rng.uniform(lo, hi), rng.uniform(lo, hi))
    return left, right, rng.randint(*JUMP_EDGES) / 256


def config_values(workload: Workload, seed: int) -> dict:
    """Flat `key = value` settings of the run, as `fenepsv solve` reads them."""
    left, right, jump_x = dam_states(seed)
    values = dict(PRESET)
    values.update(
        scenario="dam-break", x_min=0.0, x_max=1.0, cells=workload.cells,
        t_end=workload.t_end, cfl=0.5, bc="transmissive",
        snapshots=workload.snapshots, jump_x=jump_x,
    )
    for side, state in (("left", left), ("right", right)):
        for key, v in zip(("h", "u", "sxx", "szz"), state):
            values[f"{side}_{key}"] = v
    return values


def config_text(values: dict) -> str:
    return "".join(f"{k} = {v if isinstance(v, str) else repr(v)}\n" for k, v in values.items())


def build_run_config(workload: Workload, seed: int):
    """RunConfig for run(), built through the public preset (imports fenepsv)."""
    from fenepsv import preset_dam_break

    left, right, jump_x = dam_states(seed)
    return preset_dam_break(
        PRESET["ell"], cells=workload.cells, t_end=workload.t_end,
        snapshots=workload.snapshots, left=left, right=right, jump_x=jump_x,
    )
