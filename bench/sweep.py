"""Informational size sweep: ns per cell-step of the dam-break preset by grid size.

    python3 bench/sweep.py                      # 256, 1024, 4096, 16384 cells
    python3 bench/sweep.py --t-end 0.1 --sizes 256,1024,4096

Runs the paper preset (ell=10, transmissive) with run() and no output, one
solve per size, and prints the table of ROADMAP's baseline.  By default
t_end is 0.1 up to 1024 cells and 0.1 * 1024 / cells above, so every size
takes about 1200 steps or more; ns per cell-step barely depends on t_end.
Not one of the gated workloads.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

from fenepsv import preset_dam_break, run  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="256,1024,4096,16384", help="comma-separated cell counts")
    ap.add_argument("--t-end", type=float, default=None, help="final time for every size")
    args = ap.parse_args(argv)
    print(f"{'cells':>6} {'t_end':>8} {'steps':>6} {'wall_s':>8} {'ms/step':>8} {'ns/cell-step':>13}")
    for cells in (int(tok) for tok in args.sizes.split(",")):
        t_end = args.t_end if args.t_end is not None else 0.1 * min(1.0, 1024 / cells)
        cfg = preset_dam_break(10.0, cells=cells, t_end=t_end)
        t0 = time.perf_counter()
        res = run(cfg)
        wall = time.perf_counter() - t0
        print(f"{cells:>6} {t_end:>8.5g} {res.steps:>6} {wall:>8.3f} "
              f"{1e3 * wall / res.steps:>8.3f} {1e9 * wall / (res.steps * cells):>13.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
