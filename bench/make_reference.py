"""Pin the reference-seed final state of every workload.

    python3 bench/make_reference.py

Writes bench/reference/<workload>.npz: the final primitive state (h, u,
sigma_xx, sigma_zz), its SHA-256 and, for the CLI workload, the SHA-256 of
the written snapshot, diagnostics and SVG files.  The benchmark's
correctness gate compares the reference seed against these files.  Re-pin
only on purpose, and record the largest difference to the old reference.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from worker import REFERENCE_DIR, ROOT, Solve
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    scratch_root = ROOT / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            solve = Solve(w, REFERENCE_SEED, Path(scratch))
            solve.setup()
            _, raw = solve.execute()
            out = solve.outcome(raw)
            chk = solve.check(out)
        extra = {"outputs_sha256": chk["outputs_sha256"]} if w.via_cli else {}
        np.savez_compressed(REFERENCE_DIR / f"{w.name}.npz", state=out["state"],
                            state_sha256=chk["state_sha256"], **extra)
        print(f"{w.name}: {chk['steps']} steps, sha256 {chk['state_sha256'][:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
