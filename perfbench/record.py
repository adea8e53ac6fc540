"""Record the output digests and work counts that ``run.py`` checks.

    python3 perfbench/record.py

Replays every workload once for the default seed (1) and the held-out
seed (2) and rewrites ``expected.json``.  Run it only for a deliberate
change of simulated behaviour; the diff of ``expected.json`` is the
audit trail.  Tune on seed 1 and recheck a claim on seed 2.
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  (puts the simulator sources on sys.path)
import workloads as wl

SEEDS = {"1": "default", "2": "held-out"}


def record(workload: str, seed: int) -> dict:
    sample = (wl.runall_pair(seed) if workload == wl.RUNALL
              else wl.replay_cell(wl.REPLAY[workload], seed))
    return {"digest": sample["digest"], "counts": sample["counts"]}


def main() -> int:
    expected = {w: {s: record(w, int(s)) for s in SEEDS} for w in wl.WORKLOADS}
    wl.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {wl.EXPECTED} for seeds {', '.join(SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
