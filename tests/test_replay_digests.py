"""Byte-identity pins for the replay drivers' op pricing.

Every replay driver prices flash ops on the chip/channel resources
through one shared pricer (``repro.sim.pricing``).  These digests were
recorded from the drivers' earlier, separately written pricing code, so
any drift in pricing arithmetic, resource accounting or per-request
extents shows up as a changed sha256 of ``deterministic_dict()``.

The grid covers smoke scale on ``ts0`` (write-heavy) and ``lun2``
(read-heavy) under ``ipu`` and ``baseline``: the open loop, the closed
loop at QD 1 and 8, and the front-end at QD 1, 8 and 32, each with the
serial and the pipelined bus model.

Two further groups pin the FTL write paths rather than the pricing:
``mga`` and ``delta`` under the open loop, closed QD 8 and front-end
QD 8 on the serial bus, and ``baseline``, ``mga`` and ``ipu`` under the
open loop with a fault plan attached (``open+faults``).  Program
failures there remap writes at every program site, and the inflated
read-fault scale triggers fault reclaim.

Re-record (only for a change that is meant to move results, together
with a ``CACHE_SCHEMA_VERSION`` bump)::

    PYTHONPATH=src python tests/test_replay_digests.py --record
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import SCHEMES, Simulator
from repro.experiments.runner import RunContext
from repro.faults import FaultConfig, attach_faults
from repro.frontend import FrontendConfig
from repro.frontend.simulate import FrontendSimulator

FIXTURE = Path(__file__).with_name("replay_digests.json")
SEED = 1
TRACES = ("ts0", "lun2")
SCHEME_NAMES = ("ipu", "baseline")
DRIVERS = ("open", "closed-qd1", "closed-qd8",
           "frontend-qd1", "frontend-qd8", "frontend-qd32")
BUSES = ("serial", "pipelined")

#: Fault plan of the ``open+faults`` cells.
FAULTS = FaultConfig(program_fault_rate=0.01, read_fault_scale=1e6)

CELLS = [f"{trace}/{scheme}/{driver}/{bus}"
         for trace in TRACES for scheme in SCHEME_NAMES
         for driver in DRIVERS for bus in BUSES]
CELLS += [f"{trace}/{scheme}/{driver}/serial"
          for trace in TRACES for scheme in ("mga", "delta")
          for driver in ("open", "closed-qd8", "frontend-qd8")]
CELLS += [f"{trace}/{scheme}/open+faults/serial"
          for trace in TRACES for scheme in ("baseline", "mga", "ipu")]


@functools.lru_cache(maxsize=None)
def _context() -> RunContext:
    return RunContext("smoke", SEED)


def cell_digest(cell: str) -> str:
    """sha256 of one cell's ``deterministic_dict()`` as canonical JSON."""
    trace_name, scheme, driver, bus = cell.split("/")
    ctx = _context()
    trace = ctx.trace(trace_name)
    cfg = ctx.trace_config(trace_name)
    if bus == "pipelined":
        cfg = dataclasses.replace(
            cfg, timing=dataclasses.replace(cfg.timing, pipelined_bus=True))
    ftl = SCHEMES[scheme](cfg)
    if driver.endswith("+faults"):
        attach_faults(ftl, FAULTS, seed=SEED)
    kind, _, qd = driver.removesuffix("+faults").partition("-qd")
    if kind == "open":
        result = Simulator(ftl, cfg).run(trace)
    elif kind == "closed":
        result = Simulator(ftl, cfg).run_closed(trace, int(qd))
    else:
        result = FrontendSimulator(
            ftl, FrontendConfig.from_qd(int(qd)), cfg).run(trace)
    blob = json.dumps(result.deterministic_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_grid():
    assert sorted(_recorded()) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_digest_matches_recorded(cell):
    assert cell_digest(cell) == _recorded()[cell]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps({cell: cell_digest(cell) for cell in CELLS},
                                  indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CELLS)} digests to {FIXTURE.name}")
