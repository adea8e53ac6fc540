"""Self-tests of the benchmark harness (smoke scale, a few seconds).

    python3 perfbench/selftest.py

Checks that the layer wrappers and host-speed sampling do not perturb
results, that host-speed scaling picks the right samples, that the work
counts repeat exactly, that span self times account for the traced
replay's wall, and that the output checks reject what they should.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import statistics
import sys
from math import isclose

import run
import workloads as wl
from hostspeed import REFERENCE_NS, HostSpeed
from spans import Tracer

SMOKE = {name: wl.ReplaySpec(spec.trace, spec.frontend, scale="smoke")
         for name, spec in wl.REPLAY.items()}


def check_replays() -> None:
    for name, spec in SMOKE.items():
        first, second = wl.replay_cell(spec, 1), wl.replay_cell(spec, 1)
        tracer = Tracer()
        traced = wl.replay_cell(spec, 1, tracer)
        assert traced["digest"] == first["digest"], f"{name}: tracing changed the result"
        sampled = wl.replay_cell(spec, 1, hs=HostSpeed())
        assert sampled["digest"] == first["digest"], (
            f"{name}: host-speed sampling changed the result")
        counts = [s["counts"] for s in (first, second, traced)]
        assert counts[0] == counts[1] == counts[2], f"{name}: counts do not repeat"
        accounted = sum(v["self_s"] for v in tracer.summary(traced["mark"]).values())
        share = accounted / traced["replay_s"]
        assert abs(share - 1) <= run.ACCOUNTING_TOLERANCE, (
            f"{name}: spans account for {share:.1%} of the replay wall")
        layers = tracer.summary()
        assert layers["sim"]["entries"] == 1, f"{name}: one replay entry expected"
        has_frontend = "frontend.sched" in layers
        assert has_frontend == spec.frontend, f"{name}: frontend spans {has_frontend}"
        assert not tracer.missing, f"untraced entry points: {tracer.missing}"
        print(f"ok  {name}: traced digest, counts and span accounting "
              f"({share:.2%}) hold")


def check_scaling() -> None:
    hs = HostSpeed()
    hs.starts, hs.ends = [1.0, 2.0, 3.0], [1.1, 2.1, 3.1]
    hs.costs = [REFERENCE_NS, 2 * REFERENCE_NS, 90.0]
    assert isclose(hs.scale(1.5, 1.9), 0.4 / 2), "a stretch ignored its sample"
    both = statistics.median([2 * REFERENCE_NS, 90.0])
    assert isclose(hs.scale(1.8, 2.9), 0.2 / 2 + 0.8 * REFERENCE_NS / both), (
        "a stretch did not take the median of the samples around it")
    assert isclose(hs.scale(0.9, 1.2), 0.2), "sampling time was counted"
    print("ok  host-speed scaling: stretches, their samples and medians")


def check_output_checks() -> None:
    table = ("[fig12] demo\nTrace  greedy host ms/scan  scans\n"
             "-----  -------------------  -----\nts0    0.0756               47   \n"
             "\n[cells] 3 simulated (1.0s replay wall)\n")
    other = table.replace("0.0756", "0.0332").replace("1.0s", "2.0s")
    assert wl.masked_output(table) == wl.masked_output(other)
    assert wl.masked_output(table) != wl.masked_output(table.replace("47 ", "48 "))
    name = next(iter(wl.REPLAY))
    rec = wl.load_expected()[name]["1"]
    assert wl.expected_problem(name, 1, rec["digest"], rec["counts"]) is None
    assert wl.expected_problem(name, 1, "0" * 64, rec["counts"]), (
        "a wrong digest passed the recorded-digest check")
    print("ok  output checks: host columns masked, wrong digest rejected")


def main() -> int:
    try:
        check_replays()
        check_scaling()
        check_output_checks()
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
