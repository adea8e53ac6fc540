"""Benchmark entry point.

    python3 perfbench/run.py --workload gc-steady --seed 1 --seconds 40 --trace 0

Prints a readable report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
measures the end-to-end metrics of BENCHMARK.json with no tracing;
``--trace 1`` pairs untraced with traced passes and reports the per-layer
metrics plus the tracing overhead.  An operation is one cold-then-warm
pass over the workload; it fails on an exception, a non-zero exit or an
output-check mismatch.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from hostspeed import REFERENCE_NS, UNSCALED, HostSpeed  # noqa: E402
from spans import REPLAY_LAYER, Tracer  # noqa: E402

clock = time.perf_counter
#: Share of a traced replay's wall its spans may leave unaccounted.
ACCOUNTING_TOLERANCE = 0.02


def environment(hs: HostSpeed) -> dict:
    """Information only: nothing is gated on it."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "calibration_mops": round(hs.mops(), 3)}


class Ops:
    """Attempted / failed operation tally."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest: "str | None" = None

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; returns its sample or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except wl.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.failed += 1
            return exc.sample
        except Exception:  # an operation's crash is a counted failure
            traceback.print_exc()
        self.failed += 1
        return None

    def output_problem(self, digest: str) -> "str | None":
        """Every operation of one run must produce the same output."""
        if self.digest is None:
            self.digest = digest
        return (None if digest == self.digest
                else "output differs between passes of one run")


def until(seconds: float, minimum: int = 1, start: "float | None" = None):
    """Yield pass numbers while the next pass, as long as the longest so
    far, still ends within ``seconds`` of ``start`` (default: now), at
    least ``minimum`` passes."""
    last = clock()
    start = last if start is None else start
    longest = 0.0
    i = 0
    while i < minimum or last + longest <= start + seconds:
        yield i
        now = clock()
        longest = max(longest, now - last)
        last = now
        i += 1


def percentiles_ms(seconds: list[float]) -> tuple[float, float]:
    p50, p90 = np.percentile(np.asarray(seconds) * 1e3, [50, 90])
    return float(p50), float(p90)


# -- pass functions (one operation each) ---------------------------------------


def replay_pass(workload: str, seed: int, ops: Ops, tracer=None,
                hs: HostSpeed = UNSCALED) -> dict:
    s = wl.replay_cell(wl.REPLAY[workload], seed, tracer, hs)
    return wl.first_problem(s, [
        wl.expected_problem(workload, seed, s["digest"], s["counts"]),
        ops.output_problem(s["digest"])])


def runall_pass(seed: int, ops: Ops, traced: bool = False) -> dict:
    s = wl.runall_pair(seed, traced)
    return wl.first_problem(s, [
        wl.expected_problem(wl.RUNALL, seed, s["digest"], s["counts"]),
        ops.output_problem(s["digest"])])


# -- end-to-end run ---------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, ops: Ops,
               hs: HostSpeed, report: list[str]) -> dict:
    """Timings are medians over the run's passes, in reference seconds
    (see hostspeed.py)."""
    start = clock()
    if workload == wl.RUNALL:
        setups = [wl.cli_start() for _ in range(wl.CLI_STARTS)]
        samples = [s for _ in until(seconds, start=start)
                   if (s := ops.attempt(runall_pass, seed, ops))]
        setups += [setup for s in samples for setup in s["setups"]]
        rss = wl.peak_rss_mb(resource.RUSAGE_CHILDREN)
        cold = [s["cold_s"] for s in samples]
        warm = [s["warm_s"] for s in samples]
        unit = "one replay of the cold run-all"
    else:
        samples = []
        for i in until(seconds, start=start):
            s = ops.attempt(replay_pass, workload, seed, ops, hs=hs)
            if i == 0:
                # Peak of one pass: later passes only add allocator noise.
                rss = wl.peak_rss_mb(resource.RUSAGE_SELF)
            if s:
                s["rps"] = s["result"].n_requests / s["replay_s"]
                samples.append(s)
        setups = [(s["raw"]["setup_s"], s["setup_s"]) for s in samples] + [
            wl.timed_build(wl.REPLAY[workload], seed, hs)[2:]
            for _ in range(wl.EXTRA_SETUPS)]
        # Cold: the process's first set-up and replay; warm: the later ones.
        passes = [s["setup_s"] + s["replay_s"] for s in samples]
        cold, warm = passes[:1], passes[1:] or passes
        unit = f"{wl.CHUNK_REQUESTS} requests"
    if not samples:
        raise SystemExit("perfbench: every operation failed; nothing measured")
    # Percentiles per pass, then the median over passes: a pass that
    # the host-speed scaling corrects badly moves them less than pooling.
    p50, p90 = (statistics.median(p) for p in zip(
        *(percentiles_ms(s["chunks_s"]) for s in samples)))
    chunks = sum(len(s["chunks_s"]) for s in samples)
    raw = {k: statistics.median(s["raw"][k] for s in samples)
           for k in samples[0]["raw"]}
    raw["setup_s"] = statistics.median(raw_s for raw_s, _ in setups)
    report.append(f"{len(samples)} passes, {len(setups)} set-up samples; "
                  f"chunk = {unit}, {chunks} samples")
    report.append(f"host speed {hs.mops():.2f} Mops in this process "
                  f"(reference {1e3 / REFERENCE_NS:.2f}); raw host-second medians: "
                  + ", ".join(f"{k} {v:.4g}" for k, v in sorted(raw.items())))
    return {
        "replay_rps": statistics.median(s["rps"] for s in samples),
        "chunk_ms_p50": p50,
        "chunk_ms_p90": p90,
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": rss,
        "sim_write_amp": wl.write_amp(samples[0]["counts"]),
        "cold_s": statistics.median(cold),
        "warm_s": statistics.median(warm),
    }


# -- traced run --------------------------------------------------------------------


def merge_layers(summaries: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for summary in summaries:
        for layer, stats in summary.items():
            acc = out.setdefault(layer, {"calls": 0, "entries": 0, "self_s": 0.0})
            for k in acc:
                acc[k] += stats[k]
    return out


def layer_metrics(names: list[str], layers: dict, counters: dict,
                  counts: dict, passes: int, extra: dict) -> dict:
    """Per-pass values of every per-layer metric in ``names``."""
    ratios = {
        "ratio.scan_blocks_per_gc": (counts["gc_scan_blocks"], counts["gc_scans"]),
        "ratio.relocated_per_gc": (counts["gc_subpages"], counts["gc_collections"]),
        "ratio.buffer_read_hit": (counts["cache_read_hits"],
                                  counts["cache_read_hits"]
                                  + counts["cache_read_misses"]),
    }
    values = dict(extra)
    for name in names:
        if name in values:
            continue
        if name in ratios:
            num, base = ratios[name]
            values[name] = num / base if base else 0.0
        elif name.startswith("count."):
            values[name] = counts[name[len("count."):]]
        elif name in ("experiments.cache.hits", "experiments.cache.misses"):
            values[name] = counters.get(name, 0) / passes
        elif name == "sim.mean_latency_ms":
            values[name] = counts["mean_latency_ms"]
        else:
            for suffix, key in ((".self_s", "self_s"), (".calls", "calls"),
                                ("_s", "self_s")):
                if name.endswith(suffix):
                    layer = name[:-len(suffix)]
                    values[name] = layers.get(layer, {}).get(key, 0) / passes
                    break
            else:
                raise KeyError(f"no rule for per-layer metric {name!r}")
    return values


def checked_sample(fn, *args) -> "tuple[dict, str | None]":
    """``fn``'s sample and its failed check, if any (crashes propagate)."""
    try:
        return fn(*args), None
    except wl.CheckFailed as exc:
        if exc.sample is None:
            raise
        return exc.sample, str(exc)


def traced_replay(workload: str, seed: int, ops: Ops) -> dict:
    """One traced replay pass, summarised; the spans must cover the
    replay's wall."""
    tracer = Tracer()
    s, problem = checked_sample(replay_pass, workload, seed, ops, tracer)
    covered = sum(v["self_s"] for v in tracer.summary(s["mark"]).values())
    s.update(window_s=s["replay_s"], covered=covered, tracer=tracer,
             layers=[tracer.summary()], counters=tracer.counters,
             missing=tracer.missing, warm_replays=0)
    return wl.first_problem(s, [
        problem,
        abs(covered / s["replay_s"] - 1) > ACCOUNTING_TOLERANCE
        and f"spans cover {covered:.3f}s of a {s['replay_s']:.3f}s replay"])


def traced_runall(seed: int, ops: Ops) -> dict:
    """One traced cold+warm ``run-all`` pair (parent processes only)."""
    s, problem = checked_sample(runall_pass, seed, ops, True)
    parts = s["layers"]
    s.update(window_s=sum(p["wall_s"] for p in parts),
             covered=sum(v["self_s"] for p in parts
                         for v in p["layers"].values()),
             layers=[p["layers"] for p in parts],
             counters=sum((Counter(p["counters"]) for p in parts), Counter()),
             missing=parts[0]["missing"],
             warm_replays=parts[1]["layers"].get(REPLAY_LAYER, {}).get(
                 "entries", 0))
    return wl.first_problem(s, [problem])


def traced(workload: str, seed: int, seconds: float, names: list[str],
           ops: Ops, report: list[str]) -> dict:
    """Alternate untraced and traced passes; per-layer values per pass."""
    runall = workload == wl.RUNALL

    def wall(s: dict) -> float:
        return sum(s["raw"].values()) if runall else s["replay_s"]

    plain, passes = [], []
    for i in until(seconds, minimum=2):
        if i % 2 == 0:
            s = (ops.attempt(runall_pass, seed, ops) if runall
                 else ops.attempt(replay_pass, workload, seed, ops))
            if s:
                plain.append(wall(s))
        else:
            s = (ops.attempt(traced_runall, seed, ops) if runall
                 else ops.attempt(traced_replay, workload, seed, ops))
            if s:
                passes.append(s)
    if not (passes and plain):
        raise SystemExit("perfbench: no traced or untraced pass succeeded")
    if passes[-1].get("missing"):
        print(f"untraced entry points: {passes[-1]['missing']}", file=sys.stderr)
    if not runall:
        passes[-1]["tracer"].dump(wl.OUT / f"{workload}.spans.npz")
    counters = sum((Counter(s["counters"]) for s in passes), Counter())
    overhead = (statistics.median(wall(s) for s in passes)
                / statistics.median(plain) - 1)
    covered_pct = (100 * sum(s["covered"] for s in passes)
                   / sum(s["window_s"] for s in passes))
    report.append(f"{len(plain)} untraced and {len(passes)} traced passes; "
                  f"tracing overhead {100 * overhead:.1f}%; spans cover "
                  f"{covered_pct:.1f}% of the traced wall")
    extra = {"experiments.warm_replays":
             statistics.mean(s["warm_replays"] for s in passes),
             "trace.overhead_pct": 100 * overhead,
             "trace.accounted_pct": covered_pct}
    return layer_metrics(names, merge_layers(
        [layer for s in passes for layer in s["layers"]]), counters,
        passes[-1]["counts"], len(passes), extra)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in metric_specs]
    ops = Ops()
    hs = HostSpeed()
    report = [f"workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g}s, trace {args.trace}"]
    if args.trace:
        values = traced(args.workload, args.seed, args.seconds, names, ops, report)
    else:
        values = end_to_end(args.workload, args.seed, args.seconds, ops, hs,
                            report)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    print("\n".join(report))
    print("environment: " + json.dumps(environment(hs), sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
