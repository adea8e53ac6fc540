"""The benchmark's workloads and their output checks.

Two replay workloads drive one medium-scale ``ipu`` cell through the
public replay API, and ``runall-smoke`` drives the ``repro-ssd run-all``
CLI in subprocesses.  Every function here returns raw samples; ``run.py``
turns them into metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import UNSCALED, HostSpeed

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
#: Scratch space inside the checkout (caches, span dumps).
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
GOLDEN_DIR = ROOT / "results" / "golden"

SCHEME = "ipu"
#: Requests per timed chunk of a replay (the ``chunk_ms_*`` sample unit).
CHUNK_REQUESTS = 1024
#: ``run-all`` jobs.  One job replays every cell inline in the CLI
#: process, where host speed is sampled in the replaying thread itself;
#: the replays of pool workers, beside the CLI process on a 2-core host,
#: were timed with a spread of 25-60% between runs.
JOBS = 1
#: Short stages are repeated within a run so their medians are steady on
#: a host whose speed drifts: set-up-only repetitions per replay run and
#: extra CLI start-ups per ``runall-smoke`` run.
EXTRA_SETUPS = 10
CLI_STARTS = 4
#: Wall-clock limit of one ``run-all`` subprocess.
CLI_TIMEOUT_S = 120

clock = time.perf_counter


@dataclass(frozen=True)
class ReplaySpec:
    trace: str
    frontend: bool
    scale: str = "medium"


REPLAY = {
    "gc-steady": ReplaySpec("ts0", frontend=False),
    "frontend-read": ReplaySpec("lun2", frontend=True),
}
RUNALL = "runall-smoke"
WORKLOADS = (*REPLAY, RUNALL)


class CheckFailed(Exception):
    """An operation failed.  ``sample`` holds its timings when they were
    taken before an output check failed (the pass still counts as failed)."""

    def __init__(self, message: str, sample: "dict | None" = None):
        super().__init__(message)
        self.sample = sample


def result_digest(result) -> str:
    """sha256 of a result's ``deterministic_dict()`` as canonical JSON."""
    blob = json.dumps(result.deterministic_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_counts(results) -> dict:
    """Host-independent work counters summed over ``results``."""
    c = dict.fromkeys(("host_subpages", "gc_subpages", "erases",
                       "partial_programs", "gc_scans", "gc_scan_blocks",
                       "gc_collections", "cache_read_hits",
                       "cache_read_misses", "requests"), 0)
    latency_sum = 0.0
    for r in results:
        c["host_subpages"] += r.host_subpages_slc + r.host_subpages_mlc
        c["gc_subpages"] += r.gc_subpages_slc + r.gc_subpages_mlc
        c["erases"] += r.erases_slc + r.erases_mlc
        c["partial_programs"] += r.partial_programs
        c["gc_scans"] += r.gc_scans
        c["gc_scan_blocks"] += r.gc_scan_blocks
        c["gc_collections"] += r.slc_gc_collections + r.mlc_gc_collections
        c["cache_read_hits"] += r.cache_read_hits
        c["cache_read_misses"] += r.cache_read_misses
        c["requests"] += r.n_requests
        latency_sum += r.avg_latency_ms * r.n_requests
    c["mean_latency_ms"] = latency_sum / max(1, c["requests"])
    return c


def write_amp(counts: dict) -> float:
    """Flash subpages programmed (host + GC) per host subpage."""
    host = counts["host_subpages"]
    return (host + counts["gc_subpages"]) / host


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def expected_problem(workload: str, seed: int, digest: str,
                     counts: dict) -> "str | None":
    """Mismatch with the digest and counts recorded for this seed, if any."""
    rec = load_expected().get(workload, {}).get(str(seed))
    if rec is None:
        return None
    if rec["digest"] != digest:
        return (f"{workload} seed {seed}: digest {digest[:16]} != "
                f"recorded {rec['digest'][:16]}")
    if rec["counts"] != counts:
        return f"{workload} seed {seed}: counts {counts} != recorded {rec['counts']}"
    return None


def first_problem(sample: dict, problems) -> dict:
    """Return ``sample``, or raise the first non-empty problem with it."""
    for problem in problems:
        if problem:
            raise CheckFailed(problem, sample)
    return sample


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- replay workloads ----------------------------------------------------------


class StampedStream:
    """A ``TraceStream`` over an in-memory trace that stamps host time
    around each chunk it yields, so a replay's wall splits into per-chunk
    times (chunked replay is byte-identical to a whole-trace replay).
    ``hs`` samples host speed between chunks, outside the stamped
    intervals."""

    def __init__(self, trace, hs: HostSpeed = UNSCALED,
                 chunk_requests: int = CHUNK_REQUESTS):
        from repro.traces.stream import InMemoryStream
        self.name = trace.name
        self.chunk_requests = chunk_requests
        self._inner = InMemoryStream(trace, chunk_requests)
        self._hs = hs
        #: ``(requests, start, end)`` of every chunk.
        self.stamps: list[tuple[int, float, float]] = []

    def chunks(self):
        for chunk in self._inner.chunks():
            self._hs.sample()
            t0 = clock()
            yield chunk
            self.stamps.append((len(chunk), t0, clock()))

    def full_chunks(self) -> list[tuple[float, float]]:
        """``(start, end)`` of every full-size chunk."""
        return [(t0, t1) for n, t0, t1 in self.stamps
                if n == self.chunk_requests]


def build_cell(spec: ReplaySpec, seed: int):
    """Context sizing, trace synthesis, FTL and driver construction."""
    from repro import SCHEMES, Simulator
    from repro.experiments.runner import RunContext
    from repro.frontend import FrontendConfig
    from repro.frontend.simulate import FrontendSimulator

    frontend = FrontendConfig(enabled=True) if spec.frontend else None
    ctx = RunContext(spec.scale, seed, frontend=frontend)
    trace = ctx.trace(spec.trace)
    ftl = SCHEMES[SCHEME](ctx.trace_config(spec.trace))
    sim = (FrontendSimulator(ftl, frontend) if frontend is not None
           else Simulator(ftl))
    return trace, sim


def timed_build(spec: ReplaySpec, seed: int, hs: HostSpeed):
    """``build_cell`` with host speed sampled just before and after it;
    returns ``(trace, sim, raw seconds, scaled seconds)``."""
    gc.collect()
    hs.sample(3)
    t0 = clock()
    trace, sim = build_cell(spec, seed)
    t1 = clock()
    hs.sample(3)
    return trace, sim, t1 - t0, hs.scale(t0, t1)


def replay_cell(spec: ReplaySpec, seed: int, tracer=None,
                hs: HostSpeed = UNSCALED) -> dict:
    """One pass over the cell: set-up, then a chunk-stamped replay.

    With ``tracer`` the layer wrappers are installed before anything is
    built and removed afterwards.  Times are scaled by ``hs`` (host
    seconds by default); raw host seconds, sampling included, are kept
    under ``raw``.
    """
    if tracer is not None:
        from spans import install_layers
        install_layers(tracer)
        tracer.enabled = True
    try:
        trace, sim, setup_raw, setup_s = timed_build(spec, seed, hs)
        mark = tracer.mark() if tracer else 0
        stream = StampedStream(trace, hs)
        t0 = clock()
        result = sim.run(stream)
        t1 = clock()
        hs.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
    sample = {
        "setup_s": setup_s, "replay_s": hs.scale(t0, t1),
        "chunks_s": [hs.scale(a, b) for a, b in stream.full_chunks()],
        "raw": {"setup_s": setup_raw, "replay_s": t1 - t0},
        "result": result, "digest": result_digest(result),
        "counts": result_counts([result]), "mark": mark,
    }
    return first_problem(sample, [
        result.n_requests != len(trace)
        and f"replayed {result.n_requests} of {len(trace)} requests"])


# -- runall-smoke --------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_JOBS", None)
    return env


def run_cli(args: list[str], timeout: float = CLI_TIMEOUT_S) -> str:
    """Run one command in its own process group; returns its stdout.
    On timeout the whole group is killed and reaped."""
    proc = subprocess.Popen(args, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise CheckFailed(f"{' '.join(args[3:6])} timed out after {timeout}s")
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
        raise CheckFailed(f"{' '.join(args[3:6])} exited {proc.returncode}")
    return out


def cli(mode: str, out: Path, args: list[str]) -> "tuple[dict, str]":
    """``repro-ssd args`` in a fresh process via ``cli_run.py`` (``mode``
    is ``speed`` or ``trace``); returns what it measured and its stdout."""
    stdout = run_cli([sys.executable, str(HERE / "cli_run.py"), mode, str(out),
                      *args])
    return json.loads(out.read_text()), stdout


def cli_start() -> "tuple[float, float]":
    """Raw and scaled seconds of the CLI import in a fresh process."""
    OUT.mkdir(exist_ok=True)
    measured, _ = cli("speed", OUT / "start.json", ["list"])
    return measured["raw"]["setup_s"], measured["setup_s"]


_HOST_COLUMN = re.compile(r"\bhost ms\b")


def masked_output(stdout: str) -> str:
    """``run-all`` output minus what host speed changes: the ``[cells]``
    summary line and table columns headed ``... host ms ...``."""
    lines = [l for l in stdout.splitlines() if not l.startswith("[cells]")]
    out = []
    spans: list[tuple[int, int]] = []
    for i, line in enumerate(lines):
        if i + 1 < len(lines) and re.fullmatch(r"-+(  -+)*", lines[i + 1].rstrip()):
            spans = []
            pos = 0
            for dashes in lines[i + 1].rstrip().split("  "):
                name = line[pos:pos + len(dashes)]
                if _HOST_COLUMN.search(name):
                    spans.append((pos, pos + len(dashes)))
                pos += len(dashes) + 2
        elif not line.strip():
            spans = []
        for lo, hi in spans:
            line = line[:lo] + "#" * max(0, min(hi, len(line)) - lo) + line[hi:]
        out.append(line)
    return "\n".join(out) + "\n"


def run_all(seed: int, cache_dir: Path, out: Path, mode: str):
    """One ``run-all --scale smoke`` invocation; see :func:`cli`."""
    return cli(mode, out, ["run-all", "--scale", "smoke", "--seed", str(seed),
                           "--jobs", str(JOBS), "--cache-dir", str(cache_dir)])


def matrix_results(seed: int, cache_dir: Path) -> "tuple[list, int]":
    """The paper matrix cells (every trace x baseline/mga/ipu) restored
    from a ``run-all`` cache, and how many had to be replayed instead."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import RunContext

    ctx = RunContext("smoke", seed, cache=ResultCache(cache_dir))
    return list(ctx.run_matrix().values()), ctx.executed_cells


def golden_problem(seed: int, results) -> "str | None":
    """Mismatch with ``results/golden/`` when it pins this seed."""
    by_cell = {(r.trace_name, r.scheme): r for r in results}
    for path in sorted(GOLDEN_DIR.glob("*_smoke.json")):
        golden = json.loads(path.read_text())
        if golden.get("seed") != seed:
            continue
        for cell, metrics in golden["cells"].items():
            r = by_cell[tuple(cell.split("/"))]
            for name, want in metrics.items():
                if abs(getattr(r, name) - want) > 1e-9:
                    return (f"{path.name} {cell}.{name}: "
                            f"{getattr(r, name)!r} != {want!r}")
    return None


def runall_pair(seed: int, traced: bool = False) -> dict:
    """A cold then a warm ``run-all`` into one fresh cache directory.
    Untraced, times are in reference seconds, measured in the CLI
    process; ``chunks_s`` holds every replay of the cold run."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="runall-", dir=OUT))
    try:
        cache = work / "cache"
        mode = "trace" if traced else "speed"
        cold, cold_stdout = run_all(seed, cache, (OUT if traced else work)
                                    / f"{RUNALL}.cold.json", mode)
        warm, warm_stdout = run_all(seed, cache, (OUT if traced else work)
                                    / f"{RUNALL}.warm.json", mode)
        cold_masked = masked_output(cold_stdout)
        results, replayed = matrix_results(seed, cache)
        sample = {
            "cold_s": cold["wall_s"], "warm_s": warm["wall_s"],
            "raw": {"cold_s": cold["raw"]["wall_s"],
                    "warm_s": warm["raw"]["wall_s"]},
            "results": results,
            "digest": hashlib.sha256(cold_masked.encode()).hexdigest(),
            "counts": result_counts(results),
        }
        if traced:
            sample["layers"] = [cold, warm]
        else:
            sample["chunks_s"] = [seconds for seconds, _ in cold["replays"]]
            sample["rps"] = (sum(n for _, n in cold["replays"])
                             / sum(sample["chunks_s"]))
            sample["setups"] = [(m["raw"]["setup_s"], m["setup_s"])
                                for m in (cold, warm)]
        return first_problem(sample, [
            masked_output(warm_stdout) != cold_masked
            and "warm run-all output differs from cold",
            not re.search(r"^\[cells\] 0 simulated .* / 0 misses", warm_stdout,
                          re.M)
            and "warm run-all simulated cells or missed the cache",
            replayed and f"{replayed} matrix cells missing from the cache",
            golden_problem(seed, results),
        ])
    finally:
        shutil.rmtree(work, ignore_errors=True)
