"""Run one ``repro-ssd`` command in this process and write what was
measured in it as JSON.

Usage: ``python perfbench/cli_run.py {speed,trace} OUT.json <repro-ssd arguments>``

``speed``: host speed is sampled (see hostspeed.py) before and after the
CLI import and around every outermost replay-driver call, in this
thread.  OUT.json gets the import time, the command's wall and each
replay's time and request count, in reference seconds.

``trace``: the layer tracer is installed before the CLI is imported;
OUT.json gets the per-layer summary and the spans go next to it as
``.npz``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer, install_layers  # noqa: E402

clock = time.perf_counter


def install_sampling(hs: HostSpeed) -> list:
    """Sample host speed around every outermost replay-driver call;
    returns the list that collects ``(start, end, requests)`` per call."""
    from repro.frontend.simulate import FrontendSimulator
    from repro.sim.simulator import Simulator

    replays: list[tuple[float, float, int]] = []
    depth = [0]

    def wrap(fn):
        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                hs.sample()
                t0 = clock()
                result = fn(*args, **kwargs)
                t1 = clock()
                hs.sample()
            finally:
                depth[0] -= 1
            replays.append((t0, t1, result.n_requests))
            return result
        return sampled

    for owner, attr in ((Simulator, "run"), (Simulator, "run_closed"),
                        (FrontendSimulator, "run")):
        setattr(owner, attr, wrap(vars(owner)[attr]))
    return replays


def speed(out: Path, args: list[str]) -> int:
    hs = HostSpeed()
    hs.sample(3)
    t0 = clock()
    from repro.cli import main as cli_main
    t1 = clock()
    hs.sample(3)
    replays = install_sampling(hs)
    t2 = clock()
    code = cli_main(args)
    t3 = clock()
    hs.sample(3)
    out.write_text(json.dumps({
        "setup_s": hs.scale(t0, t1), "wall_s": hs.scale(t2, t3),
        "replays": [(hs.scale(a, b), n) for a, b, n in replays],
        "raw": {"setup_s": t1 - t0, "wall_s": t3 - t2},
    }))
    return code


def trace(out: Path, args: list[str]) -> int:
    tracer = Tracer()
    install_layers(tracer)
    from repro.cli import main as cli_main

    tracer.enabled = True
    t0 = clock()
    try:
        code = cli_main(args)
    finally:
        wall = clock() - t0
        tracer.enabled = False
    out.write_text(json.dumps({"wall_s": wall, "raw": {"wall_s": wall},
                               "layers": tracer.summary(),
                               "counters": tracer.counters,
                               "missing": tracer.missing}))
    tracer.dump(out.with_suffix(".npz"))
    return code


if __name__ == "__main__":
    mode = {"speed": speed, "trace": trace}[sys.argv[1]]
    sys.exit(mode(Path(sys.argv[2]), sys.argv[3:]))
