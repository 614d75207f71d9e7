"""One pipeline round in a fresh process: `ncs fit`, `ncs reconstruct`, `ncs eval`.

Started by run.py as `python3 pipeline.py <plan.json>`. The commands run in
this process through `ncs.cli.main`, exactly as a user's command lines would,
and each is timed. Setup runs from the spawn of this process to the start of
the first training iteration. A speed probe (speed.py) runs every 50 ms from the
start to the end, and every time below is probe-normalised: wall time with the
probes taken out, corrected for the machine's speed of the moment. With tracing
on, every public function of the ncs modules is wrapped (tracing.py) and the
per-layer metrics are computed here, where the spans are. The result goes to
the plan's `result` path as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import numpy as np

from speed import FIT_EXPONENT, Probe, SpeedClock


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    # the spawn time, taken on CLOCK_MONOTONIC in run.py, on this process's perf_counter
    spawn = plan["spawn_mono"] - time.clock_gettime(time.CLOCK_MONOTONIC) + time.perf_counter()
    probe = Probe()
    probe.start()

    from ncs import cli, training

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    first_iter = []
    inner = training.schedule_at

    def first_iteration(*args, **kwargs):
        # setup ends here; afterwards the original (or traced) function runs alone
        first_iter.append(time.perf_counter())
        training.schedule_at = inner
        return inner(*args, **kwargs)

    training.schedule_at = first_iteration

    phases = {}
    codes = {}
    for phase, argv in plan["commands"]:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a benchmark crash
            traceback.print_exc()
            rc = 1
        sys.stdout.flush()
        phases[phase] = (t0, time.perf_counter())
        codes[phase] = rc
        if rc != 0:
            break
    probe.stop()
    if tracer is not None:
        tracer.uninstall()
    clock = SpeedClock(probe.starts, probe.ends, spawn, time.perf_counter())

    iters = None
    if codes.get("fit") == 0:
        # iteration t ends at the program's own wall_ms[t], counted from the first iteration
        wall = np.loadtxt(plan["log"], delimiter=",", skiprows=1, usecols=-1, ndmin=1)
        ends = first_iter[0] + wall / 1e3
        iters = (np.concatenate([[first_iter[0]], ends[:-1]]), ends)

    def times(fit_k: float, k: float) -> dict:
        """The end-to-end times, each stretch scaled by the slowdown to the power k."""
        t = {}
        if first_iter:
            t["setup_s"] = float(clock.norm(spawn, first_iter[0], k))
        if iters is not None:
            t["fit_iter_ms"] = float(np.median(clock.norm(*iters, fit_k)[plan["skip_iters"]:])) * 1e3
        if "reconstruct" in phases:
            t["reconstruct_s"] = float(clock.norm(*phases["reconstruct"], k))
        evals = [clock.norm(a, b, k) for p, (a, b) in phases.items() if p.split(".")[0] == "eval"]
        if evals:
            t["eval_s"] = float(np.median(evals))
        return t

    result = {
        "codes": codes,
        "times": times(FIT_EXPONENT, 1.0),
        "raw_times": times(0.0, 0.0),  # wall time with the probes taken out
        "probe_ms": float(np.median(clock.probe_s)) * 1e3 if len(clock.probe_s) else None,
        "probes": len(clock.probe_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if iters is not None and tracer is not None:
        from tracing import layer_metrics

        ph = dict(phases)
        ph["setup"] = (float("-inf"), first_iter[0])
        ph["fit"] = (first_iter[0], phases["fit"][1])
        for p in ("reconstruct", "eval"):
            ph.setdefault(p, (0.0, 0.0))
        result["layers"] = layer_metrics(tracer, clock, ph, plan["skip_iters"])
    if tracer is not None:
        tracer.save(plan["spans"])
    np.savez(plan["probes"], starts=probe.starts, ends=probe.ends, parts=np.asarray(probe.parts),
             spawn=spawn, first_iter=first_iter[:1],
             phases=json.dumps({p: list(v) for p, v in phases.items()}))
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
