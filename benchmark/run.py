"""Benchmark of the ncs pipeline: one workload, one seed, one fresh pipeline process.

    python3 benchmark/run.py --workload desk --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from src/).
It writes the workload's mesh and config under benchmark/out/, runs
`ncs fit`, `ncs reconstruct --mode dense --res 512` and `ncs eval` in a fresh
process (pipeline.py), checks the outputs, and prints one JSON line with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. Every time it
reports is probe-normalised (speed.py): wall time corrected for the shared
machine's speed of the moment, as measured by a fixed probe run in between.

A run is one whole pipeline round of fixed work: the fit's iteration count fixes
the model, so Chamfer and eval time cannot depend on the clock. `--seconds` is
the nominal length of a round and does not change the work; the iteration
counts in workloads.py are sized so a run takes 20 to 50 s on a 2-core box.
"""

from __future__ import annotations

import os

# one BLAS thread and one evaluation worker: the figures must repeat on a shared
# 2-core box, and threads fighting over two cores only add spread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NCS_WORKERS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from workloads import DENSE_RES, WORKLOADS, commands, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PIPELINE_TIMEOUT_S = 150  # leaves time for the checks within the 180 s a run may take


def _fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics; the times are probe-normalised (speed.py)."""
    return dict(result.get("times", {}), chamfer_x1e3=result.get("chamfer_x1e3"),
                peak_rss_mb=result["peak_rss_mb"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "ncs" / "__init__.py").is_file():
        return _fail(f"no ncs package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    w = WORKLOADS[args.workload]

    run_dir = HERE / "out" / f"{w.name}-{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    paths = write_inputs(w, run_dir)
    cmds = commands(w, paths)
    plan = {
        "commands": cmds,
        "trace": bool(args.trace),
        "skip_iters": w.skip_iters,
        "log": paths["log"],
        "result": str(run_dir / "result.json"),
        "spans": str(run_dir / "spans.npz"),
        "probes": str(run_dir / "probes.npz"),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    plan_path = run_dir / "plan.json"
    with open(run_dir / "pipeline.log", "w", encoding="utf-8") as log_fh:
        plan["spawn_mono"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        proc = subprocess.Popen([sys.executable, str(HERE / "pipeline.py"), str(plan_path)],
                                stdout=log_fh, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT))
        try:
            rc = proc.wait(timeout=PIPELINE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:  # also on SIGTERM or Ctrl-C: never leave the pipeline running
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    result = {"codes": {}, "peak_rss_mb": None}
    if rc == 0 and Path(plan["result"]).is_file():
        result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    codes = result["codes"]
    failed = sum(1 for phase, _ in cmds if codes.get(phase) != 0)
    errors = []
    if rc != 0:
        errors.append("pipeline process timed out" if rc is None else f"pipeline process exited {rc}")
    if failed:
        tail = (run_dir / "pipeline.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(tail, file=sys.stderr)

    if codes.get("fit") == 0:
        errors += checks.check_loss_falls(checks.read_log(paths["log"])["loss"], w.total)
        grad_errors, worst = checks.check_gradients(paths["checkpoint"], args.seed)
        errors += grad_errors
        print(f"gradient check: max relative error {worst:.3g}", file=sys.stderr)
    if codes.get("reconstruct") == 0:
        errors += checks.check_dense(paths["checkpoint"], paths["dense"], DENSE_RES)
    if codes.get("eval") == 0:
        full = json.loads(Path(paths["eval_json"]).read_text(encoding="utf-8"))["chamfer_x1e3"]
        result["chamfer_x1e3"] = full
        coarse = None
        if codes.get("coarse_eval") == 0:
            coarse = json.loads(Path(paths["coarse_json"]).read_text(encoding="utf-8"))["chamfer_x1e3"]
        errors += checks.check_chamfer(full, coarse)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = end_to_end(result)
    if args.trace:
        values = dict(result.get("layers", {}), **{f"trace.{k}": v for k, v in e2e.items()},
                      **{f"raw.{k}": v for k, v in result.get("raw_times", {}).items()})
        values.update({"probe.ms": result.get("probe_ms"), "probe.count": result.get("probes")})
        listed = spec["per_layer"]
    else:
        values, listed = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if values.get(m["name"]) is not None and math.isfinite(values[m["name"]])}

    for name in ("mesh.obj", "dense.obj", "model.ncs"):  # the big files; keep logs and spans
        (run_dir / name).unlink(missing_ok=True)
    print(json.dumps({"correct": not errors,
                      "attempted": len(cmds), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
