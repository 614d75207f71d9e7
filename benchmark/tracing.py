"""Spans around the public functions of the ncs modules, and the per-layer
metrics computed from them.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records one span (name, start, end, parent) per call. Names are
looked up where they are called, so a function is replaced in every ncs module
that holds a reference to it: `training` calls `evaluate_batch` through its own
import, `cli` calls `fit`, `build_context` and `embed_disk` through its own
imports, and `conv_residual_block` calls `conv3x3` through `autodiff`'s globals.
An op's backward time is a span around the closure its forward call records on
the active tape. Spans stay in memory and are written out once, at the end.

A span's self time is its duration minus the durations of its child spans.
Durations are probe-normalised (speed.py), like the end-to-end times: with
FIT_EXPONENT for the per-iteration figures, with exponent 1 for phase totals.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

from speed import FIT_EXPONENT

MODULES = ("geometry", "parameterization", "patching", "training", "model", "autodiff",
           "checkpoint", "cli")
METHODS = (("autodiff", "RMSProp", "step"), ("parameterization", "DiskChart", "locate"))
# the decoder and sampling ops reported one by one; every other op is "other"
NAMED_OPS = ("conv3x3", "upsample2x", "linear", "grid_sample", "segment_sum")
# public autodiff functions that are not forward ops
NON_OPS = ("backprop", "finite_diff_check", "rmsprop_step", "RMSProp.step")


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.values: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self.tape_hook_ok = True

    def _nid(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, observe=None):
        nid = self._nid(name)
        tape_op = name.startswith("autodiff.") and name.split(".", 1)[1] not in NON_OPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if tape_op:
                self._time_backward(name, out)
            if observe is not None:
                observe(self, i, args, out)
            return out

        return wrapper

    def _time_backward(self, name: str, out) -> None:
        """Wrap the backward closure this op just recorded, unless an inner op owns it."""
        from ncs import autodiff as ad

        tape = getattr(ad, "_ACTIVE", None)
        if tape is None or not self.tape_hook_ok:
            return
        nodes = getattr(tape, "nodes", None)
        if not nodes:
            return
        if not isinstance(nodes[-1], tuple) or len(nodes[-1]) != 3:
            self.tape_hook_ok = False
            print("tracing: unexpected tape layout; backward times not recorded", file=sys.stderr)
            return
        o, ins, bw = nodes[-1]
        if o is not out or getattr(bw, "__traced__", False):
            return
        nid = self._nid(name + ".bwd")

        def timed_bw(g):
            i = self._open(nid)
            try:
                return bw(g)
            finally:
                self._close(i)

        timed_bw.__traced__ = True
        nodes[-1] = (o, ins, timed_bw)

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"ncs.{m}") for m in MODULES}
        pkg_mods = [m for k, m in sys.modules.items() if k == "ncs" or k.startswith("ncs.")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                w = self.wrap(f"{short}.{attr}", fn, OBSERVERS.get(f"{short}.{attr}"))
                for holder in pkg_mods:
                    for k, v in list(vars(holder).items()):
                        if v is fn:
                            self._patched.append((holder, k, fn))
                            setattr(holder, k, w)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = getattr(cls, meth)
            name = f"{short}.{cls_name}.{meth}" if short == "autodiff" else f"{short}.{meth}"
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(name, fn, OBSERVERS.get(name)))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def arrays(self):
        return (np.asarray(self.span_name, dtype=np.int32), np.asarray(self.t0),
                np.asarray(self.t1), np.asarray(self.parent, dtype=np.int64))

    def save(self, path) -> None:
        name, t0, t1, parent = self.arrays()
        np.savez_compressed(path, name=name, t0=t0, t1=t1, parent=parent,
                            names=np.asarray(json.dumps(self.names)))


# ---------------------------------------------------------------------------
# counts recorded at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _obs_conv3x3(tr, i, args, out):
    x, k = args[0], args[1]
    xs = x.data.shape if x.data.ndim == 4 else (1,) + x.data.shape
    p, cin, h, w = xs
    cout = k.data.shape[0]
    item = x.data.itemsize
    flop = 2.0 * p * h * w * cout * cin * 9
    moved = (p * cin * h * w + p * cout * h * w + k.data.size) * item
    from ncs import autodiff as ad
    if ad.recording() and out.requires_grad:
        grads = int(x.requires_grad) + int(k.requires_grad)
        flop *= 1 + grads
        # backward reads g and x and writes gx (and gk)
        moved += (2 * p * cout * h * w + p * cin * h * w + k.data.size) * item
    tr.values["conv3x3.flop"].append((i, flop))
    tr.values["conv3x3.bytes"].append((i, moved))


def _obs_grid_sample(tr, i, args, out):
    from ncs import autodiff as ad
    if not ad.recording():
        return
    grids, idx, uv = args[0], np.asarray(args[1], dtype=np.int64), np.asarray(args[2], dtype=np.float64)
    p, _, h, w = grids.data.shape
    # align-corners bilinear taps, as documented for grid_sample
    px = (np.clip(uv[:, 0], -1.0, 1.0) + 1.0) * 0.5 * (w - 1)
    py = (np.clip(uv[:, 1], -1.0, 1.0) + 1.0) * 0.5 * (h - 1)
    x0 = np.clip(np.floor(px).astype(np.int64), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(py).astype(np.int64), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    base = idx * (h * w)
    taps = np.concatenate([base + y * w + x for y in (y0, y1) for x in (x0, x1)])
    tr.values["grid_sample.read_fraction"].append((i, np.unique(taps).size / (p * h * w)))


def _obs_backprop(tr, i, args, out):
    tr.values["tape_nodes"].append((i, len(args[0].nodes)))


def _obs_sample_batch(tr, i, args, out):
    tr.values["pairs_per_sample"].append((i, len(out.pair_sample) / max(len(out.q), 1)))


def _obs_evaluate_batch(tr, i, args, out):
    tr.counts["frame_fallbacks"] += out[-1].get("frame_fallbacks", 0)


def _obs_extract_patches(tr, i, args, out):
    tr.counts["n_patches"] = out.n_patches


def _obs_fit(tr, i, args, out):
    tr.counts["dropped_samples"] += out.dropped_samples


def _obs_locate(tr, i, args, out):
    tr.counts["locate_hits"] += out is not None


def _obs_save_checkpoint(tr, i, args, out):
    tr.counts["checkpoint_bytes"] = os.path.getsize(args[0])


OBSERVERS = {
    "autodiff.conv3x3": _obs_conv3x3,
    "autodiff.grid_sample": _obs_grid_sample,
    "autodiff.backprop": _obs_backprop,
    "training.sample_batch": _obs_sample_batch,
    "model.evaluate_batch": _obs_evaluate_batch,
    "patching.extract_patches": _obs_extract_patches,
    "training.fit": _obs_fit,
    "parameterization.locate": _obs_locate,
    "checkpoint.save_checkpoint": _obs_save_checkpoint,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tr: Tracer, clock, phases: dict[str, tuple[float, float]], skip_iters: int) -> dict:
    """Per-layer metrics from the recorded spans.

    `clock` (a speed.SpeedClock) turns each span into probe-normalised time, as
    for the end-to-end metrics. `phases` maps setup/fit/reconstruct/eval to
    perf_counter intervals. Metrics in ms are medians over the measured training
    iterations (the first `skip_iters` left out) of each iteration's total;
    metrics in s are totals over the named phase.
    """
    sid, t0, t1, parent = tr.arrays()
    names = tr.names
    has_parent = parent >= 0

    def durations(k):
        d = clock.norm(t0, t1, k)
        return d, d - np.bincount(parent[has_parent], weights=d[has_parent], minlength=len(d))

    dur, self_t = durations(1.0)  # phase totals
    dur_f, self_f = durations(FIT_EXPONENT)  # per training iteration

    def named(*ns):
        ids = [tr.name_ids[n] for n in ns if n in tr.name_ids]
        return np.isin(sid, ids)

    def in_phase(*ps):
        m = np.zeros(len(sid), dtype=bool)
        for p in ps:
            a, b = phases[p]
            m |= (t0 >= a) & (t0 < b)
        return m

    # iteration windows: each starts with the iteration's schedule_at call
    starts = t0[named("training.schedule_at")]
    fit_spans = np.flatnonzero(named("training.fit"))
    fit_span = fit_spans[0]
    ends = np.append(starts[1:], t1[fit_span])
    n_it = len(starts)
    it = np.searchsorted(starts, t0, side="right") - 1
    in_fit = (it >= 0) & (t0 < t1[fit_span])
    keep = slice(min(skip_iters, max(n_it - 1, 0)), None)

    def per_iter(mask, q):
        m = mask & in_fit
        tot = np.bincount(it[m], weights=q[m], minlength=n_it)
        return float(np.median(tot[keep])) if n_it else 0.0

    def per_iter_values(key):
        vals = tr.values.get(key, [])
        if not vals or not n_it:
            return 0.0
        idx = np.array([v[0] for v in vals], dtype=np.int64)
        q = np.array([v[1] for v in vals], dtype=np.float64)
        ok = in_fit[idx]
        return float(np.median(np.bincount(it[idx[ok]], weights=q[ok], minlength=n_it)[keep]))

    def total(mask, *ps):
        return float(dur[mask & in_phase(*ps)].sum())

    ms = 1e3
    m = {}
    all_ops = [n for n in names if n.startswith("autodiff.") and not n.endswith(".bwd")
               and n.split(".", 1)[1] not in NON_OPS]
    for op in NAMED_OPS:
        m[f"autodiff.{op}.fwd_ms"] = per_iter(named(f"autodiff.{op}"), self_f) * ms
        m[f"autodiff.{op}.bwd_ms"] = per_iter(named(f"autodiff.{op}.bwd"), self_f) * ms
    other = [n for n in all_ops if n.split(".", 1)[1] not in NAMED_OPS]
    m["autodiff.other.fwd_ms"] = per_iter(named(*other), self_f) * ms
    m["autodiff.other.bwd_ms"] = per_iter(named(*[n + ".bwd" for n in other]), self_f) * ms
    m["autodiff.conv3x3.calls"] = per_iter(named("autodiff.conv3x3"), np.ones(len(sid)))
    m["autodiff.tape_nodes"] = per_iter_values("tape_nodes")
    m["autodiff.backprop.ms"] = per_iter(named("autodiff.backprop"), dur_f) * ms
    m["autodiff.RMSProp.step.ms"] = per_iter(named("autodiff.RMSProp.step"), dur_f) * ms
    gflop = per_iter_values("conv3x3.flop") / 1e9
    m["autodiff.conv3x3.gflop"] = gflop
    m["autodiff.conv3x3.mb_moved"] = per_iter_values("conv3x3.bytes") / 1e6
    conv_s = (m["autodiff.conv3x3.fwd_ms"] + m["autodiff.conv3x3.bwd_ms"]) / ms
    m["autodiff.conv3x3.gflops"] = gflop / conv_s if conv_s > 0 else 0.0

    m["model.decode_grids.ms"] = per_iter(named("model.decode_grids"), dur_f) * ms
    m["model.evaluate_batch.fit_ms"] = per_iter(named("model.evaluate_batch"), dur_f) * ms
    m["model.evaluate_batch.eval_s"] = total(named("model.evaluate_batch"), "reconstruct", "eval")
    m["model.decoded_pixels_read_fraction"] = per_iter_values("grid_sample.read_fraction")
    m["model.frame_fallbacks"] = tr.counts["frame_fallbacks"]

    m["training.sample_batch.ms"] = per_iter(named("training.sample_batch"), dur_f) * ms
    m["training.forward_losses.ms"] = per_iter(named("training.forward_losses"), dur_f) * ms
    iter_dur = clock.norm(starts, ends, FIT_EXPONENT)
    fit_child = (parent == fit_span) & in_fit
    child_per_it = np.bincount(it[fit_child], weights=dur_f[fit_child], minlength=n_it)
    m["training.fit.self_ms"] = float(np.median((iter_dur - child_per_it)[keep])) * ms
    m["training.build_context.s"] = total(named("training.build_context"), "setup")
    m["training.vertex_batch.s"] = total(named("training.vertex_batch"), "eval")
    pps = [v for _, v in tr.values.get("pairs_per_sample", [])]
    m["training.pairs_per_sample"] = float(np.mean(pps)) if pps else 0.0
    m["training.dropped_samples"] = tr.counts["dropped_samples"]

    m["patching.extract_patches.s"] = total(named("patching.extract_patches"), "setup")
    m["patching.n_patches"] = tr.counts["n_patches"]
    m["patching.pair_boundary_distances.ms"] = per_iter(named("patching.pair_boundary_distances"), dur_f) * ms
    m["patching.normalize_pair_weights.ms"] = per_iter(named("patching.normalize_pair_weights"), dur_f) * ms

    m["parameterization.embed_disk.s"] = total(named("parameterization.embed_disk"), "setup")
    loc = named("parameterization.locate")
    m["parameterization.locate.s"] = float(dur[loc].sum())
    m["parameterization.locate.calls"] = int(loc.sum())
    m["parameterization.locate.hit_fraction"] = tr.counts["locate_hits"] / max(int(loc.sum()), 1)

    m["geometry.load_mesh.s"] = total(named("geometry.load_mesh"), "setup")
    m["geometry.export_mesh.s"] = total(named("geometry.export_mesh"), "reconstruct")
    m["geometry.sample_surface_arrays.s"] = total(named("geometry.sample_surface_arrays"), "eval")
    m["geometry.chamfer_distance.s"] = total(named("geometry.chamfer_distance"), "eval")

    m["checkpoint.save_checkpoint.s"] = float(dur[named("checkpoint.save_checkpoint")].sum())
    m["checkpoint.load_checkpoint.s"] = total(named("checkpoint.load_checkpoint"), "reconstruct", "eval")
    m["checkpoint.restore_state.s"] = total(named("checkpoint.restore_state"), "reconstruct", "eval")
    m["checkpoint.bytes"] = tr.counts["checkpoint_bytes"]

    m["cli.reconstruct.self_s"] = float(self_t[named("cli.cmd_reconstruct") & in_phase("reconstruct")].sum())
    m["cli.eval.self_s"] = float(self_t[named("cli.cmd_eval") & in_phase("eval")].sum())

    m["trace.iter_total_ms"] = float(np.median(iter_dur[keep])) * ms if n_it else 0.0
    m["trace.spans"] = len(sid)
    return m
