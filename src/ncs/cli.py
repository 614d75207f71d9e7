"""Command-line pipeline: fit, reconstruct, eval, edit, transfer, patches.

Exit codes: 0 ok, 2 config/input error (including a missing or unwritable file and
a malformed checkpoint), 3 topology error, 4 numeric error.
NCS_WORKERS (default 1) fans evaluation-time point queries out over threads;
chunk boundaries are fixed, so results do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, checkpoint as ckpt_io
from .config import RunConfig, parse_config
from .errors import (AlignmentError, CheckpointError, ConfigError, CoverageError,
                     FrameDegenerateError, MeshError, NumericError, OutOfChartError,
                     TopologyError)
from .geometry import TriMesh, chamfer_distance, export_mesh, load_mesh, normalize_unit_sphere, sample_surface_arrays
from .model import ModelParams, build_model, decode_grids, evaluate_batch, scale_details, transfer_details
from .parameterization import embed_disk
from .patching import extract_patches, face_pairs, patch_rows
from .training import build_context, fit, vertex_batch

log = logging.getLogger("ncs")

_EVAL_CHUNK = 8192
_DEFAULT_EVAL_SAMPLES = 100_000
_EVAL_SEED = 12345


def _workers() -> int:
    try:
        return max(1, int(os.environ.get("NCS_WORKERS", "1")))
    except ValueError:
        return 1


# exit code and message prefix of every error `main` reports; any other exception is a
# bug and keeps its traceback
_EXITS = {
    **dict.fromkeys((ConfigError, MeshError, CheckpointError, AlignmentError, OSError), (2, "error")),
    TopologyError: (3, "topology error"),
    **dict.fromkeys((NumericError, OutOfChartError, CoverageError, FrameDegenerateError),
                    (4, "numeric error")),
}
_NCS_ERRORS = tuple(t for t in _EXITS if t is not OSError)


@contextmanager
def _stage(name: str):
    """Prefix any module error with the pipeline stage it came from; the error
    itself, with its type and attributes, propagates."""
    try:
        yield
    except _NCS_ERRORS as e:
        e.args = (f"{name}: {e}",)
        raise


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _param_table(params: ModelParams) -> str:
    c = params.param_counts()
    lines = [
        "component    parameters",
        f"coarse MLP   {c['coarse']}",
        f"code         {c['code']}",
        f"CNN          {c['cnn']}",
        f"fine MLP     {c['fine']}",
        f"TOTAL        {c['total']}",
    ]
    return "\n".join(lines)


def _restore(path):
    with _stage("checkpoint"):
        ck = ckpt_io.load_checkpoint(path)
        return ck, ckpt_io.restore_state(ck)


def _eval_positions(params, q, pair_sample, pair_patch, pair_uv, pair_w, coarse_only=False):
    """Model positions for prepared query arrays, chunked over NCS_WORKERS threads."""
    n = len(q)
    # pair rows grouped by sample id are contiguous, so chunking by sample is safe
    starts = list(range(0, n, _EVAL_CHUNK))
    pair_start = np.searchsorted(pair_sample, starts)
    pair_end = np.append(pair_start[1:], len(pair_sample))
    grids = None if coarse_only else decode_grids(params)

    def run(i):
        s = starts[i]
        e = min(s + _EVAL_CHUNK, n)
        ps, pe = pair_start[i], pair_end[i]
        out, info = evaluate_batch(
            params, q[s:e], pair_sample[ps:pe] - s, pair_patch[ps:pe],
            pair_uv[ps:pe], pair_w[ps:pe],
            coarse_only=coarse_only, grids=grids, degenerate="fallback")
        return out.data.astype(np.float64), info["frame_fallbacks"]

    w = _workers()
    if w == 1 or len(starts) == 1:
        results = [run(i) for i in range(len(starts))]
    else:
        with ThreadPoolExecutor(max_workers=w) as ex:
            results = list(ex.map(run, range(len(starts))))
    positions = np.concatenate([r[0] for r in results], axis=0)
    fallbacks = sum(r[1] for r in results)
    return positions, fallbacks


def _reconstruct_vertices(state, coarse_only=False):
    mesh, chart, patchset, params = state
    ctx = build_context(mesh, chart, patchset)
    b = vertex_batch(ctx)
    positions, fallbacks = _eval_positions(params, b.q, b.pair_sample, b.pair_patch,
                                           b.pair_uv, b.pair_w, coarse_only=coarse_only)
    return TriMesh(positions, mesh.faces.copy()), fallbacks


def _reconstruct_dense(state, res: int):
    _, chart, patchset, params = state
    xs = np.linspace(-1.0, 1.0, res)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")  # grid point ix * res + iy
    q = np.stack([gx.ravel(), gy.ravel()], axis=1)
    tri, bary = chart.locate_many(q)
    inside = tri >= 0
    if not inside.any():
        raise NumericError("dense grid found no points inside the chart image")
    pair_sample, pair_patch, pair_uv, pair_w = face_pairs(patchset, tri[inside], bary[inside])
    positions, fallbacks = _eval_positions(params, q[inside].astype(np.float32), pair_sample,
                                           pair_patch, pair_uv.astype(np.float32),
                                           pair_w.astype(np.float32))

    # two triangles per grid cell with all four corners inside, cells in (iy, ix) order
    index = np.where(inside, np.cumsum(inside) - 1, -1).reshape(res, res)
    c00, c10, c01, c11 = (c.T.ravel() for c in (index[:-1, :-1], index[1:, :-1],
                                                  index[:-1, 1:], index[1:, 1:]))
    full = (c00 >= 0) & (c10 >= 0) & (c01 >= 0) & (c11 >= 0)
    tris = np.stack([c00, c10, c11, c00, c11, c01], axis=1)[full].reshape(-1, 3)
    if not len(tris):
        raise NumericError("dense grid resolution too small to triangulate the chart")
    return TriMesh(positions, tris), fallbacks


def _chamfer_vs_mesh(recon: TriMesh, gt: TriMesh, n_samples: int) -> float:
    # same seed on both sides: evaluating a mesh against itself gives exactly 0
    a, _, _ = sample_surface_arrays(recon, n_samples, _EVAL_SEED)
    b, _, _ = sample_surface_arrays(gt, n_samples, _EVAL_SEED)
    return chamfer_distance(a, b)


def _chart_fingerprint(ck: ckpt_io.Checkpoint) -> str:
    h = hashlib.sha256()
    h.update(ck.global_uv.tobytes())
    h.update(ck.mesh_faces.tobytes())
    for p in ck.patches:
        h.update(np.asarray(p["uv"]).tobytes())
        h.update(np.asarray(p["orig_face_ids"]).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    cfg: RunConfig = parse_config(args.config)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _stage("mesh"):
        mesh = normalize_unit_sphere(load_mesh(cfg.mesh_path))
    with _stage("parameterization"):
        chart = embed_disk(mesh)
        mesh.uv = chart.uv
    with _stage("patching"):
        patchset = extract_patches(mesh, cfg.radius_frac, cfg.forbid_prob, cfg.patch_seed)
    with _stage("model"):
        params = build_model(cfg.arch, patchset, cfg.fit_seed, mesh=mesh)
    print(f"patches: {patchset.n_patches} (mean overlap {patchset.mean_overlap():.2f})")
    print(_param_table(params))

    def write_ckpt(iteration, p, opts, name=None):
        ck = ckpt_io.checkpoint_from_state(cfg.raw_text, iteration, mesh, chart, patchset, p, opts)
        ckpt_io.save_checkpoint(out_dir / (name or f"checkpoint_{iteration:08d}.ncs"), ck)

    with _stage("training"):
        result = fit(mesh, chart, patchset, params, cfg.schedule,
                     batch_size=cfg.batch_size, seed=cfg.fit_seed,
                     log_every=cfg.log_every, checkpoint_every=cfg.checkpoint_every,
                     checkpoint_cb=write_ckpt)

    log_path = out_dir / "training_log.csv"
    with open(log_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["iter", "lambda", "lr_coarse", "lr_fine",
                                                "loss", "loss_joint", "loss_reg", "wall_ms"])
        writer.writeheader()
        writer.writerows(result.log)
    final = out_dir / "model.ncs"
    write_ckpt(cfg.schedule.total_iters, params, (result.opt_coarse, result.opt_fine), name="model.ncs")
    print(f"final loss: {result.final_loss:.6e}" if np.isfinite(result.final_loss)
          else "final loss: n/a (0 iterations)")
    if result.dropped_samples:
        print(f"degenerate-frame samples dropped: {result.dropped_samples}")
    print(f"checkpoint: {final}")
    print(f"log: {log_path}")
    return 0


def cmd_reconstruct(args) -> int:
    if args.mode == "dense" and args.res < 2:
        raise ConfigError(f"--res must be at least 2, got {args.res}")
    _, state = _restore(args.checkpoint)
    with _stage("reconstruction"):
        if args.mode == "vertices":
            mesh, fallbacks = _reconstruct_vertices(state)
        else:
            mesh, fallbacks = _reconstruct_dense(state, args.res)
    export_mesh(mesh, args.out)
    if fallbacks:
        print(f"frame fallbacks: {fallbacks}")
    print(f"wrote {args.out} ({mesh.n_vertices} vertices, {mesh.n_faces} faces)")
    return 0


def cmd_eval(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    _, state = _restore(args.checkpoint)
    with _stage("mesh"):
        gt = normalize_unit_sphere(load_mesh(args.mesh))
    with _stage("evaluation"):
        recon, fallbacks = _reconstruct_vertices(state, coarse_only=args.coarse_only)
        cd = _chamfer_vs_mesh(recon, gt, args.samples)
    counts = state[3].param_counts()
    metrics = {
        "chamfer": cd,
        "chamfer_x1e3": cd * 1e3,
        "samples": args.samples,
        "coarse_only": bool(args.coarse_only),
        "frame_fallbacks": fallbacks,
        "parameters": counts,
    }
    print(f"chamfer (x1e3): {cd * 1e3:.6f}")
    print(f"parameters: {counts['total']}")
    print(json.dumps(metrics, sort_keys=True))
    if args.json:
        Path(args.json).write_text(json.dumps(metrics, sort_keys=True, indent=2), encoding="utf-8")
    return 0


def cmd_edit(args) -> int:
    if args.factor < 0:
        raise ConfigError(f"--factor must be >= 0, got {args.factor}")
    _, state = _restore(args.checkpoint)
    mesh, chart, patchset, params = state
    with _stage("edit"):
        edited = scale_details(params, args.factor)
        recon, fallbacks = _reconstruct_vertices((mesh, chart, patchset, edited))
    export_mesh(recon, args.out)
    if fallbacks:
        print(f"frame fallbacks: {fallbacks}")
    print(f"wrote {args.out} (detail factor {args.factor})")
    return 0


def cmd_transfer(args) -> int:
    ck_src, src_state = _restore(args.source)
    ck_dst, dst_state = _restore(args.target)
    fp_src, fp_dst = _chart_fingerprint(ck_src), _chart_fingerprint(ck_dst)
    if len(ck_src.patches) != len(ck_dst.patches) or fp_src != fp_dst:
        raise AlignmentError(
            "source and target are not aligned: "
            f"patches {len(ck_src.patches)} vs {len(ck_dst.patches)}, "
            f"chart hash {fp_src[:12]} vs {fp_dst[:12]}")
    with _stage("transfer"):
        hybrid = transfer_details(src_state[3], dst_state[3])
        mesh, chart, patchset, _ = dst_state
        recon, fallbacks = _reconstruct_vertices((mesh, chart, patchset, hybrid))
    export_mesh(recon, args.out)
    if fallbacks:
        print(f"frame fallbacks: {fallbacks}")
    print(f"wrote {args.out}")
    return 0


def cmd_patches(args) -> int:
    if ckpt_io.is_checkpoint(args.source):
        _, state = _restore(args.source)
        mesh, _, patchset, _ = state
    else:
        cfg = parse_config(args.source)
        with _stage("mesh"):
            mesh = normalize_unit_sphere(load_mesh(cfg.mesh_path))
        # patch diagnostics need no global chart, so closed meshes work here too
        with _stage("patching"):
            patchset = extract_patches(mesh, cfg.radius_frac, cfg.forbid_prob, cfg.patch_seed)
    rows = patch_rows(patchset)
    fieldnames = ["patch", "center", "vertices", "faces", "flips",
                  "max_scale_distortion", "max_conformal_distortion", "mean_overlap"]
    out = sys.stdout
    close = False
    if args.out:
        out = open(args.out, "w", newline="")
        close = True
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if close:
            out.close()
    hist = patchset.overlap_histogram()
    print(f"patches: {patchset.n_patches}", file=sys.stderr)
    print(f"mean overlap: {patchset.mean_overlap():.3f}", file=sys.stderr)
    print("overlap histogram (cover count: vertices): "
          + ", ".join(f"{k}: {v}" for k, v in sorted(hist.items())), file=sys.stderr)
    total_flips = sum(r["flips"] for r in rows)
    print(f"total flipped triangles: {total_flips}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ncs", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"ncs {__version__}")
    p.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("fit", help="fit a model from a config file")
    s.add_argument("config")
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("reconstruct", help="export the reconstructed surface as OBJ")
    s.add_argument("checkpoint")
    s.add_argument("--mode", choices=["vertices", "dense"], default="vertices")
    s.add_argument("--res", type=int, default=512, help="dense-grid resolution")
    s.add_argument("-o", "--out", default="reconstruction.obj")
    s.set_defaults(func=cmd_reconstruct)

    s = sub.add_parser("eval", help="Chamfer distance of the reconstruction vs a mesh")
    s.add_argument("checkpoint")
    s.add_argument("mesh")
    s.add_argument("--samples", type=int, default=_DEFAULT_EVAL_SAMPLES)
    s.add_argument("--coarse-only", action="store_true", help="evaluate the coarse branch alone")
    s.add_argument("--json", default=None, help="also write metrics JSON here")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("edit", help="reconstruct with scaled detail features")
    s.add_argument("checkpoint")
    s.add_argument("--factor", type=float, required=True)
    s.add_argument("-o", "--out", default="edited.obj")
    s.set_defaults(func=cmd_edit)

    s = sub.add_parser("transfer", help="target coarse branch + source fine branch")
    s.add_argument("source")
    s.add_argument("target")
    s.add_argument("-o", "--out", default="transfer.obj")
    s.set_defaults(func=cmd_transfer)

    s = sub.add_parser("patches", help="patch diagnostics CSV from a config or checkpoint")
    s.add_argument("source", help="config file or checkpoint")
    s.add_argument("-o", "--out", default=None)
    s.set_defaults(func=cmd_patches)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return int(args.func(args) or 0)
    except tuple(_EXITS) as e:
        code, prefix = next(v for t, v in _EXITS.items() if isinstance(e, t))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
