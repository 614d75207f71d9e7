"""Command-line pipeline: fit, reconstruct, eval, edit, transfer, patches.

Exit codes: 0 ok, 2 config/input error (including a missing or unwritable file, a
malformed checkpoint and an NCS_WORKERS that is not an integer >= 1), 3 topology
error, 4 numeric error.
NCS_WORKERS (unset or empty: 1) fans evaluation-time point queries out over threads:
model evaluation in fixed chunks of samples, each building its own blend pairs, and
the Chamfer nearest-neighbour searches, where each distance is found alone; so
results do not depend on the worker count. No pair array spans more than one chunk,
so a dense reconstruct holds little beyond its output mesh at any resolution.
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
from .training import fit, vertex_samples

log = logging.getLogger("ncs")

_EVAL_CHUNK = 8192
_DEFAULT_EVAL_SAMPLES = 100_000
_EVAL_SEED = 12345


def _workers() -> int:
    """The NCS_WORKERS thread count; unset or empty means 1."""
    text = os.environ.get("NCS_WORKERS", "")
    if not text:
        return 1
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise ConfigError(f"NCS_WORKERS must be an integer >= 1, got {text!r}")
    return int(text)


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


def _eval_positions(params, q, faces, bary, patchset, workers=1, coarse_only=False):
    """Model positions (N, 3) of samples given as chart points q (N, 2) and rows of
    (parent face, barycentric weights), in fixed chunks over `workers` threads. Each
    chunk builds its own blend pairs, so no pair array covers more than one chunk.
    Raises NumericError if any position is not finite."""
    n = len(q)
    positions = np.empty((n, 3))
    grids = None if coarse_only else decode_grids(params)

    def run(s):
        e = min(s + _EVAL_CHUNK, n)
        pair_sample, pair_patch, pair_uv, pair_w = face_pairs(patchset, faces[s:e], bary[s:e])
        out, info = evaluate_batch(params, q[s:e], pair_sample, pair_patch, pair_uv, pair_w,
                                   coarse_only=coarse_only, grids=grids, degenerate="fallback")
        positions[s:e] = out.data
        return info["frame_fallbacks"]

    starts = range(0, n, _EVAL_CHUNK)
    if workers == 1 or len(starts) == 1:
        fallbacks = sum(map(run, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            fallbacks = sum(ex.map(run, starts))
    # every command exports or measures these positions: none may be nan or inf
    bad = np.count_nonzero(~np.isfinite(positions).all(axis=1))
    if bad:
        raise NumericError(f"{bad} of {n} model positions are not finite")
    return positions, fallbacks


def _reconstruct_vertices(state, workers=1, coarse_only=False):
    mesh, chart, patchset, params = state
    faces, bary = vertex_samples(mesh)
    q = np.einsum("nk,nkd->nd", bary, chart.uv[mesh.faces[faces]])
    positions, fallbacks = _eval_positions(params, q, faces, bary, patchset, workers, coarse_only)
    return TriMesh(positions, mesh.faces.copy()), fallbacks


def _reconstruct_dense(state, res: int, workers=1):
    _, chart, patchset, params = state
    xs = np.linspace(-1.0, 1.0, res)
    # grid point k = ix * res + iy sits at (xs[ix], xs[iy]); the grid is located a
    # chunk of ids at a time, and only the points inside the chart are kept
    inside = np.empty(res * res, dtype=bool)
    kept = []
    for s in range(0, res * res, _EVAL_CHUNK):
        k = np.arange(s, min(s + _EVAL_CHUNK, res * res))
        qc = np.stack([xs[k // res], xs[k % res]], axis=1)
        tri, bary = chart.locate_many(qc)
        hit = inside[s:s + len(k)] = tri >= 0
        kept.append((qc[hit].astype(np.float32), tri[hit], bary[hit]))
    if not inside.any():
        raise NumericError("dense grid found no points inside the chart image")
    q, faces, bary = (np.concatenate(a) for a in zip(*kept))
    del kept
    # the global chart's faces are the mesh's, so its triangle ids are parent faces
    positions, fallbacks = _eval_positions(params, q, faces, bary, patchset, workers)
    del q, faces, bary

    # two triangles per grid cell with all four corners inside, cells in (iy, ix) order
    index = np.cumsum(inside, dtype=np.int32)
    index -= 1
    index = index.reshape(res, res).T  # [iy, ix]
    c00, c10, c01, c11 = index[:-1, :-1], index[:-1, 1:], index[1:, :-1], index[1:, 1:]
    ins = inside.reshape(res, res).T
    full = ins[:-1, :-1] & ins[:-1, 1:] & ins[1:, :-1] & ins[1:, 1:]
    tris = np.empty((np.count_nonzero(full), 2, 3), dtype=np.int32)
    if not len(tris):
        raise NumericError("dense grid resolution too small to triangulate the chart")
    tris[:, 0, 0] = tris[:, 1, 0] = c00[full]
    tris[:, 0, 1] = c10[full]
    tris[:, 0, 2] = tris[:, 1, 1] = c11[full]
    tris[:, 1, 2] = c01[full]
    return TriMesh(positions, tris.reshape(-1, 3)), fallbacks


def _chamfer_vs_mesh(recon: TriMesh, gt: TriMesh, n_samples: int, workers=1) -> float:
    # same seed on both sides: evaluating a mesh against itself gives exactly 0
    a, _, _ = sample_surface_arrays(recon, n_samples, _EVAL_SEED)
    b, _, _ = sample_surface_arrays(gt, n_samples, _EVAL_SEED)
    return chamfer_distance(a, b, workers=workers)


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
    workers = _workers()
    _, state = _restore(args.checkpoint)
    with _stage("reconstruction"):
        if args.mode == "vertices":
            mesh, fallbacks = _reconstruct_vertices(state, workers)
        else:
            mesh, fallbacks = _reconstruct_dense(state, args.res, workers)
    export_mesh(mesh, args.out)
    if fallbacks:
        print(f"frame fallbacks: {fallbacks}")
    print(f"wrote {args.out} ({mesh.n_vertices} vertices, {mesh.n_faces} faces)")
    return 0


def cmd_eval(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    workers = _workers()
    _, state = _restore(args.checkpoint)
    with _stage("mesh"):
        gt = normalize_unit_sphere(load_mesh(args.mesh))
    with _stage("evaluation"):
        recon, fallbacks = _reconstruct_vertices(state, workers, coarse_only=args.coarse_only)
        cd = _chamfer_vs_mesh(recon, gt, args.samples, workers)
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
    with np.errstate(over="ignore"):
        factor32 = np.float32(args.factor)  # the precision the model scales its features in
    if not (np.isfinite(factor32) and args.factor >= 0):
        raise ConfigError(f"--factor must be >= 0 and finite in float32, got {args.factor}")
    workers = _workers()
    _, state = _restore(args.checkpoint)
    mesh, chart, patchset, params = state
    with _stage("edit"):
        edited = scale_details(params, args.factor)
        recon, fallbacks = _reconstruct_vertices((mesh, chart, patchset, edited), workers)
    export_mesh(recon, args.out)
    if fallbacks:
        print(f"frame fallbacks: {fallbacks}")
    print(f"wrote {args.out} (detail factor {args.factor})")
    return 0


def cmd_transfer(args) -> int:
    workers = _workers()
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
        recon, fallbacks = _reconstruct_vertices((mesh, chart, patchset, hybrid), workers)
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
