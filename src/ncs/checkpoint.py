"""Versioned, checksummed binary checkpoints.

Layout: 8-byte magic, u32 version, u64 payload length, payload, u32 CRC32 of the
payload. The payload is a sequence of named records (one JSON metadata record plus
raw little-endian arrays), enough to rebuild the mesh, the charts, the patch set,
all model tensors, and the optimizer state bit-exactly.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import CheckpointError
from .geometry import TriMesh
from .model import ArchConfig, ModelParams
from .parameterization import DiskChart
from .patching import Patch, PatchSet

MAGIC = b"NCSCKPT\x00"
VERSION = 1

_DTYPES = {"<f4": 0, "<f8": 1, "<i4": 2, "<i8": 3}
_DTYPES_REV = {v: k for k, v in _DTYPES.items()}


def _write_record(buf: io.BytesIO, name: str, arr: np.ndarray) -> None:
    code = _DTYPES.get(arr.dtype.newbyteorder("<").str)
    if code is None:
        raise CheckpointError(f"unsupported dtype {arr.dtype} for record {name}")
    nb = name.encode("utf-8")
    raw = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    buf.write(struct.pack("<H", len(nb)))
    buf.write(nb)
    buf.write(struct.pack("<BB", code, arr.ndim))
    for d in arr.shape:
        buf.write(struct.pack("<I", d))
    buf.write(struct.pack("<Q", len(raw)))
    buf.write(raw)


def _read_record(view: memoryview, pos: int) -> tuple[str, np.ndarray, int]:
    (nlen,) = struct.unpack_from("<H", view, pos)
    pos += 2
    name = bytes(view[pos:pos + nlen]).decode("utf-8")
    pos += nlen
    code, ndim = struct.unpack_from("<BB", view, pos)
    pos += 2
    shape = []
    for _ in range(ndim):
        (d,) = struct.unpack_from("<I", view, pos)
        shape.append(d)
        pos += 4
    (nbytes,) = struct.unpack_from("<Q", view, pos)
    pos += 8
    if pos + nbytes > len(view):
        raise CheckpointError("truncated checkpoint record")
    arr = np.frombuffer(view[pos:pos + nbytes], dtype=_DTYPES_REV[code]).reshape(shape)
    return name, arr.copy(), pos + nbytes


@dataclass
class Checkpoint:
    config_text: str
    iteration: int
    mesh_vertices: np.ndarray
    mesh_faces: np.ndarray
    global_uv: np.ndarray
    global_boundary: np.ndarray
    patch_meta: dict  # radius_frac, forbid_prob, radius, seed
    patches: list[dict]  # center, vertex_ids, faces, orig_face_ids, uv, boundary, forbade
    arch: dict
    tensors: dict[str, np.ndarray]
    opt_state: dict[str, np.ndarray]
    pca_frames: np.ndarray | None = None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    meta = {
        "config_text": ckpt.config_text,
        "iteration": int(ckpt.iteration),
        "n_patches": len(ckpt.patches),
        "patch_meta": ckpt.patch_meta,
        "patch_centers": [int(p["center"]) for p in ckpt.patches],
        "arch": ckpt.arch,
        "tensor_names": sorted(ckpt.tensors),
        "opt_names": sorted(ckpt.opt_state),
        "has_pca": ckpt.pca_frames is not None,
    }
    buf = io.BytesIO()
    mb = json.dumps(meta, sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<I", len(mb)))
    buf.write(mb)
    _write_record(buf, "mesh.vertices", ckpt.mesh_vertices.astype("<f8"))
    _write_record(buf, "mesh.faces", ckpt.mesh_faces.astype("<i4"))
    _write_record(buf, "global.uv", ckpt.global_uv.astype("<f8"))
    _write_record(buf, "global.boundary", ckpt.global_boundary.astype("<i8"))
    for i, p in enumerate(ckpt.patches):
        _write_record(buf, f"patch{i}.vertex_ids", np.asarray(p["vertex_ids"], "<i8"))
        _write_record(buf, f"patch{i}.faces", np.asarray(p["faces"], "<i4"))
        _write_record(buf, f"patch{i}.orig_face_ids", np.asarray(p["orig_face_ids"], "<i8"))
        _write_record(buf, f"patch{i}.uv", np.asarray(p["uv"], "<f8"))
        _write_record(buf, f"patch{i}.boundary", np.asarray(p["boundary"], "<i8"))
        _write_record(buf, f"patch{i}.forbade", np.asarray(p["forbade"], "<i8"))
    for name in sorted(ckpt.tensors):
        _write_record(buf, f"tensor.{name}", ckpt.tensors[name].astype("<f4"))
    for name in sorted(ckpt.opt_state):
        _write_record(buf, f"opt.{name}", ckpt.opt_state[name].astype("<f4"))
    if ckpt.pca_frames is not None:
        _write_record(buf, "pca_frames", ckpt.pca_frames.astype("<f4"))
    payload = buf.getvalue()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def is_checkpoint(path) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 16 or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if version != VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version} is not supported (expected {VERSION})")
    (plen,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    if len(blob) < pos + plen + 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    payload = blob[pos:pos + plen]
    (crc,) = struct.unpack_from("<I", blob, pos + plen)
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{path}: checksum failure (corrupted checkpoint)")

    view = memoryview(payload)
    (mlen,) = struct.unpack_from("<I", view, 0)
    meta = json.loads(bytes(view[4:4 + mlen]).decode("utf-8"))
    p = 4 + mlen
    records: dict[str, np.ndarray] = {}
    while p < len(view):
        name, arr, p = _read_record(view, p)
        records[name] = arr

    patches = []
    for i in range(meta["n_patches"]):
        patches.append({
            "center": meta["patch_centers"][i],
            "vertex_ids": records[f"patch{i}.vertex_ids"],
            "faces": records[f"patch{i}.faces"],
            "orig_face_ids": records[f"patch{i}.orig_face_ids"],
            "uv": records[f"patch{i}.uv"],
            "boundary": records[f"patch{i}.boundary"],
            "forbade": records[f"patch{i}.forbade"],
        })
    return Checkpoint(
        config_text=meta["config_text"],
        iteration=meta["iteration"],
        mesh_vertices=records["mesh.vertices"],
        mesh_faces=records["mesh.faces"],
        global_uv=records["global.uv"],
        global_boundary=records["global.boundary"],
        patch_meta=meta["patch_meta"],
        patches=patches,
        arch=meta["arch"],
        tensors={n[len("tensor."):]: a for n, a in records.items() if n.startswith("tensor.")},
        opt_state={n[len("opt."):]: a for n, a in records.items() if n.startswith("opt.")},
        pca_frames=records.get("pca_frames"),
    )


# ---------------------------------------------------------------------------
# model <-> checkpoint conversion
# ---------------------------------------------------------------------------

def _tensor_table(params: ModelParams) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {"codes": params.codes.data}
    for i, (w, b) in enumerate(params.coarse):
        out[f"coarse{i}.w"] = w.data
        out[f"coarse{i}.b"] = b.data
    for i, (k1, b1, k2, b2) in enumerate(params.cnn):
        out[f"cnn{i}.k1"] = k1.data
        out[f"cnn{i}.b1"] = b1.data
        out[f"cnn{i}.k2"] = k2.data
        out[f"cnn{i}.b2"] = b2.data
    for i, (w, b) in enumerate(params.fine):
        out[f"fine{i}.w"] = w.data
        out[f"fine{i}.b"] = b.data
    return out


def _opt_table(params: ModelParams, opts) -> dict[str, np.ndarray]:
    if opts is None:
        return {}
    opt_c, opt_f = opts
    names: dict[int, str] = {}
    for name, arr in _tensor_table(params).items():
        names[id(arr)] = name
    out = {}
    for opt in (opt_c, opt_f):
        for t, v in zip(opt.tensors, opt.state):
            out[names[id(t.data)]] = v
    return out


def checkpoint_from_state(config_text: str, iteration: int, mesh: TriMesh,
                          global_chart: DiskChart, patchset: PatchSet,
                          params: ModelParams, opts=None) -> Checkpoint:
    patches = []
    for p in patchset.patches:
        patches.append({
            "center": p.center,
            "vertex_ids": p.vertex_ids,
            "faces": p.chart.faces,
            "orig_face_ids": p.chart.orig_face_ids,
            "uv": p.chart.uv,
            "boundary": p.chart.boundary,
            "forbade": p.forbade,
        })
    arch = {
        "coarse_widths": list(params.config.coarse_widths),
        "code_shape": list(params.config.code_shape),
        "cnn_channels": params.config.cnn_channels,
        "cnn_blocks": params.config.cnn_blocks,
        "fine_widths": list(params.config.fine_widths),
        "mode": params.config.mode,
    }
    return Checkpoint(
        config_text=config_text,
        iteration=iteration,
        mesh_vertices=mesh.vertices,
        mesh_faces=mesh.faces,
        global_uv=global_chart.uv,
        global_boundary=global_chart.boundary,
        patch_meta={
            "radius_frac": patchset.radius_frac,
            "forbid_prob": patchset.forbid_prob,
            "radius": patchset.radius,
            "seed": patchset.seed,
        },
        patches=patches,
        arch=arch,
        tensors=_tensor_table(params),
        opt_state=_opt_table(params, opts),
        pca_frames=params.pca_frames,
    )


def restore_state(ckpt: Checkpoint):
    """Rebuild (mesh, global_chart, patchset, params) from a loaded checkpoint."""
    mesh = TriMesh(ckpt.mesh_vertices, ckpt.mesh_faces, uv=ckpt.global_uv.copy())
    global_chart = DiskChart(mesh.vertices, mesh.faces, ckpt.global_uv, ckpt.global_boundary)

    patches = []
    for i, pd in enumerate(ckpt.patches):
        chart = DiskChart(mesh.vertices[pd["vertex_ids"]], pd["faces"], pd["uv"], pd["boundary"],
                          orig_vertex_ids=pd["vertex_ids"], orig_face_ids=pd["orig_face_ids"])
        patches.append(Patch(index=i, center=pd["center"], vertex_ids=pd["vertex_ids"],
                             chart=chart, forbade=pd["forbade"]))
    pm = ckpt.patch_meta
    patchset = PatchSet(
        patches=patches, radius_frac=pm["radius_frac"], forbid_prob=pm["forbid_prob"],
        radius=pm["radius"], seed=pm["seed"], n_vertices=mesh.n_vertices, n_faces=mesh.n_faces,
    )

    a = ckpt.arch
    config = ArchConfig(
        coarse_widths=tuple(a["coarse_widths"]), code_shape=tuple(a["code_shape"]),
        cnn_channels=a["cnn_channels"], cnn_blocks=a["cnn_blocks"],
        fine_widths=tuple(a["fine_widths"]), mode=a["mode"],
    )
    t = ckpt.tensors
    coarse = [(ad.param(t[f"coarse{i}.w"]), ad.param(t[f"coarse{i}.b"]))
              for i in range(len(config.coarse_widths) + 1)]
    cnn = [(ad.param(t[f"cnn{i}.k1"]), ad.param(t[f"cnn{i}.b1"]),
            ad.param(t[f"cnn{i}.k2"]), ad.param(t[f"cnn{i}.b2"]))
           for i in range(config.cnn_blocks)]
    fine = [(ad.param(t[f"fine{i}.w"]), ad.param(t[f"fine{i}.b"]))
            for i in range(len(config.fine_widths) + 1)]
    params = ModelParams(config, coarse, ad.param(t["codes"]), cnn, fine,
                         pca_frames=ckpt.pca_frames)
    return mesh, global_chart, patchset, params
