"""Versioned, checksummed binary checkpoints.

Layout: 8-byte magic, u32 version, u64 payload length, payload, u32 CRC32 of the
payload. The payload is a sequence of named records (one JSON metadata record plus
raw little-endian arrays), enough to rebuild the mesh, the charts, the patch set,
all model tensors, and the optimizer state bit-exactly.

Each part of the schema is written down once. Record dtype codes are indices into
`_DTYPES`; the per-patch records and their dtypes are `_PATCH_RECORDS`; tensor and
optimizer record names come from `ModelParams.named_tensors`; the arch metadata is
the fields of `ArchConfig`. `restore_state` builds a fresh model for the stored
arch and loads each stored tensor into it by name. Anything unreadable or
inconsistent (a malformed record or metadata, a patch record that does not index
into the mesh, a tensor or optimizer state that does not fit the stored arch)
raises `CheckpointError`. A save writes a sibling temporary file and renames it
over the target, so an interrupted save leaves the old file intact.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .geometry import TriMesh
from .model import ArchConfig, ModelParams, build_model
from .parameterization import DiskChart
from .patching import Patch, PatchSet

MAGIC = b"NCSCKPT\x00"
VERSION = 1

_DTYPES = ("<f4", "<f8", "<i4", "<i8")  # a record's dtype code is its index here
# the records stored per patch, in file order, with their dtypes
_PATCH_RECORDS = {"vertex_ids": "<i8", "faces": "<i4", "orig_face_ids": "<i8",
                  "uv": "<f8", "boundary": "<i8", "forbade": "<i8"}


def _write_record(buf: io.BytesIO, name: str, arr: np.ndarray) -> None:
    dtype = arr.dtype.newbyteorder("<")
    if dtype.str not in _DTYPES:
        raise CheckpointError(f"unsupported dtype {arr.dtype} for record {name}")
    nb = name.encode("utf-8")
    raw = np.ascontiguousarray(arr).astype(dtype, copy=False).tobytes()
    buf.write(struct.pack("<H", len(nb)))
    buf.write(nb)
    buf.write(struct.pack(f"<BB{arr.ndim}IQ", _DTYPES.index(dtype.str), arr.ndim, *arr.shape,
                          len(raw)))
    buf.write(raw)


def _read_record(view: memoryview, pos: int) -> tuple[str, np.ndarray, int]:
    (nlen,) = struct.unpack_from("<H", view, pos)
    pos += 2
    name = bytes(view[pos:pos + nlen]).decode("utf-8")
    pos += nlen
    code, ndim = struct.unpack_from("<BB", view, pos)
    pos += 2
    *shape, nbytes = struct.unpack_from(f"<{ndim}IQ", view, pos)
    pos += 4 * ndim + 8
    if code >= len(_DTYPES):
        raise CheckpointError(f"record {name}: unknown dtype code {code}")
    dtype = np.dtype(_DTYPES[code])
    if nbytes != math.prod(shape) * dtype.itemsize:
        raise CheckpointError(f"record {name}: {nbytes} bytes do not hold a {dtype.str} array "
                              f"of shape {tuple(shape)}")
    if pos + nbytes > len(view):
        raise CheckpointError("truncated checkpoint record")
    arr = np.frombuffer(view[pos:pos + nbytes], dtype=dtype).reshape(shape)
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
    patches: list[dict]  # "center" plus one array per _PATCH_RECORDS key
    arch: dict  # the ArchConfig fields
    tensors: dict[str, np.ndarray]  # by ModelParams.named_tensors name
    opt_state: dict[str, np.ndarray]  # RMSProp state, by the same names
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
        for key, dtype in _PATCH_RECORDS.items():
            _write_record(buf, f"patch{i}.{key}", np.asarray(p[key], dtype))
    for name in sorted(ckpt.tensors):
        _write_record(buf, f"tensor.{name}", ckpt.tensors[name].astype("<f4"))
    for name in sorted(ckpt.opt_state):
        _write_record(buf, f"opt.{name}", ckpt.opt_state[name].astype("<f4"))
    if ckpt.pca_frames is not None:
        _write_record(buf, "pca_frames", ckpt.pca_frames.astype("<f4"))
    payload = buf.getvalue()
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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

    try:
        view = memoryview(payload)
        (mlen,) = struct.unpack_from("<I", view, 0)
        meta = json.loads(bytes(view[4:4 + mlen]).decode("utf-8"))
        p = 4 + mlen
        records: dict[str, np.ndarray] = {}
        while p < len(view):
            name, arr, p = _read_record(view, p)
            records[name] = arr
        if not (isinstance(meta["arch"], dict) and isinstance(meta["patch_meta"], dict)):
            raise TypeError("arch and patch_meta must be JSON objects")

        patches = [{"center": meta["patch_centers"][i],
                    **{key: records[f"patch{i}.{key}"] for key in _PATCH_RECORDS}}
                   for i in range(meta["n_patches"])]
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
    except (struct.error, LookupError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint ({type(e).__name__}: {e})") from e


# ---------------------------------------------------------------------------
# model <-> checkpoint conversion
# ---------------------------------------------------------------------------

def checkpoint_from_state(config_text: str, iteration: int, mesh: TriMesh,
                          global_chart: DiskChart, patchset: PatchSet,
                          params: ModelParams, opts=None) -> Checkpoint:
    patches = [{"center": p.center, "vertex_ids": p.vertex_ids, "faces": p.chart.faces,
                "orig_face_ids": p.chart.orig_face_ids, "uv": p.chart.uv,
                "boundary": p.chart.boundary, "forbade": p.forbade}
               for p in patchset.patches]
    named = params.named_tensors()
    opt_state = {}
    if opts is not None:
        opt_c, opt_f = opts
        opt_state = dict(zip(named, opt_c.state + opt_f.state, strict=True))
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
        arch=dataclasses.asdict(params.config),
        tensors={name: t.data for name, t in named.items()},
        opt_state=opt_state,
        pca_frames=params.pca_frames,
    )


def _check_records(prefix: str, records: dict, table) -> None:
    """CheckpointError unless every row (key, shape, bound, increasing) of table holds
    for records[key]: that shape, integer entries in [0, bound) unless bound is None,
    and strictly increasing entries where asked. The error names the record as
    `{prefix}.{key}`, its name in the checkpoint file."""
    for key, shape, bound, increasing in table:
        a = records[key]
        ok = a.shape == shape and (bound is None or a.dtype.kind == "i" and (
            a.size == 0 or 0 <= a.min() <= a.max() < bound))
        if not ok or increasing and not (np.diff(a) > 0).all():
            raise CheckpointError(f"{prefix}.{key} record does not fit the mesh or its chart")


def _check_patch_record(i: int, pd: dict, n_vertices: int, n_faces: int) -> None:
    """CheckpointError unless patch record i indexes consistently, as the patch set's
    covers and face pair table assume: parent vertex and face ids strictly increasing
    and in range, one face id per chart face, chart faces and boundary within the
    patch's vertices, and one uv row per vertex."""
    n, nf = pd["vertex_ids"].size, pd["faces"].size // 3
    _check_records(f"patch{i}", pd, [("vertex_ids", (n,), n_vertices, True),
                                     ("faces", (nf, 3), n, False),
                                     ("orig_face_ids", (nf,), n_faces, True),
                                     ("boundary", (pd["boundary"].size,), n, False),
                                     ("uv", (n, 2), None, False)])


def restore_state(ckpt: Checkpoint):
    """Rebuild (mesh, global_chart, patchset, params) from a loaded checkpoint.

    The model is built fresh for the stored arch and takes each stored tensor by
    name; a tensor set, tensor shape, non-empty optimizer state set or shape, or pca
    frame set that does not fit that arch raises CheckpointError, as does a patch
    record that does not index into the mesh and its own vertices, or a global uv
    record without one row per mesh vertex or boundary record outside the mesh."""
    mesh = TriMesh(ckpt.mesh_vertices, ckpt.mesh_faces)
    _check_records("global", {"uv": ckpt.global_uv, "boundary": ckpt.global_boundary},
                   [("uv", (mesh.n_vertices, 2), None, False),
                    ("boundary", (ckpt.global_boundary.size,), mesh.n_vertices, False)])
    global_chart = DiskChart(mesh.vertices, mesh.faces, ckpt.global_uv, ckpt.global_boundary)

    patches = []
    for i, pd in enumerate(ckpt.patches):
        _check_patch_record(i, pd, mesh.n_vertices, mesh.n_faces)
        chart = DiskChart(mesh.vertices[pd["vertex_ids"]], pd["faces"], pd["uv"], pd["boundary"],
                          orig_vertex_ids=pd["vertex_ids"], orig_face_ids=pd["orig_face_ids"])
        patches.append(Patch(index=i, center=pd["center"], vertex_ids=pd["vertex_ids"],
                             chart=chart, forbade=pd["forbade"]))
    pm = ckpt.patch_meta
    patchset = PatchSet(
        patches=patches, radius_frac=pm["radius_frac"], forbid_prob=pm["forbid_prob"],
        radius=pm["radius"], seed=pm["seed"], n_vertices=mesh.n_vertices, n_faces=mesh.n_faces,
    )

    arch = {k: tuple(v) if isinstance(v, list) else v for k, v in ckpt.arch.items()}
    try:
        config = ArchConfig(**arch)
        params = build_model(config, patchset, mesh=mesh)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"arch metadata {ckpt.arch} does not build a model: {e}") from e
    if dataclasses.asdict(config) != arch:
        raise CheckpointError(f"arch metadata {ckpt.arch} lacks some ArchConfig fields")
    named = params.named_tensors()
    checks = [("tensor", ckpt.tensors)]
    if ckpt.opt_state:  # a save without optimizers stores no optimizer state at all
        checks.append(("optimizer state", ckpt.opt_state))
    for kind, stored in checks:
        if sorted(stored) != sorted(named):
            raise CheckpointError(f"stored {kind} names {sorted(stored)} do not match the "
                                  f"stored arch's {sorted(named)}")
        for name, t in named.items():
            if stored[name].shape != t.shape:
                raise CheckpointError(f"{kind} {name} has shape {stored[name].shape}, the "
                                      f"stored arch needs {t.shape}")
    for name, t in named.items():
        t.data = ckpt.tensors[name]
    shape = None if ckpt.pca_frames is None else ckpt.pca_frames.shape
    want = (patchset.n_patches, 3, 3) if config.mode == "pca" else None
    if shape != want:
        raise CheckpointError(f"pca_frames of shape {shape} do not fit a {config.mode}-mode "
                              f"model (need {want})")
    params.pca_frames = ckpt.pca_frames
    return mesh, global_chart, patchset, params
