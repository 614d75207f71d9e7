import io
import json
import struct
import zlib

import numpy as np
import pytest

from ncs import geometry, parameterization as par, patching, synth
from ncs import checkpoint as ck, model as mo, training as tr


def manual_patchset(mesh, vertex_masks):
    """PatchSet built from explicit vertex masks (full control for unit tests)."""
    patches = []
    for idx, mask in enumerate(vertex_masks):
        vids = np.flatnonzero(mask)
        fids = np.flatnonzero(mask[mesh.faces].all(axis=1))
        remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
        remap[vids] = np.arange(len(vids))
        local = remap[mesh.faces[fids]]
        chart = par.embed_disk(mesh.vertices[vids], local, orig_vertex_ids=vids, orig_face_ids=fids)
        patches.append(patching.Patch(index=idx, center=int(vids[0]), vertex_ids=vids,
                                      chart=chart, forbade=np.array([], dtype=np.int64)))
    return patching.PatchSet(
        patches=patches, radius_frac=0.5, forbid_prob=0.0, radius=1.0, seed=0,
        n_vertices=mesh.n_vertices, n_faces=mesh.n_faces,
    )


def cover_of(cover, k):
    """The patch ids that a CSR cover (indptr, ids) lists for element k."""
    indptr, ids = cover
    return ids[indptr[k]:indptr[k + 1]]


def interior_system(chart):
    """`parameterization._solve_interior`'s arguments for the system behind a
    chart's interior uv, with the chart's own boundary uv."""
    n = chart.n_vertices
    w = par._mean_value_weights(chart.points3d, chart.faces.astype(np.int64), n)
    interior = np.setdiff1d(np.arange(n), chart.boundary)
    return w, interior, chart.uv[chart.boundary], chart.boundary, n


def dense_interior_uv(chart):
    """(interior vertex ids, their uv) from a dense float64 solve of the chart's
    convex-combination system."""
    w, interior, boundary_uv, boundary, _ = interior_system(chart)
    w = w.toarray()
    a = np.diag(w[interior].sum(axis=1)) - w[np.ix_(interior, interior)]
    return interior, np.linalg.solve(a, w[np.ix_(interior, boundary)] @ boundary_uv)


def split_checkpoint(blob: bytes):
    """(metadata dict, list of raw record bytes) of a checkpoint file's bytes."""
    payload = blob[len(ck.MAGIC) + 12:-4]  # after magic, version and length; before the CRC
    (mlen,) = struct.unpack_from("<I", payload, 0)
    meta = json.loads(payload[4:4 + mlen])
    records, pos = [], 4 + mlen
    while pos < len(payload):
        (nlen,) = struct.unpack_from("<H", payload, pos)
        ndim = payload[pos + 2 + nlen + 1]
        dims = pos + 2 + nlen + 2
        (nbytes,) = struct.unpack_from("<Q", payload, dims + 4 * ndim)
        end = dims + 4 * ndim + 8 + nbytes
        records.append(payload[pos:end])
        pos = end
    return meta, records


def pack_checkpoint(meta, records) -> bytes:
    """Checkpoint file bytes with a valid header and CRC around the given metadata
    (a dict, or raw bytes) and raw records, so edits get past the checksum."""
    mb = meta if isinstance(meta, bytes) else json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = struct.pack("<I", len(mb)) + mb + b"".join(records)
    return (ck.MAGIC + struct.pack("<IQ", ck.VERSION, len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload)))


# ways to break one record that restore_state must reject: kind -> (record name, and
# the record whose length bounds its entries, or None); "{}" stands for the patch index
RECORD_EDITS = {
    "vertex_id_range": ("patch{}.vertex_ids", "mesh.vertices"),
    "vertex_id_repeat": ("patch{}.vertex_ids", None),
    "face_corner_range": ("patch{}.faces", "patch{}.vertex_ids"),
    "boundary_range": ("patch{}.boundary", "patch{}.vertex_ids"),
    "uv_short": ("patch{}.uv", None),
    "orig_face_range": ("patch{}.orig_face_ids", "mesh.faces"),
    "orig_face_repeat": ("patch{}.orig_face_ids", None),
    "orig_face_short": ("patch{}.orig_face_ids", None),
    "global_uv_short": ("global.uv", None),
    "global_boundary_range": ("global.boundary", "mesh.vertices"),
}
PATCH_RECORD_EDITS = [k for k, (name, _) in RECORD_EDITS.items() if name.startswith("patch")]
GLOBAL_RECORD_EDITS = [k for k in RECORD_EDITS if k not in PATCH_RECORD_EDITS]


def break_record(records, kind, patch, pick):
    """The raw records with one record (of patch `patch`, for a patch record) broken as
    `kind` (a key of RECORD_EDITS) says: an entry set out of range (below 0 or at least
    the bound), an entry repeating the one before it, or the last row dropped.
    pick(lo, hi) returns an int in [lo, hi] and makes every choice."""
    arrays = [ck._read_record(memoryview(r), 0)[:2] for r in records]
    names = [name for name, _ in arrays]
    name, bound = (n and n.format(patch) for n in RECORD_EDITS[kind])
    a = arrays[names.index(name)][1]
    flat = a.reshape(-1)
    k = pick(0, len(flat) - 1)
    if kind.endswith("_range"):
        flat[k] = -pick(1, 3) if pick(0, 1) else len(arrays[names.index(bound)][1]) + pick(0, 3)
    elif kind.endswith("_repeat"):
        flat[max(k, 1)] = flat[max(k, 1) - 1]
    else:
        a = a[:-1]
    buf = io.BytesIO()
    ck._write_record(buf, name, a)
    return [buf.getvalue() if n == name else r for n, r in zip(names, records)]


@pytest.fixture(scope="session")
def bumpy16():
    """Small normalized bumpy plane with chart, patches, and train context."""
    mesh = geometry.normalize_unit_sphere(synth.bumpy_plane(16, amplitude=0.08, freq=6.0))
    chart = par.embed_disk(mesh)
    patchset = patching.extract_patches(mesh, 0.4, 0.5, seed=1)
    ctx = tr.build_context(mesh, chart, patchset)
    return mesh, chart, patchset, ctx


@pytest.fixture(scope="session")
def small_arch():
    return mo.ArchConfig(coarse_widths=(16, 16), code_shape=(4, 2, 2), cnn_channels=4,
                         cnn_blocks=2, fine_widths=(8, 8))


@pytest.fixture(scope="session")
def fitted_small(bumpy16, small_arch):
    """A briefly but properly fitted small model (shared across tests)."""
    mesh, chart, patchset, ctx = bumpy16
    params = mo.build_model(small_arch, patchset, seed=0)
    sched = tr.TrainSchedule(warmup_iters=300, total_iters=1200, base_lr=1e-4)
    tr.fit(mesh, chart, patchset, params, sched, batch_size=512, seed=7, log_every=0)
    return params


@pytest.fixture(scope="session")
def two_strip():
    """Flat plane split into two overlapping vertical strips (exact blend control)."""
    n = 9
    mesh = geometry.normalize_unit_sphere(synth.plane(n))
    col = np.arange(mesh.n_vertices) // n  # x-index of each grid vertex
    patchset = manual_patchset(mesh, [col <= 5, col >= 3])
    chart = par.embed_disk(mesh)
    return mesh, chart, patchset, n
