import numpy as np
import pytest

from ncs import geometry, parameterization as par, patching, synth
from ncs import model as mo, training as tr


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


@pytest.fixture(scope="session")
def bumpy16():
    """Small normalized bumpy plane with chart, patches, and train context."""
    mesh = geometry.normalize_unit_sphere(synth.bumpy_plane(16, amplitude=0.08, freq=6.0))
    chart = par.embed_disk(mesh)
    mesh.uv = chart.uv
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
    tr.fit(mesh, chart, patchset, params, sched, batch_size=512, seed=7, log_every=0, ctx=ctx)
    return params


@pytest.fixture(scope="session")
def two_strip():
    """Flat plane split into two overlapping vertical strips (exact blend control)."""
    n = 9
    mesh = geometry.normalize_unit_sphere(synth.plane(n))
    col = np.arange(mesh.n_vertices) // n  # x-index of each grid vertex
    patchset = manual_patchset(mesh, [col <= 5, col >= 3])
    chart = par.embed_disk(mesh)
    mesh.uv = chart.uv
    return mesh, chart, patchset, n
