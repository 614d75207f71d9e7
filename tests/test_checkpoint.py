import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GLOBAL_RECORD_EDITS, RECORD_EDITS, break_record, pack_checkpoint, split_checkpoint
from ncs import autodiff as ad
from ncs import checkpoint as ck
from ncs import model as mo
from ncs import training as tr
from ncs.errors import CheckpointError

# frozen: sha256 of the checkpoint that `_tiny_checkpoint` saves, recorded before the
# shifted-GEMM conv3x3 and unchanged by it; any drift in the version-1 format, record
# order or names fails. Re-recorded when the chart solve became one sparse LU: only
# the global.uv and patch*.uv records changed, by rounding
FROZEN_DIGESTS = {
    "vector": "72ff03bb9b762750c931fd2fe424913c28037f0f1bc04aa14d7a5e81964c357f",
    "pca": "2a31e1161d5e376a0ef156326ac889fcf0658194f973819602b678c23b42f5a8",
}


def _tiny_checkpoint(bumpy16, small_arch, mode):
    """Checkpoint of a seeded model with seeded optimizer state, deterministic per mode.

    Built without `fit`, so the digest pins the file format and not the rounding of
    training arithmetic; the two RMSProp groups are the ones `fit` builds."""
    mesh, chart, patchset, _ = bumpy16
    params = mo.build_model(dataclasses.replace(small_arch, mode=mode), patchset, seed=2, mesh=mesh)
    opts = (ad.RMSProp(params.coarse_tensors()), ad.RMSProp(params.fine_tensors()))
    rng = np.random.default_rng(3)
    for opt in opts:
        for v in opt.state:
            v[...] = rng.random(v.shape)
    return ck.checkpoint_from_state("[mesh]\npath = x.obj\n", 4, mesh, chart, patchset, params, opts)


@pytest.fixture()
def saved(bumpy16, small_arch, fitted_small, tmp_path):
    mesh, chart, patchset, _ = bumpy16
    c = ck.checkpoint_from_state("[mesh]\npath = x.obj\n", 1200, mesh, chart, patchset, fitted_small)
    path = tmp_path / "m.ncs"
    ck.save_checkpoint(path, c)
    return path, (mesh, chart, patchset, fitted_small)


class TestRoundTrip:
    def test_bit_exact_evaluation(self, saved):
        path, (mesh, chart, patchset, params) = saved
        loaded = ck.load_checkpoint(path)
        rmesh, rchart, rps, rparams = ck.restore_state(loaded)
        rng = np.random.default_rng(0)
        for _ in range(100):
            vid = int(rng.integers(mesh.n_vertices))
            q = chart.uv[vid]
            a = mo.evaluate(params, patchset, chart, q)
            b = mo.evaluate(rparams, rps, rchart, q)
            assert np.array_equal(a, b)

    def test_identical_bytes_on_resave(self, saved, tmp_path):
        path, state = saved
        loaded = ck.load_checkpoint(path)
        p2 = tmp_path / "again.ncs"
        ck.save_checkpoint(p2, loaded)
        assert path.read_bytes() == p2.read_bytes()

    def test_iteration_and_config_preserved(self, saved):
        loaded = ck.load_checkpoint(saved[0])
        assert loaded.iteration == 1200
        assert loaded.config_text.startswith("[mesh]")

    def test_patchset_cover_rebuilt(self, saved):
        path, (mesh, chart, patchset, params) = saved
        _, _, rps, _ = ck.restore_state(ck.load_checkpoint(path))
        assert rps.n_patches == patchset.n_patches
        for got, want in [(rps.face_cover, patchset.face_cover),
                          (rps.vertex_cover, patchset.vertex_cover),
                          (rps.face_pair_table(), patchset.face_pair_table())]:
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_optimizer_state_round_trip(self, bumpy16, small_arch, tmp_path):
        mesh, chart, patchset, ctx = bumpy16
        params = mo.build_model(small_arch, patchset, seed=1)
        sched = tr.TrainSchedule(warmup_iters=5, total_iters=20, base_lr=1e-4)
        res = tr.fit(mesh, chart, patchset, params, sched, batch_size=64, seed=1,
                     log_every=0)
        c = ck.checkpoint_from_state("", 20, mesh, chart, patchset, params,
                                     (res.opt_coarse, res.opt_fine))
        path = tmp_path / "opt.ncs"
        ck.save_checkpoint(path, c)
        loaded = ck.load_checkpoint(path)
        assert len(loaded.opt_state) == len(params.all_tensors())
        name = "coarse0.w"
        np.testing.assert_array_equal(loaded.opt_state[name], res.opt_coarse.state[0])


class TestFormat:
    @pytest.mark.parametrize("mode", ["vector", "pca"])
    def test_frozen_digest(self, bumpy16, small_arch, tmp_path, mode):
        path = tmp_path / "tiny.ncs"
        ck.save_checkpoint(path, _tiny_checkpoint(bumpy16, small_arch, mode))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FROZEN_DIGESTS[mode]

    def test_names_follow_the_optimizer_groups(self, fitted_small):
        # opt.* records pair names with the two RMSProp groups' state by position
        groups = fitted_small.coarse_tensors() + fitted_small.fine_tensors()
        named = fitted_small.named_tensors()
        assert all(a is b for a, b in zip(named.values(), groups, strict=True))
        assert list(named)[5:8] == ["coarse2.b", "codes", "cnn0.k1"]

    def test_interrupted_save_keeps_old_file(self, saved, monkeypatch):
        path, _ = saved
        before = path.read_bytes()
        ckpt = ck.load_checkpoint(path)
        real_open = open

        class HalfWrite:
            """A file whose first large write stops halfway, as an interrupt would."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if len(data) > 64:
                    self.fh.write(data[:len(data) // 2])
                    raise KeyboardInterrupt
                return self.fh.write(data)

        monkeypatch.setattr(ck, "open", lambda p, mode="r": HalfWrite(real_open(p, mode)),
                            raising=False)
        with pytest.raises(KeyboardInterrupt):
            ck.save_checkpoint(path, ckpt)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(f.name for f in path.parent.iterdir()) == [path.name]


@pytest.fixture(scope="module")
def pristine_files(bumpy16, small_arch, tmp_path_factory):
    """(path, file bytes) per mode, of an unfitted model with optimizer state; tests
    write their edited bytes to the path."""
    mesh, chart, patchset, _ = bumpy16
    tmp = tmp_path_factory.mktemp("malformed")
    out = {}
    for mode in ("vector", "pca"):
        params = mo.build_model(dataclasses.replace(small_arch, mode=mode), patchset, mesh=mesh)
        opts = (ad.RMSProp(params.coarse_tensors()), ad.RMSProp(params.fine_tensors()))
        path = tmp / f"{mode}.ncs"
        ck.save_checkpoint(path, ck.checkpoint_from_state("", 0, mesh, chart, patchset, params, opts))
        out[mode] = (path, path.read_bytes())
    return out


class TestMalformed:
    """Edits that keep the CRC valid: every one must raise CheckpointError."""

    META_KEYS = ["config_text", "iteration", "n_patches", "patch_meta", "patch_centers", "arch"]
    EDITS = ["drop_key", "bad_json", "not_object", "extra_patch", "arch_key", "arch_width",
             "cnn_blocks", "code_shape", "mode", "dtype_code", "dim", "cut", "drop_record",
             "drop_opt", "reshape_opt", *RECORD_EDITS]

    @staticmethod
    def _edit(edit, meta, records, draw):
        if edit == "drop_key":
            del meta[draw(st.sampled_from(TestMalformed.META_KEYS))]
        elif edit == "bad_json":
            meta = draw(st.binary(max_size=40))
        elif edit == "not_object":
            meta[draw(st.sampled_from(["arch", "patch_meta"]))] = draw(
                st.sampled_from([None, 3, "vector", [], [["mode", "pca"]]]))
        elif edit == "extra_patch":
            meta["n_patches"] += 1
            meta["patch_centers"].append(0)
        elif edit == "arch_key":
            del meta["arch"][draw(st.sampled_from(sorted(meta["arch"])))]
        elif edit == "arch_width":
            key = draw(st.sampled_from(["coarse_widths", "fine_widths"]))
            widths = meta["arch"][key]
            widths[0] = draw(st.integers(1, 24).filter(lambda w: w != widths[0]))
        elif edit == "cnn_blocks":
            meta["arch"]["cnn_blocks"] += draw(st.sampled_from([-1, 1, 2]))
        elif edit == "code_shape":
            meta["arch"]["code_shape"][draw(st.sampled_from([1, 2]))] += 1
        elif edit == "mode":
            meta["arch"]["mode"] = "pca" if meta["arch"]["mode"] != "pca" else "vector"
        elif edit in ("dtype_code", "dim"):
            k = draw(st.integers(0, len(records) - 1))
            rec = bytearray(records[k])
            (nlen,) = struct.unpack_from("<H", rec, 0)
            if edit == "dtype_code" or rec[2 + nlen + 1] == 0:
                rec[2 + nlen] = draw(st.integers(len(ck._DTYPES), 255))
            else:  # a shape that no longer matches the record's byte count
                struct.pack_into("<I", rec, 2 + nlen + 2, draw(st.integers(0, 2 ** 32 - 1).filter(
                    lambda d: d != struct.unpack_from("<I", rec, 2 + nlen + 2)[0])))
            records[k] = bytes(rec)
        elif edit == "cut":
            blob = b"".join(records)
            ends = set(np.cumsum([len(r) for r in records]).tolist())
            at = draw(st.integers(1, len(blob) - 1).filter(lambda i: i not in ends))
            records = [blob[:at]]
        elif edit == "drop_record":
            keep = [r for r in records if not r[2:].startswith(b"opt.")]
            del records[records.index(draw(st.sampled_from(keep)))]
        elif edit == "drop_opt":
            del records[records.index(draw(st.sampled_from(TestMalformed._opt_records(records))))]
        elif edit == "reshape_opt":
            k = records.index(draw(st.sampled_from(TestMalformed._opt_records(records))))
            records[k] = TestMalformed._reshaped(records[k])
        elif edit in RECORD_EDITS:
            patch = draw(st.integers(0, meta["n_patches"] - 1))
            records = break_record(records, edit, patch, lambda lo, hi: draw(st.integers(lo, hi)))
        return meta, records

    @staticmethod
    def _opt_records(records):
        return [r for r in records if r[2:].startswith(b"opt.")]

    @staticmethod
    def _reshaped(rec):
        """The record with its data viewed as a flat vector: same bytes, another shape."""
        (nlen,) = struct.unpack_from("<H", rec, 0)
        code, ndim = rec[2 + nlen], rec[2 + nlen + 1]
        dims = struct.unpack_from(f"<{ndim}I", rec, 2 + nlen + 2)
        body = rec[2 + nlen + 2 + 4 * ndim:]  # byte count and data
        shape = (int(np.prod(dims)),) if ndim != 1 else (dims[0], 1)
        return (rec[:2 + nlen] + struct.pack(f"<BB{len(shape)}I", code, len(shape), *shape)
                + body)

    @settings(max_examples=130, deadline=None)
    @given(mode=st.sampled_from(["vector", "pca"]), edit=st.sampled_from(EDITS), data=st.data())
    def test_edit_raises_checkpoint_error(self, pristine_files, mode, edit, data):
        path, blob = pristine_files[mode]
        meta, records = split_checkpoint(blob)
        meta, records = self._edit(edit, meta, records, data.draw)
        path.write_bytes(pack_checkpoint(meta, records))
        with pytest.raises(CheckpointError):
            ck.restore_state(ck.load_checkpoint(path))

    @pytest.mark.parametrize("pick", [min, max], ids=["first_above", "last_below"])
    @pytest.mark.parametrize("kind", GLOBAL_RECORD_EDITS)
    def test_global_record_edit_names_the_record(self, pristine_files, kind, pick):
        # min sets the first entry to the bound, max sets the last entry to -3
        path, blob = pristine_files["vector"]
        meta, records = split_checkpoint(blob)
        path.write_bytes(pack_checkpoint(meta, break_record(records, kind, None, pick)))
        with pytest.raises(CheckpointError, match=rf"^{RECORD_EDITS[kind][0]} record does not fit"):
            ck.restore_state(ck.load_checkpoint(path))

    def test_split_and_pack_round_trip(self, pristine_files):
        for path, blob in pristine_files.values():
            path.write_bytes(pack_checkpoint(*split_checkpoint(blob)))
            assert path.read_bytes() == blob
            ck.restore_state(ck.load_checkpoint(path))

    def test_fine_widths_mismatch_names_the_tensor(self, pristine_files):
        path, blob = pristine_files["vector"]
        meta, records = split_checkpoint(blob)
        meta["arch"]["fine_widths"][0] += 3
        path.write_bytes(pack_checkpoint(meta, records))
        with pytest.raises(CheckpointError, match="tensor fine0.w has shape"):
            ck.restore_state(ck.load_checkpoint(path))


class TestCorruption:
    def test_flipped_byte_checksum(self, saved, tmp_path):
        blob = bytearray(saved[0].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.ncs"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            ck.load_checkpoint(bad)

    def test_truncation(self, saved, tmp_path):
        blob = saved[0].read_bytes()
        bad = tmp_path / "trunc.ncs"
        bad.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointError, match="truncat"):
            ck.load_checkpoint(bad)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "not.ncs"
        p.write_bytes(b"OBVIOUSLY NOT A CHECKPOINT FILE AT ALL")
        with pytest.raises(CheckpointError, match="magic"):
            ck.load_checkpoint(p)

    def test_version_mismatch(self, saved, tmp_path):
        blob = bytearray(saved[0].read_bytes())
        blob[8] = 99  # version field follows the 8-byte magic
        bad = tmp_path / "vers.ncs"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            ck.load_checkpoint(bad)

    def test_is_checkpoint_sniff(self, saved, tmp_path):
        assert ck.is_checkpoint(saved[0])
        other = tmp_path / "t.txt"
        other.write_text("hello")
        assert not ck.is_checkpoint(other)
