import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import pack_checkpoint, split_checkpoint
from ncs import synth
from ncs.cli import main
from ncs.config import parse_config_text
from ncs.errors import ConfigError
from ncs.model import ArchConfig
from ncs.training import TrainSchedule
from ncs.geometry import export_mesh, load_mesh, normalize_unit_sphere, sample_surface_arrays, chamfer_distance


TINY_CONFIG = """
[mesh]
path = {mesh}

[patches]
radius = 0.45
forbid = 0.5
seed = 1

[arch]
coarse = 12,12
code = 2x2x2
channels = 2
blocks = 1
fine = 6,6
mode = vector

[train]
base_lr = 1e-4
coarse_floor_lr = 1e-6
warmup = {warmup}
total = {total}
batch = 96
seed = 5
log_every = 20
checkpoint_every = 0

[output]
dir = {out}
"""


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("mesh")
    p = d / "bumpy.obj"
    export_mesh(synth.bumpy_plane(12, amplitude=0.08, freq=5.0), p)
    return p


def write_config(tmp_path, mesh_file, warmup=20, total=80, name="run.ini"):
    out = tmp_path / "out"
    cfg = tmp_path / name
    cfg.write_text(TINY_CONFIG.format(mesh=mesh_file, warmup=warmup, total=total, out=out))
    return cfg, out


@pytest.fixture(scope="module")
def fitted_run(tmp_path_factory, mesh_file):
    tmp = tmp_path_factory.mktemp("fit")
    cfg, out = write_config(tmp, mesh_file, warmup=30, total=150)
    assert main(["fit", str(cfg)]) == 0
    return cfg, out


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'rho'"):
            parse_config_text("[mesh]\npath = a.obj\n[patches]\nrho = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config_text("[mesh]\npath = a.obj\n[extras]\nx = 1\n")

    def test_defaults_are_reference_values(self):
        cfg = parse_config_text("[mesh]\npath = a.obj\n")
        assert cfg.radius_frac == 0.04
        assert cfg.forbid_prob == 0.5
        assert cfg.schedule.base_lr == 1e-4
        assert cfg.schedule.warmup_iters == 100_000
        assert cfg.arch.coarse_widths == (128, 64, 64)
        assert cfg.arch.code_shape == (8, 4, 4)
        assert cfg.arch.cnn_blocks == 5
        # an omitted key takes its dataclass default
        assert cfg.arch == ArchConfig()
        assert cfg.schedule == TrainSchedule()
        assert cfg.schedule.total_iters == 800_000
        assert (cfg.batch_size, cfg.log_every, cfg.checkpoint_every, cfg.out_dir) == (
            2048, 100, 10_000, "ncs_out")

    def test_readme_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        cfg = parse_config_text(readme.split("```ini\n")[1].split("```")[0])
        assert (cfg.radius_frac, cfg.arch.code_shape, cfg.out_dir) == (0.25, (4, 4, 4), "runs/bumpy")

    def test_missing_mesh_path(self):
        with pytest.raises(ConfigError, match="path"):
            parse_config_text("[train]\ntotal = 5\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("[mesh]\npath = a.obj\n[train]\nbatch = many\n")


class TestExitCodes:
    def test_missing_config_is_2(self, capsys):
        assert main(["fit", "/nonexistent/conf.ini"]) == 2

    def test_unknown_key_is_2(self, tmp_path, mesh_file):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[mesh]\npath = {mesh_file}\nsurprise = 1\n")
        assert main(["fit", str(cfg)]) == 2

    @pytest.mark.parametrize("edits", [
        {"radius = 0.45": "radius = -0.1"},
        {"radius = 0.45": "radius = 0"},
        {"radius = 0.45": "radius = nan"},
        {"forbid = 0.5": "forbid = 1.5"},
        {"batch = 96": "batch = 0"},
        {"batch = 96": "batch = -4"},
        {"channels = 2": "channels = 0", "code = 2x2x2": "code = 0x2x2"},
        {"code = 2x2x2": "code = 2x0x2"},
        {"seed = 1\n": "seed = -1\n"},
        {"seed = 5": "seed = -1"},
        {"log_every = 20": "log_every = -1"},
        {"checkpoint_every = 0": "checkpoint_every = -1"},
    ], ids=["radius_negative", "radius_zero", "radius_nan", "forbid", "batch_zero",
            "batch_negative", "channels_zero", "code_zero", "patch_seed", "fit_seed",
            "log_every", "checkpoint_every"])
    def test_out_of_range_value_is_2(self, tmp_path, mesh_file, edits, capsys):
        cfg, out = write_config(tmp_path, mesh_file)
        text = cfg.read_text()
        for old, new in edits.items():
            assert text.count(old) == 1
            text = text.replace(old, new)
        cfg.write_text(text)
        commands = [["fit", str(cfg)]]
        if "radius = 0.45" in edits:
            commands.append(["patches", str(cfg), "-o", str(tmp_path / "p.csv")])
        for argv in commands:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "p.csv").exists()

    def test_closed_mesh_is_3(self, tmp_path):
        sphere = tmp_path / "sphere.obj"
        export_mesh(synth.icosphere(1), sphere)
        cfg, _ = write_config(tmp_path, sphere)
        assert main(["fit", str(cfg)]) == 3

    def test_doubled_face_is_3(self, tmp_path):
        # one face listed twice with opposite winding: a non-manifold boundary
        mesh = tmp_path / "doubled.obj"
        mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 2 4 3\nf 2 3 4\n")
        cfg, _ = write_config(tmp_path, mesh)
        assert main(["fit", str(cfg)]) == 3

    def test_corrupt_checkpoint_is_2(self, tmp_path):
        bad = tmp_path / "bad.ncs"
        bad.write_bytes(b"NCSCKPT\x00" + b"\x01\x00\x00\x00" + b"garbage")
        assert main(["reconstruct", str(bad), "-o", str(tmp_path / "o.obj")]) == 2

    @pytest.mark.parametrize("edit", ["drop_arch", "fine_widths", "drop_opt"])
    def test_malformed_checkpoint_is_2(self, fitted_run, tmp_path, edit, capsys):
        # CRC rebuilt, so the loader and restore_state must catch these themselves
        _, out = fitted_run
        meta, records = split_checkpoint((out / "model.ncs").read_bytes())
        if edit == "drop_arch":
            del meta["arch"]
        elif edit == "fine_widths":
            meta["arch"]["fine_widths"][0] += 1
        else:  # one optimizer record of the fit's state missing
            records = [r for r in records if not r[2:].startswith(b"opt.codes")]
        bad = tmp_path / "bad.ncs"
        bad.write_bytes(pack_checkpoint(meta, records))
        assert main(["reconstruct", str(bad), "-o", str(tmp_path / "o.obj")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint: ") and "Traceback" not in err
        assert not (tmp_path / "o.obj").exists()

    @pytest.mark.parametrize("argv", [
        lambda model, tmp: ["reconstruct", str(tmp / "missing.ncs")],
        lambda model, tmp: ["transfer", str(tmp / "missing.ncs"), model],
        lambda model, tmp: ["eval", model, str(tmp / "missing.obj")],
        lambda model, tmp: ["fit", str(write_config(tmp, tmp / "missing.obj")[0])],
        lambda model, tmp: ["reconstruct", model, "-o", str(tmp / "no_dir" / "x.obj")],
    ], ids=["reconstruct", "transfer", "eval_mesh", "fit_mesh", "output_dir"])
    def test_missing_file_is_2(self, fitted_run, tmp_path, argv, capsys):
        _, out = fitted_run
        assert main(argv(str(out / "model.ncs"), tmp_path)) == 2
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_eval_nonpositive_samples_is_2(self, fitted_run, mesh_file, samples, capsys):
        _, out = fitted_run
        assert main(["eval", str(out / "model.ncs"), str(mesh_file), "--samples", samples]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_edit_negative_factor_is_2(self, fitted_run, tmp_path, capsys):
        _, out = fitted_run
        assert main(["edit", str(out / "model.ncs"), "--factor", "-1",
                     "-o", str(tmp_path / "e.obj")]) == 2
        assert "--factor" in capsys.readouterr().err
        assert not (tmp_path / "e.obj").exists()

    @pytest.mark.parametrize("res", ["-1", "0", "1"])
    def test_dense_res_below_two_is_2(self, fitted_run, tmp_path, res, capsys):
        _, out = fitted_run
        assert main(["reconstruct", str(out / "model.ncs"), "--mode", "dense", "--res", res,
                     "-o", str(tmp_path / "d.obj")]) == 2
        assert "--res" in capsys.readouterr().err

    def test_stage_keeps_error_type_and_attributes(self):
        from ncs.cli import _stage
        from ncs.errors import FrameDegenerateError
        mask = np.array([True, False])
        with pytest.raises(FrameDegenerateError) as info:
            with _stage("training"):
                raise FrameDegenerateError("2 degenerate frame(s)", mask=mask)
        assert info.value.mask is mask
        assert str(info.value) == "training: 2 degenerate frame(s)"


class TestFit:
    def test_zero_iterations_writes_checkpoint(self, tmp_path, mesh_file, capsys):
        cfg, out = write_config(tmp_path, mesh_file, warmup=0, total=0)
        assert main(["fit", str(cfg)]) == 0
        assert (out / "model.ncs").exists()
        assert (out / "training_log.csv").exists()

    def test_param_table_printed(self, tmp_path, mesh_file, capsys):
        cfg, out = write_config(tmp_path, mesh_file, warmup=0, total=0)
        main(["fit", str(cfg)])
        text = capsys.readouterr().out
        assert "coarse MLP" in text and "fine MLP" in text and "TOTAL" in text

    def test_deterministic_rerun(self, tmp_path, mesh_file, capsys):
        cfg, out = write_config(tmp_path, mesh_file, warmup=10, total=40)
        h = []
        losses = []
        for _ in range(2):
            assert main(["fit", str(cfg)]) == 0
            h.append(hashlib.sha256((out / "model.ncs").read_bytes()).hexdigest())
            line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("final loss")]
            losses.append(line[-1])
        assert h[0] == h[1]
        assert losses[0] == losses[1]


class TestReconstructEval:
    def test_vertices_mode_keeps_faces(self, fitted_run, tmp_path, mesh_file):
        _, out = fitted_run
        obj = tmp_path / "recon.obj"
        assert main(["reconstruct", str(out / "model.ncs"), "-o", str(obj)]) == 0
        recon = load_mesh(obj)
        gt = load_mesh(mesh_file)
        assert np.array_equal(recon.faces, gt.faces)

    def test_dense_mode(self, fitted_run, tmp_path):
        _, out = fitted_run
        obj = tmp_path / "dense.obj"
        assert main(["reconstruct", str(out / "model.ncs"), "--mode", "dense",
                     "--res", "48", "-o", str(obj)]) == 0
        dense = load_mesh(obj)
        assert dense.n_faces > 100
        assert np.abs(dense.vertices).max() < 2.0

    def test_eval_outputs_json(self, fitted_run, mesh_file, tmp_path, capsys):
        _, out = fitted_run
        metrics = tmp_path / "metrics.json"
        assert main(["eval", str(out / "model.ncs"), str(mesh_file),
                     "--samples", "4000", "--json", str(metrics)]) == 0
        data = json.loads(metrics.read_text())
        assert data["chamfer_x1e3"] == pytest.approx(data["chamfer"] * 1e3)
        assert data["parameters"]["total"] > 0
        text = capsys.readouterr().out
        assert "chamfer" in text

    def test_eval_equals_reconstruct_roundtrip(self, fitted_run, mesh_file, tmp_path, capsys):
        _, out = fitted_run
        metrics = tmp_path / "m.json"
        main(["eval", str(out / "model.ncs"), str(mesh_file), "--samples", "4000",
              "--json", str(metrics)])
        capsys.readouterr()
        cd_eval = json.loads(metrics.read_text())["chamfer"]
        obj = tmp_path / "r.obj"
        main(["reconstruct", str(out / "model.ncs"), "-o", str(obj)])
        recon = load_mesh(obj)
        gt = normalize_unit_sphere(load_mesh(mesh_file))
        a, _, _ = sample_surface_arrays(recon, 4000, 12345)
        b, _, _ = sample_surface_arrays(gt, 4000, 12345)
        assert chamfer_distance(a, b) == pytest.approx(cd_eval, rel=1e-5)

    def test_eval_mesh_against_itself_is_zero(self, mesh_file):
        from ncs.cli import _chamfer_vs_mesh
        gt = normalize_unit_sphere(load_mesh(mesh_file))
        assert _chamfer_vs_mesh(gt, gt, 2000) == 0.0

    def test_eval_sample_count_stability(self, fitted_run, mesh_file, tmp_path, capsys):
        _, out = fitted_run
        vals = []
        for n in (20000, 40000):
            metrics = tmp_path / f"s{n}.json"
            main(["eval", str(out / "model.ncs"), str(mesh_file), "--samples", str(n),
                  "--json", str(metrics)])
            capsys.readouterr()
            vals.append(json.loads(metrics.read_text())["chamfer"])
        assert abs(vals[1] - vals[0]) / vals[0] < 0.05


class TestEditTransfer:
    def test_edit_factor_one_bit_identical(self, fitted_run, tmp_path):
        _, out = fitted_run
        a = tmp_path / "recon.obj"
        b = tmp_path / "edit1.obj"
        main(["reconstruct", str(out / "model.ncs"), "-o", str(a)])
        main(["edit", str(out / "model.ncs"), "--factor", "1.0", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_edit_monotone_displacement(self, fitted_run, tmp_path):
        _, out = fitted_run
        ck = str(out / "model.ncs")
        coarse_obj = tmp_path / "c.obj"

        # factor 0 with trained (nonzero) biases is not the coarse surface, so use
        # the mean offset from the factor-1 reconstruction as the detail measure
        r1 = tmp_path / "f1.obj"
        main(["edit", ck, "--factor", "1.0", "-o", str(r1)])
        v1 = load_mesh(r1).vertices

        def mean_offset(factor):
            p = tmp_path / f"f{factor}.obj"
            main(["edit", ck, "--factor", str(factor), "-o", str(p)])
            return float(np.linalg.norm(load_mesh(p).vertices - v1, axis=1).mean())

        d_half = mean_offset(0.5)
        d_two = mean_offset(2.0)
        assert d_half > 0 and d_two > d_half  # further from factor-1 both ways, more for 2x

    def test_self_transfer_identical(self, fitted_run, tmp_path):
        _, out = fitted_run
        a = tmp_path / "r.obj"
        b = tmp_path / "t.obj"
        main(["reconstruct", str(out / "model.ncs"), "-o", str(a)])
        assert main(["transfer", str(out / "model.ncs"), str(out / "model.ncs"),
                     "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_transfer_alignment_error(self, fitted_run, tmp_path, mesh_file):
        _, out = fitted_run
        other_mesh = tmp_path / "other.obj"
        export_mesh(synth.bumpy_plane(10), other_mesh)
        cfg, out2 = write_config(tmp_path, other_mesh, warmup=0, total=0)
        main(["fit", str(cfg)])
        assert main(["transfer", str(out / "model.ncs"), str(out2 / "model.ncs"),
                     "-o", str(tmp_path / "x.obj")]) == 2


class TestPatchesCmd:
    def test_csv_from_config(self, fitted_run, tmp_path):
        cfg, _ = fitted_run
        csv_path = tmp_path / "patches.csv"
        assert main(["patches", str(cfg), "-o", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["patch", "center", "vertices", "faces", "flips"]
        assert len(lines) > 1
        for ln in lines[1:]:
            assert ln.split(",")[4] == "0"  # zero flips everywhere

    def test_csv_from_checkpoint(self, fitted_run, tmp_path):
        _, out = fitted_run
        csv_path = tmp_path / "p2.csv"
        assert main(["patches", str(out / "model.ncs"), "-o", str(csv_path)]) == 0
        assert csv_path.exists()

    def test_deterministic(self, fitted_run, tmp_path):
        cfg, _ = fitted_run
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["patches", str(cfg), "-o", str(p1)])
        main(["patches", str(cfg), "-o", str(p2)])
        assert p1.read_text() == p2.read_text()


class TestWorkers:
    def test_worker_count_does_not_change_results(self, fitted_run, tmp_path, monkeypatch):
        _, out = fitted_run
        a = tmp_path / "w1.obj"
        b = tmp_path / "w3.obj"
        monkeypatch.setenv("NCS_WORKERS", "1")
        main(["reconstruct", str(out / "model.ncs"), "-o", str(a)])
        monkeypatch.setenv("NCS_WORKERS", "3")
        main(["reconstruct", str(out / "model.ncs"), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_dense_results(self, fitted_run, tmp_path, monkeypatch):
        _, out = fitted_run
        objs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("NCS_WORKERS", workers)
            objs.append(tmp_path / f"dense{workers}.obj")
            # res 128 puts ~13K grid points in the chart: two evaluation chunks
            assert main(["reconstruct", str(out / "model.ncs"), "--mode", "dense", "--res", "128",
                         "-o", str(objs[-1])]) == 0
        assert objs[0].read_bytes() == objs[1].read_bytes()

    def test_param_table_exact_numbers(self, tmp_path, mesh_file, capsys):
        cfg, out = write_config(tmp_path, mesh_file, warmup=0, total=0)
        main(["fit", str(cfg)])
        text = capsys.readouterr().out
        # coarse 2->12->12->3 with biases: 36 + 156 + 39
        assert "coarse MLP   231" in text
        # fine 2->6->6->3 with biases: 18 + 42 + 21
        assert "fine MLP     81" in text

    def test_patches_works_on_closed_mesh(self, tmp_path):
        from ncs.geometry import export_mesh
        from ncs import synth
        sphere = tmp_path / "sphere.obj"
        export_mesh(synth.icosphere(2), sphere)
        cfg = tmp_path / "p.ini"
        cfg.write_text(f"[mesh]\npath = {sphere}\n[patches]\nradius = 0.2\nforbid = 0.5\nseed = 0\n")
        out = tmp_path / "p.csv"
        assert main(["patches", str(cfg), "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 2
