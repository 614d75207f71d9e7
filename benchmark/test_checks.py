"""Fast test of the benchmark's output checks, on bumpy_plane(12).

    python3 benchmark/test_checks.py        (from the root of the checkout)

Each workload's architecture is fitted for a few iterations through the real
CLI, and every check of run.py must pass on those outputs. Each check is then
fed a deliberately wrong output and must fail.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, commands, write_inputs  # noqa: E402

RES = 64  # dense grid of the test; the count check does not depend on it
# a handful of iterations: the desk architecture is cheap, the reference one
# decodes 128x128 grids, so it gets fewer
SMALL = {"desk": (20, 40), "reference": (10, 10), "large_mesh": (20, 40)}


def run_small(name: str, out: Path) -> tuple:
    from ncs import cli

    warmup, total = SMALL[name]
    w = dataclasses.replace(WORKLOADS[name], grid_n=12, warmup=warmup, total=total, batch=256)
    paths = write_inputs(w, out)
    cmds = [(p, argv) for p, argv in commands(w, paths)]
    cmds[1][1][cmds[1][1].index("--res") + 1] = str(RES)
    with contextlib.redirect_stdout(io.StringIO()):
        for _, argv in cmds:
            assert cli.main(argv) == 0, argv
    return w, paths


def flip_backward(op):
    """The op with the sign of every input gradient it records flipped."""
    from ncs import autodiff as ad

    def flipped(*args, **kwargs):
        out = op(*args, **kwargs)
        tape = ad._ACTIVE
        if tape is not None and tape.nodes and tape.nodes[-1][0] is out:
            o, ins, bw = tape.nodes[-1]
            tape.nodes[-1] = (o, ins, lambda g: tuple(None if x is None else -x for x in bw(g)))
        return out

    return flipped


class WorkloadChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.runs = {name: run_small(name, Path(cls.tmp.name) / name) for name in WORKLOADS}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_checks_pass_on_real_outputs(self):
        for name, (w, paths) in self.runs.items():
            with self.subTest(workload=name):
                log = checks.read_log(paths["log"])
                self.assertEqual(checks.check_loss_falls(log["loss"], w.total), [])
                errors, worst = checks.check_gradients(paths["checkpoint"], seed=1)
                self.assertEqual(errors, [])
                self.assertLess(worst, checks.GRAD_TOL)
                self.assertEqual(checks.check_dense(paths["checkpoint"], paths["dense"], RES), [])
                full = json.loads(Path(paths["eval_json"]).read_text())["chamfer_x1e3"]
                self.assertEqual(checks.check_chamfer(full, None), [])
                if w.coarse_eval:  # a fit this short gets the detail branch started, not to 5x
                    coarse = json.loads(Path(paths["coarse_json"]).read_text())["chamfer_x1e3"]
                    self.assertLess(full, coarse)

    def test_loss_that_does_not_fall_fails(self):
        w, paths = self.runs["desk"]
        loss = checks.read_log(paths["log"])["loss"]
        self.assertTrue(checks.check_loss_falls(np.full_like(loss, loss[0]), w.total))
        self.assertTrue(checks.check_loss_falls(loss[::-1], w.total))
        self.assertTrue(checks.check_loss_falls(loss[:-1], w.total))

    def test_flipped_gradient_fails(self):
        from ncs import autodiff as ad

        for name, op in (("desk", "conv3x3"), ("reference", "conv3x3"), ("large_mesh", "softplus")):
            with self.subTest(workload=name, op=op):
                _, paths = self.runs[name]
                with mock.patch.object(ad, op, flip_backward(getattr(ad, op))):
                    errors, worst = checks.check_gradients(paths["checkpoint"], seed=1)
                self.assertTrue(errors)
                self.assertGreater(worst, 100 * checks.GRAD_TOL)

    def test_dense_reconstruction_missing_a_row_fails(self):
        for name, (_, paths) in self.runs.items():
            with self.subTest(workload=name):
                lines = Path(paths["dense"]).read_text().splitlines()
                verts = [ln for ln in lines if ln.startswith("v ")]
                faces = [ln for ln in lines if ln.startswith("f ")]
                bad = Path(paths["dense"]).with_name("missing_row.obj")
                bad.write_text("\n".join(verts[:-RES // 2] + faces) + "\n")
                self.assertTrue(checks.check_dense(paths["checkpoint"], bad, RES))
                bad.write_text("\n".join(verts + faces[:-2]) + "\n")
                self.assertTrue(checks.check_dense(paths["checkpoint"], bad, RES))
                bad.write_text("\n".join(verts[:-1] + ["v nan 0 0"] + faces) + "\n")
                self.assertTrue(checks.check_dense(paths["checkpoint"], bad, RES))

    def test_dense_counts_match_a_disk(self):
        # the unit circle as a 400-gon: the inside count approaches pi/4 of the grid
        t = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        uv = np.stack([np.cos(t), np.sin(t)], axis=1)
        nv, nf = checks.expected_dense_counts(uv, np.arange(400), 512)
        self.assertAlmostEqual(nv / 512 ** 2, np.pi / 4, delta=0.005)
        self.assertLess(nf, 2 * nv)
        self.assertEqual(checks.expected_dense_counts(uv, np.arange(400)[::-1], 512), (nv, nf))

    def test_chamfer_checks_fail_on_wrong_values(self):
        self.assertTrue(checks.check_chamfer(float("nan"), None))
        self.assertTrue(checks.check_chamfer(0.0, None))
        self.assertTrue(checks.check_chamfer(1.0, 2.0))
        self.assertEqual(checks.check_chamfer(1.0, 10.0), [])


class SpeedClockTest(unittest.TestCase):
    def test_probe_time_is_taken_out_and_slow_stretches_scaled(self):
        ref = speed.REF_PROBE_S
        starts = np.arange(1.0, 10.0)  # a probe each second, 9 in all
        # the machine runs at speed 1 for the first five probes, at half speed after
        probe = np.where(starts < 5.5, ref, 2 * ref)
        clock = speed.SpeedClock(starts, starts + probe, 0.0, 10.0)
        self.assertAlmostEqual(float(clock.active(0.0, 10.0)), 10.0 - probe.sum())
        self.assertAlmostEqual(float(clock.norm(0.0, 1.0)), 1.0)
        self.assertAlmostEqual(float(clock.norm(7.5, 7.9)), 0.2)
        # a stretch inside one probe is no program time
        self.assertEqual(float(clock.active(3.0, 3.0 + ref / 2)), 0.0)
        # no probes: normalised time is wall time
        bare = speed.SpeedClock([], [], 0.0, 2.0)
        self.assertEqual(float(bare.norm(0.5, 1.5)), 1.0)

    def test_probe_runs_from_the_alarm(self):
        probe = speed.Probe()
        probe.start()
        try:
            t_end = time.perf_counter() + 12 * speed.PERIOD_S
            while time.perf_counter() < t_end:
                sum(range(1000))
        finally:
            probe.stop()
        self.assertGreaterEqual(len(probe.starts), 5)
        self.assertTrue(all(b > a for a, b in zip(probe.starts, probe.ends)))


if __name__ == "__main__":
    unittest.main()
