"""The benchmark's workloads: seeded input generation, one timed run, and the
output checks that decide whether a run failed.

Each workload has a ``setup`` (draws the free inputs from the seed and writes
configs and input CSVs), a ``run`` (the timed part: program calls only) and a
``check`` (untimed: reads what ``run`` produced and returns an ``Outcome``).
``run`` writes only under ``inputs["out"]``, which the caller empties before
every run.  ``TINY`` sizes serve the harness's own smoke tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from fockbench import chart as chm
from fockbench import cli


@dataclass
class Outcome:
    """What a run produced, as far as the checks and the traced/untraced
    comparison need it."""

    problems: list  # failed output checks; empty when correct
    newton_iters: int = 0
    fingerprint: str = ""  # digest of the outputs that must not change under tracing


def _quiet_cli(argv) -> int:
    """``cli.run`` with its JSON report echo kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def _read_report(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)


def _csv_digest(root) -> str:
    """sha256 over the paths and bytes of every CSV under ``root``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".csv"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                h.update(os.path.relpath(os.path.join(dirpath, name), root).encode())
                h.update(data)
    return h.hexdigest()


class SolveDisk:
    """``cli solve`` with n = 3 on a Dirichlet disk (R = 0.5): a bump mu_3 of
    radius 0.3, centre within 0.05 of 0, amplitude 0.01 +- 10%; two
    continuation steps, Jacobi-preconditioned CG."""

    def __init__(self, grid, bump_radius=0.3):
        self.grid = grid
        self.bump_radius = bump_radius

    def setup(self, rng, workdir):
        r, theta = 0.05 * np.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * np.pi)
        amplitude = 0.01 * (1.0 + rng.uniform(-0.1, 0.1))
        out = os.path.join(workdir, "out")
        cfg = {
            "n": 3,
            "chart": {"kind": "dirichlet-disk", "nx": self.grid, "ny": self.grid, "radius": 0.5},
            "beltrami": {
                "3": {
                    "type": "bump",
                    "center": [r * np.cos(theta), r * np.sin(theta)],
                    "radius": self.bump_radius,
                    "amplitude": amplitude,
                }
            },
            "solver": {
                "continuation_steps": 2,
                "newton_tol": 1e-10,
                "cg_tol": 1e-11,
                "max_cg": 4000,
                "preconditioner": "jacobi",
            },
            "output_dir": out,
        }
        path = os.path.join(workdir, "solve.json")
        _write_json(path, cfg)
        return {"config": path, "out": out}

    def run(self, inputs):
        return {"rc": _quiet_cli(["solve", "--config", inputs["config"]])}

    def check(self, inputs, state):
        problems = []
        if state["rc"] != 0:
            problems.append(f"solve exited {state['rc']}")
            return Outcome(problems)
        rep = _read_report(inputs["out"])
        steps = rep["iteration_traces"]["per_step"]
        final = rep["residual_norms"]["final_residual"]
        if rep["status"] != "ok":
            problems.append(f"solve status {rep['status']}")
        if not final <= 1e-10:
            problems.append(f"final_residual {final!r} above 1e-10")
        if any(s["newton_iters"] > 8 for s in steps):
            problems.append(f"Newton iterations {[s['newton_iters'] for s in steps]} exceed 8 per step")
        digest = _csv_digest(inputs["out"])
        history = json.dumps([s["residuals"] for s in steps])
        fingerprint = hashlib.sha256((digest + history).encode()).hexdigest()
        return Outcome(problems, sum(s["newton_iters"] for s in steps), fingerprint)


class CliPipeline:
    """``fuchsian`` on a disk, then ``fillin``, ``muholo`` and ``flow`` on a
    periodic n = 3 chart whose mu_k and t_k come from ``file`` specs, then
    ``point-verify --n 4``; finally every Lie-form and matrix CSV written is
    read back."""

    def __init__(self, disk_grid, periodic_grid, samples):
        self.disk_grid = disk_grid
        self.periodic_grid = periodic_grid
        self.samples = samples

    def setup(self, rng, workdir):
        n, g = 3, self.periodic_grid
        ch = chm.periodic_chart(g, g)
        indir = os.path.join(workdir, "inputs")
        os.makedirs(indir, exist_ok=True)
        fields = {}
        for kind, amplitude in (("mu", 0.05), ("t", 0.2)):
            for k in range(2, n + 1):
                path = os.path.join(indir, f"{kind}{k}.csv")
                chm.save_scalar_csv(path, chm.random_smooth_scalar(ch, rng, amplitude=amplitude))
                fields.setdefault(kind, {})[str(k)] = {"type": "file", "path": path}
        out = os.path.join(workdir, "out")
        disk = {"kind": "dirichlet-disk", "nx": self.disk_grid, "ny": self.disk_grid, "radius": 0.5}
        periodic = {"kind": "periodic-rect", "nx": g, "ny": g, "lx": 1.0, "ly": 1.0}
        hamiltonian = {
            "ell": 2,
            "eps": 1e-3,
            "steps": 3,
            "w": {"type": "bump", "center": [0.5, 0.5], "radius": 0.3, "amplitude": 0.1},
        }
        configs = {
            "fuchsian": {"n": n, "chart": disk},
            "fillin": {"n": n, "chart": periodic, "beltrami": fields["mu"]},
            "muholo": {"n": n, "chart": periodic, "beltrami": fields["mu"], "covector": fields["t"]},
            "flow": {
                "n": n,
                "chart": periodic,
                "beltrami": fields["mu"],
                "covector": fields["t"],
                "hamiltonian": hamiltonian,
            },
        }
        commands = []
        for name, cfg in configs.items():
            path = os.path.join(indir, f"{name}.json")
            _write_json(path, dict(cfg, output_dir=os.path.join(out, name)))
            commands.append([name, "--config", path])
        commands.append(
            ["point-verify", "--n", "4", "--samples", str(self.samples),
             "--seed", str(int(rng.integers(2**31))), "--out", os.path.join(out, "point-verify")]
        )
        disk_chart = chm.disk_chart(self.disk_grid, self.disk_grid, 0.5)
        readback = [
            (os.path.join(out, "fuchsian", "A.csv"), disk_chart, 1, n),
            (os.path.join(out, "fuchsian", "h.csv"), disk_chart, None, n),
            (os.path.join(out, "fillin", "A.csv"), ch, 1, n),
        ]
        return {"commands": commands, "readback": readback, "out": out}

    def run(self, inputs):
        rcs = [_quiet_cli(argv) for argv in inputs["commands"]]
        arrays = []
        for path, ch, degree, n in inputs["readback"]:
            if degree is None:
                arrays.append(chm.load_matrix_field_csv(path, ch, n))
            else:
                arrays.append(chm.load_lieform_csv(path, ch, degree, n))
        return {"rc": rcs, "arrays": arrays}

    def check(self, inputs, state):
        problems = [
            f"{argv[0]} exited {rc}" for argv, rc in zip(inputs["commands"], state["rc"]) if rc != 0
        ]
        if problems:
            return Outcome(problems)
        # Floats are written with 17 significant digits, which name a double
        # uniquely, so equal bytes on rewrite mean the read array is bitwise the
        # written one.
        copy = os.path.join(os.path.dirname(inputs["out"]), "readback.csv")
        for (path, ch, degree, n), arr in zip(inputs["readback"], state["arrays"]):
            if degree is None:
                chm.save_matrix_field_csv(copy, ch, arr)
            else:
                chm.save_lieform_csv(copy, arr)
            with open(path, "rb") as a, open(copy, "rb") as b:
                if a.read() != b.read():
                    problems.append(f"{os.path.relpath(path, inputs['out'])} read back differs from what was written")
        os.remove(copy)
        digest = _csv_digest(inputs["out"])
        return Outcome(problems, 0, digest)


WORKLOADS = {
    "solve-disk20": SolveDisk(grid=20),
    "cli-pipeline": CliPipeline(disk_grid=32, periodic_grid=48, samples=200),
}

TINY = {
    "solve-disk20": SolveDisk(grid=16, bump_radius=0.2),
    "cli-pipeline": CliPipeline(disk_grid=12, periodic_grid=12, samples=5),
}
