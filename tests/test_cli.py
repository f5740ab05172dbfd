import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbench import chart as chm
from fockbench import cli, fiber
from fockbench import connection as cn
from fockbench import fockpoint as fp
from fockbench import hcsflow as hf
from fockbench import solver as sv
from fockbench.cli import run
from fockbench.errors import DecompositionError, DegenerateStructureError, NonConvergenceError
from fockbench.report import SolveReport


def _write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _read_report(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)


def test_report_json_writes_complex_values_and_numpy_scalars():
    rep = SolveReport(command="fillin", residual_norms={"z": 1.5 - 2j, "x": np.float64(0.25), 3: [np.int64(7)]})
    assert json.loads(rep.to_json())["residual_norms"] == {"z": {"re": 1.5, "im": -2.0}, "x": 0.25, "3": [7]}


def test_unknown_subcommand_and_usage():
    assert run([]) == 3
    assert run(["frobnicate"]) == 3
    assert run(["solve"]) == 4  # missing --config


def test_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert run(["solve", "--config", str(bad)]) == 4
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert run(["solve", "--config", str(arr)]) == 4
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert run(["solve", "--config", str(binary)]) == 4


@pytest.mark.parametrize(
    "section, key",
    [
        (None, "continuation_step"),
        ("solver", "continuation_step"),
        ("chart", "radus"),
        ("hamiltonian", "epsilon"),
        ("beltrami/3", "extra"),
        ("hamiltonian/w", "center_x"),
    ],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, section, key):
    cfg = {
        "n": 3,
        "chart": {"kind": "dirichlet-disk", "nx": 12, "ny": 12, "radius": 0.5},
        "beltrami": {"3": {"type": "bump", "radius": 0.2, "amplitude": 0.01}},
        "solver": {"continuation_steps": 1},
        "hamiltonian": {"ell": 2, "w": {"type": "constant", "value": 0.0}},
        "output_dir": str(tmp_path / "o"),
    }
    spec = cfg
    for part in section.split("/") if section else []:  # a path into nested specs
        spec = spec[part]
    spec[key] = 1
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize(
    "chart, key, value",
    [
        ({"kind": "periodic-rect", "nx": 8, "ny": 8}, "radius", 0.3),
        ({"kind": "dirichlet-disk", "nx": 12, "ny": 12, "radius": 0.5}, "lx", 7.0),
        ({"kind": "dirichlet-disk", "nx": 12, "ny": 12}, "ly", 7.0),
    ],
)
def test_chart_key_of_the_other_kind_is_config_error(tmp_path, capsys, chart, key, value):
    # lx and ly belong to periodic-rect charts only, radius to dirichlet-disk only
    cfg = {"n": 2, "chart": dict(chart, **{key: value}), "output_dir": str(tmp_path / "o")}
    assert run(["fillin", "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    assert f"unknown key {key!r} in 'chart'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_readme_config_example_is_a_valid_config(tmp_path, monkeypatch):
    # the jsonc block under "### Config schema", its // comments stripped, passes
    # the schema (_load_config checks it with _SCHEMA first) and loads as a solve
    # config and as a fillin config, the one subcommand its "hermitian" key is
    # for, its solver section as NewtonConfig
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("### Config schema", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    obj = json.loads(re.sub(r"//.*", "", block))
    ch = chm.disk_chart(obj["chart"]["nx"], obj["chart"]["ny"], obj["chart"]["radius"])
    t3 = chm.ScalarField(ch, np.zeros((ch.nx, ch.ny), dtype=complex))
    chm.save_scalar_csv(tmp_path / obj["covector"]["3"]["path"], t3)
    monkeypatch.chdir(tmp_path)  # the example's file path is relative
    path = _write_config(tmp_path, "c.json", obj)
    for cmd in ("solve", "fillin"):
        _, cfg = cli._load_config(path, cmd)
        assert cfg["chart"] == ch
        assert cfg["solver"] == sv.NewtonConfig(**{k: v for k, v in obj["solver"].items() if k != "preconditioner"})


def test_missing_file_is_io_error(tmp_path):
    assert run(["solve", "--config", str(tmp_path / "nope.json")]) == 5


def test_fiber_verify_ok(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run(["fiber-verify", "--n", "4", "--out", out]) == 0
    rep = _read_report(out)
    assert rep["status"] == "ok" and "wall_time_s" in rep["timings"]
    assert rep["residual_norms"]["trace_orthogonality_violations"] == 0
    assert rep["residual_norms"]["rho_fixes_su_n"] == 0.0


def test_point_verify_ok(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run(["point-verify", "--n", "3", "--samples", "20", "--seed", "1", "--out", out]) == 0
    rep = _read_report(out)
    assert rep["status"] == "ok"
    assert rep["residual_norms"]["reconstruction"] < 1e-10


def test_fiber_verify_checks_samples_matrices(monkeypatch, capsys):
    drawn, real = [], fiber.random_traceless
    monkeypatch.setattr(fiber, "random_traceless", lambda n, rng: drawn.append(n) or real(n, rng))
    assert run(["fiber-verify", "--n", "3"]) == 0
    assert len(drawn) == 20
    assert json.loads(capsys.readouterr().out)["config_echo"] == {"n": 3, "samples": 20, "seed": 0}
    drawn.clear()
    assert run(["fiber-verify", "--n", "3", "--samples", "7"]) == 0
    assert len(drawn) == 7
    assert json.loads(capsys.readouterr().out)["config_echo"] == {"n": 3, "samples": 7, "seed": 0}
    assert run(["fiber-verify", "--n", "3", "--samples", "0"]) == 4
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_point_verify_needs_a_sample(tmp_path, capsys, samples):
    out = tmp_path / "o"
    assert run(["point-verify", "--n", "3", "--samples", samples, "--out", str(out)]) == 4
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd, seed", [("point-verify", "-1"), ("fiber-verify", "-5")])
def test_negative_seed_is_config_error(tmp_path, capsys, cmd, seed):
    out = tmp_path / "o"
    assert run([cmd, "--n", "3", "--seed", seed, "--out", str(out)]) == 4
    assert f"'--seed' must be an integer >= 0, got {seed}" in capsys.readouterr().err
    assert not out.exists()


# (n, seed, positive samples, reconstruction, q_involution) of ``point-verify
# --samples 40`` before its kernels were batched; every sample certified, and
# dims and gram_vs_contraction were 0.
_PARENT_POINT_VERIFY = [
    (3, 0, 39, 8.587329396149885e-15, 1.426717907996117e-14),
    (3, 1, 35, 8.469265074408763e-15, 1.4148458739155554e-14),
    (3, 2, 37, 5.368812066526217e-15, 1.1899155337489852e-14),
    (4, 0, 16, 3.1086046489128366e-14, 1.3922777633897493e-14),
    (4, 1, 22, 1.6251405867438993e-14, 1.7028387649214076e-14),
    (4, 2, 20, 1.8818160784036897e-14, 1.3719144454799982e-14),
]


@pytest.mark.parametrize("n, seed, positive, recon, q", _PARENT_POINT_VERIFY)
def test_point_verify_matches_the_per_point_loop(tmp_path, capsys, n, seed, positive, recon, q):
    out = str(tmp_path / "o")
    assert run(["point-verify", "--n", str(n), "--samples", "40", "--seed", str(seed), "--out", out]) == 0
    rep = _read_report(out)
    norms = rep["residual_norms"]
    assert (norms["dims"], norms["gram_vs_contraction"]) == (0, 0)
    assert abs(norms["reconstruction"] - recon) <= 1e-12 and abs(norms["q_involution"] - q) <= 1e-12
    assert rep["iteration_traces"] == {"samples_checked": 40, "degenerate_skipped": 0, "positive": positive}
    assert set(rep["timings"]) == {"wall_time_s", "certify_s", "batched_s"}


def test_fiber_verify_fails_on_one_nan_check(monkeypatch, capsys):
    # the first rho of the first sample is NaN, every later check is finite and small
    real, calls = fiber.rho, []

    def rho(x):
        calls.append(x)
        return real(x) * (np.nan if len(calls) == 1 else 1.0)

    monkeypatch.setattr(fiber, "rho", rho)
    assert run(["fiber-verify", "--n", "3"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert np.isnan(rep["residual_norms"]["involution_algebra"])
    assert rep["messages"] == ["involution_algebra = nan exceeds 1e-12"]


def _with_nan(arr):
    """A copy of ``arr`` whose first entry is NaN."""
    out = arr.copy()
    out.flat[0] = np.nan
    return out


def _nan_q(real):
    return lambda *args: _with_nan(real(*args))


@pytest.mark.parametrize(
    "target, make, key, message",
    [
        ("four_way", lambda real: lambda *a: _with_nan(real(*a)), "reconstruction", "four-way reconstruction above 1e-10"),
        ("q_matrices", _nan_q, "q_involution", "Q is not an involution"),
    ],
)
def test_point_verify_fails_on_one_nan_sample(monkeypatch, capsys, target, make, key, message):
    monkeypatch.setattr(fp, target, make(getattr(fp, target)))
    assert run(["point-verify", "--n", "3", "--samples", "40", "--seed", "1"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert np.isnan(rep["residual_norms"][key])
    assert rep["messages"] == [message]


def test_point_verify_draws_in_the_sequential_order(monkeypatch):
    n, samples, seed = 3, 10, 5
    real, seen = fp.fock_point, []

    def every_third_degenerate(n, mu):
        seen.append(np.array(mu))
        if len(seen) % 3 == 0:
            raise DegenerateStructureError("stub")
        return real(n, mu)

    monkeypatch.setattr(fp, "fock_point", every_third_degenerate)
    phi2, omega, skipped = cli._draw_certified(n, samples, np.random.default_rng(seed))
    # the per-point loop's draws: mu, then omega's two matrices after a certified mu
    rng = np.random.default_rng(seed)
    want_mu, want_phi2, want_omega = [], [], []
    for k in range(1, samples + 1):
        want_mu.append(0.25 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)))
        if k % 3:
            want_phi2.append(real(n, want_mu[-1]).phi2)
            want_omega.append([fiber.random_traceless(n, rng), fiber.random_traceless(n, rng)])
    assert skipped == 3
    assert np.array_equal(np.array(seen), np.array(want_mu))
    assert np.array_equal(phi2, np.array(want_phi2)) and np.array_equal(omega, np.array(want_omega))


@pytest.mark.parametrize("samples", [1, 31, 32, 33])
def test_point_verify_block_edges(capsys, monkeypatch, samples):
    def report():
        assert run(["point-verify", "--n", "4", "--samples", str(samples), "--seed", "3"]) == 0
        return json.loads(capsys.readouterr().out)

    blocked = report()
    monkeypatch.setattr(cli, "POINT_BLOCK", 1)
    single = report()
    assert blocked["iteration_traces"] == single["iteration_traces"]
    assert blocked["iteration_traces"]["samples_checked"] == samples
    for key, value in single["residual_norms"].items():
        assert abs(blocked["residual_norms"][key] - value) <= 1e-12


def test_solve_computes_no_unread_connection_report(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("connection_report", "sigma_defect"):
        real = getattr(cn, name)
        monkeypatch.setattr(cn, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    cfg = {
        "n": 2,
        "chart": {"kind": "dirichlet-disk", "nx": 16, "ny": 16, "radius": 0.5},
        "solver": {"continuation_steps": 1},
        "output_dir": str(tmp_path / "o"),
    }
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 0
    assert calls == []
    fd = sv.fuchsian_reference(2, chm.disk_chart(16, 16, 0.5))
    assert fd.curvature_sup > 0  # the reference's curvature needs no connection report
    assert calls == []
    assert "sigma_defect" in cn.connection_report(fd.Phi, fd.A, h=fd.h)
    assert calls == ["connection_report", "sigma_defect"]


def test_fuchsian_refinement_report(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = {
        "n": 2,
        "chart": {"kind": "dirichlet-disk", "nx": 33, "ny": 33, "radius": 0.5},
        "grids": [33, 65],
        "output_dir": out,
    }
    assert run(["fuchsian", "--config", _write_config(tmp_path, "c.json", cfg)]) == 0
    rep = _read_report(out)
    assert 3.0 < rep["residual_norms"]["ratio"] < 5.3


@pytest.mark.parametrize("grids", [[12], [12, 12]])
def test_fuchsian_needs_two_distinct_grids(tmp_path, capsys, grids):
    cfg = {
        "n": 2,
        "chart": {"kind": "dirichlet-disk", "nx": 12, "ny": 12, "radius": 0.5},
        "grids": grids,
        "output_dir": str(tmp_path / "o"),
    }
    assert run(["fuchsian", "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    assert "grids" in capsys.readouterr().err


def test_fuchsian_writes_fields(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = {
        "n": 2,
        "chart": {"kind": "dirichlet-disk", "nx": 33, "ny": 33, "radius": 0.5},
        "output_dir": out,
    }
    assert run(["fuchsian", "--config", _write_config(tmp_path, "c.json", cfg)]) == 0
    for name in ("A.csv", "h.csv", "g.csv", "report.json"):
        assert os.path.exists(os.path.join(out, name))


def test_solve_small(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = {
        "n": 3,
        "chart": {"kind": "dirichlet-disk", "nx": 32, "ny": 32, "radius": 0.5},
        "beltrami": {"3": {"type": "bump", "center": [0.0, 0.0], "radius": 0.25, "amplitude": 0.004}},
        "solver": {"continuation_steps": 1, "newton_tol": 1e-9, "cg_tol": 1e-10, "max_cg": 3000, "preconditioner": "jacobi"},
        "output_dir": out,
    }
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 0
    rep = _read_report(out)
    assert rep["status"] == "ok"
    assert rep["residual_norms"]["final_residual"] < 1e-9
    assert rep["iteration_traces"]["per_step"][0]["newton_iters"] <= 8
    for name in ("eta.csv", "phi.csv", "A.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_muholo_report_and_determinism(tmp_path, capsys):
    outa = str(tmp_path / "a")
    outb = str(tmp_path / "b")
    base = {
        "n": 2,
        "chart": {"kind": "periodic-rect", "nx": 24, "ny": 24, "lx": 1.0, "ly": 1.0},
        "beltrami": {"2": {"type": "bump", "center": [0.5, 0.5], "radius": 0.3, "amplitude": 0.05}},
        "covector": {"2": {"type": "bump", "center": [0.4, 0.6], "radius": 0.35, "amplitude": 0.2}},
    }
    cfg_a = dict(base, output_dir=outa)
    cfg_b = dict(base, output_dir=outb)
    assert run(["muholo", "--config", _write_config(tmp_path, "a.json", cfg_a)]) == 0
    assert run(["muholo", "--config", _write_config(tmp_path, "b.json", cfg_b)]) == 0
    ra, rb = _read_report(outa), _read_report(outb)
    assert ra["residual_norms"] == rb["residual_norms"]
    assert "wall_time_s" in ra["timings"]
    assert ra["residual_norms"]["equivalence_sup"] < 100 * (1.0 / 24) ** 2


def test_flow_report(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = {
        "n": 2,
        "chart": {"kind": "periodic-rect", "nx": 24, "ny": 24},
        "beltrami": {"2": {"type": "constant", "value": 0.0}},
        "covector": {"2": {"type": "bump", "center": [0.5, 0.5], "radius": 0.3, "amplitude": 0.1}},
        "hamiltonian": {"ell": 2, "eps": 1e-3, "steps": 2, "w": {"type": "bump", "center": [0.5, 0.5], "radius": 0.3, "amplitude": 0.1}},
        "output_dir": out,
    }
    assert run(["flow", "--config", _write_config(tmp_path, "c.json", cfg)]) == 0
    rep = _read_report(out)
    assert "before" in rep["residual_norms"] and "after" in rep["residual_norms"]


def _nan_at_k3(real):
    def residual(*args):
        res = dict(real(*args))
        res[3] = res[3] * np.nan
        return res

    return residual


def test_muholo_does_not_drop_a_nan_difference(tmp_path, capsys, monkeypatch):
    # a NaN gauge residual at k = 3 reaches equivalence_sup and trips its warning gate
    monkeypatch.setattr(hf, "gauge_muholo_residual", _nan_at_k3(hf.gauge_muholo_residual))
    out = str(tmp_path / "o")
    cfg = {"n": 3, "chart": _PERIODIC8, "output_dir": out}
    assert run(["muholo", "--config", _write_config(tmp_path, "m.json", cfg)]) == 1
    rep = _read_report(out)
    norms = rep["residual_norms"]
    assert np.isnan(norms["difference_3"]) and np.isnan(norms["equivalence_sup"])
    assert rep["status"] == "warn"
    assert rep["messages"] == ["gauge/tensor residual difference nan above 1.6e+00"]


def test_flow_does_not_drop_a_nan_residual(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hf, "mu_holo_residual", _nan_at_k3(hf.mu_holo_residual))
    out = str(tmp_path / "o")
    cfg = {"n": 3, "chart": _PERIODIC8, "output_dir": out,
           "hamiltonian": {"ell": 2, "w": {"type": "constant", "value": 0.0}}}
    assert run(["flow", "--config", _write_config(tmp_path, "f.json", cfg)]) == 2
    rep = _read_report(out)
    norms = rep["residual_norms"]
    assert np.isnan(norms["before"]["mu_holo_sup"]) and np.isnan(norms["after"]["mu_holo_sup"])
    assert rep["status"] == "fail"
    assert rep["messages"] == ["before.mu_holo_sup is not finite: nan", "after.mu_holo_sup is not finite: nan"]


def test_flow_fails_on_a_nan_curvature_after_the_step(tmp_path, capsys, monkeypatch):
    # the residual table is taken before and after the step; only the second
    # curvature is NaN, and the report names that one key
    real, calls = cn.curvature_total, []

    def curvature_total(*args):
        calls.append(None)
        curv = real(*args)
        return chm.LieForm(curv.chart, 2, d0=curv.d0 * (np.nan if len(calls) == 2 else 1.0))

    monkeypatch.setattr(cn, "curvature_total", curvature_total)
    out = str(tmp_path / "o")
    cfg = {"n": 2, "chart": _PERIODIC8, "output_dir": out,
           "hamiltonian": {"ell": 2, "w": {"type": "constant", "value": 0.0}}}
    assert run(["flow", "--config", _write_config(tmp_path, "f.json", cfg)]) == 2
    rep = _read_report(out)
    assert len(calls) == 2 and np.isfinite(rep["residual_norms"]["before"]["curvature_sup"])
    assert rep["status"] == "fail"
    assert rep["messages"] == ["after.curvature_sup is not finite: nan"]


def test_fillin_warns_on_a_nan_compatibility_residual(tmp_path, capsys, monkeypatch):
    real = cn.fill_in

    def fill_in(*args, **kwargs):
        a = real(*args, **kwargs)
        d1 = a.d1.copy()
        d1[0, 0, 0, 0] = np.nan
        return chm.LieForm(a.chart, 1, d1=d1, d2=a.d2)

    monkeypatch.setattr(cn, "fill_in", fill_in)
    out = str(tmp_path / "o")
    cfg = {"n": 3, "chart": _PERIODIC8, "output_dir": out}
    assert run(["fillin", "--config", _write_config(tmp_path, "c.json", cfg)]) == 1
    rep = _read_report(out)
    assert np.isnan(rep["residual_norms"]["compat_residual_phi"])
    assert rep["status"] == "warn"
    assert rep["messages"] == ["phi-compatibility residual nan above the h^2 floor"]


def test_fillin_command(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = {
        "n": 2,
        "chart": {"kind": "dirichlet-disk", "nx": 33, "ny": 33, "radius": 0.5},
        "hermitian": "fuchsian",
        "output_dir": out,
    }
    assert run(["fillin", "--config", _write_config(tmp_path, "c.json", cfg)]) == 0
    rep = _read_report(out)
    assert rep["residual_norms"]["compat_residual_phi"] < 1e-10
    assert os.path.exists(os.path.join(out, "A.csv"))


# Small runs of the commands that write fields, each with the files it writes.
# ``solve`` has a mu_3 bump, so it reaches CG and Newton; ``flow`` writes no
# CSV, so its report's values stand for its output.
_DISK16 = {"kind": "dirichlet-disk", "nx": 16, "ny": 16, "radius": 0.5}
_PERIODIC16 = {"kind": "periodic-rect", "nx": 16, "ny": 16, "lx": 1.0, "ly": 1.0}
_BUMP = {"type": "bump", "center": [0.5, 0.5], "radius": 0.3}
_DETERMINISM_RUNS = {
    "solve": (
        {
            "n": 3,
            "chart": _DISK16,
            "beltrami": {"3": {"type": "bump", "center": [0.02, -0.01], "radius": 0.3, "amplitude": 0.01}},
            "solver": {"continuation_steps": 2, "preconditioner": "jacobi"},
        },
        ("eta.csv", "phi.csv", "A.csv"),
    ),
    "fuchsian": ({"n": 3, "chart": _DISK16}, ("A.csv", "h.csv", "g.csv")),
    "fillin": (
        {"n": 3, "chart": _PERIODIC16, "beltrami": {"2": dict(_BUMP, amplitude=0.05), "3": dict(_BUMP, amplitude=0.02)}},
        ("A.csv",),
    ),
    "flow": (
        {
            "n": 3,
            "chart": _PERIODIC16,
            "beltrami": {"3": dict(_BUMP, amplitude=0.02)},
            "covector": {"2": dict(_BUMP, amplitude=0.1)},
            "hamiltonian": {"ell": 2, "eps": 1e-3, "steps": 2, "w": dict(_BUMP, amplitude=0.1)},
        },
        (),
    ),
}


def _determinism_configs(tmp_path, tag):
    """Write each run's config with its output under ``tag``; (command, config
    path, output dir) per run."""
    runs = []
    for cmd, (cfg, _) in _DETERMINISM_RUNS.items():
        out = tmp_path / tag / cmd
        runs.append((cmd, _write_config(tmp_path, f"{tag}-{cmd}.json", dict(cfg, output_dir=str(out))), out))
    return runs


def _determinism_outputs(runs):
    """The bytes of every CSV the runs wrote, and each report's values."""
    got = {}
    for cmd, _, out in runs:
        for name in _DETERMINISM_RUNS[cmd][1]:
            got[cmd, name] = (out / name).read_bytes()
        rep = _read_report(out)
        assert rep["status"] == "ok", rep["messages"]
        assert "wall_time_s" in rep["timings"]
        got[cmd, "report"] = json.dumps([rep["residual_norms"], rep["iteration_traces"]])
    return got


def test_csv_outputs_bitwise_deterministic(tmp_path, capsys):
    outputs = []
    for tag in ("x", "y"):
        runs = _determinism_configs(tmp_path, tag)
        for cmd, path, _ in runs:
            assert run([cmd, "--config", path]) == 0
        outputs.append(_determinism_outputs(runs))
    assert outputs[0] == outputs[1]
    steps = json.loads(outputs[0]["solve", "report"])[1]["per_step"]
    assert len(steps) == 2 and all(step["newton_iters"] > 0 for step in steps)


def test_failed_solve_writes_fail_report(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = {
        "n": 3,
        "chart": {"kind": "dirichlet-disk", "nx": 16, "ny": 16, "radius": 0.5},
        "beltrami": {"3": {"type": "bump", "center": [0.0, 0.0], "radius": 0.25, "amplitude": 0.01}},
        "solver": {"continuation_steps": 1, "max_newton": 1, "preconditioner": "jacobi"},
        "output_dir": out,
    }
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 2
    rep = _read_report(out)
    assert rep["command"] == "solve" and rep["status"] == "fail"
    assert rep["messages"] == ["NonConvergenceError: Newton did not converge at s=1.000"]
    history = rep["iteration_traces"]["history"]
    assert len(history) == 2 and all(isinstance(r, float) for r in history)
    assert rep["iteration_traces"]["per_step"] == []


def test_failed_solve_keeps_finished_steps(tmp_path, capsys, monkeypatch):
    margins = iter([1.0, 0.0])  # positivity holds at s = 0.5 and is lost at s = 1
    monkeypatch.setattr(sv, "positivity_margin_field", lambda phi, h: next(margins))
    out = str(tmp_path / "o")
    cfg = {
        "n": 3,
        "chart": {"kind": "dirichlet-disk", "nx": 16, "ny": 16, "radius": 0.5},
        "beltrami": {"3": {"type": "bump", "center": [0.0, 0.0], "radius": 0.25, "amplitude": 0.01}},
        "solver": {"continuation_steps": 2, "preconditioner": "jacobi"},
        "output_dir": out,
    }
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 2
    rep = _read_report(out)
    assert rep["messages"] == ["PositivityError: positivity lost at continuation parameter s=1.000"]
    assert rep["iteration_traces"]["where"] == 1.0
    (step,) = rep["iteration_traces"]["per_step"]
    assert step["s"] == 0.5 and step["newton_iters"] >= 1
    assert len(step["residuals"]) == step["newton_iters"] + 1 and step["residuals"][-1] <= 1e-10


def test_failed_solve_keeps_finished_steps_on_any_exception(tmp_path, capsys, monkeypatch):
    calls, real = [], sv.q_matrices

    def second_raises(*fields):  # the linearization of the second continuation step
        calls.append(1)
        if len(calls) == 2:
            raise DecompositionError("stub: no Q")
        return real(*fields)

    monkeypatch.setattr(sv, "q_matrices", second_raises)
    out = str(tmp_path / "o")
    cfg = {
        "n": 3,
        "chart": {"kind": "dirichlet-disk", "nx": 16, "ny": 16, "radius": 0.5},
        "beltrami": {"3": {"type": "bump", "center": [0.0, 0.0], "radius": 0.25, "amplitude": 0.01}},
        "solver": {"continuation_steps": 2, "preconditioner": "jacobi"},
        "output_dir": out,
    }
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 2
    assert len(calls) == 2
    rep = _read_report(out)
    assert rep["messages"] == ["DecompositionError: stub: no Q"]
    (step,) = rep["iteration_traces"]["per_step"]
    assert step["s"] == 0.5 and step["newton_iters"] >= 1
    assert "wall_time_s" in rep["timings"]


# One kernel of each subcommand, and a small config for those that read one.
_KERNELS = {
    "fiber-verify": (fiber, "centralizer_basis"),
    "point-verify": (fp, "q_matrices"),
    "fuchsian": (sv, "fuchsian_reference"),
    "fillin": (cn, "fill_in"),
    "solve": (sv, "newton_continuation"),
    "muholo": (cn, "inject_covector"),
    "flow": (hf, "flow_step"),
}
_DISK12 = {"kind": "dirichlet-disk", "nx": 12, "ny": 12, "radius": 0.5}
_PERIODIC8 = {"kind": "periodic-rect", "nx": 8, "ny": 8}
_KERNEL_CONFIGS = {
    "fuchsian": {"n": 2, "chart": _DISK12},
    "fillin": {"n": 2, "chart": _PERIODIC8},
    "solve": {"n": 2, "chart": _DISK12},
    "muholo": {"n": 2, "chart": _PERIODIC8},
    "flow": {"n": 2, "chart": _PERIODIC8, "hamiltonian": {"ell": 2, "w": {"type": "constant", "value": 0.0}}},
}


def _kernel_raises(*args, **kwargs):
    raise NonConvergenceError("kernel stub", history=[0.5, 0.25])


@pytest.mark.parametrize(
    "cmd, to_dir", [(cmd, True) for cmd in _KERNELS] + [("fiber-verify", False), ("point-verify", False)]
)
def test_every_failed_run_emits_its_fail_report(tmp_path, capsys, monkeypatch, cmd, to_dir):
    monkeypatch.setattr(*_KERNELS[cmd], _kernel_raises)
    out = tmp_path / "o"
    if cmd in _KERNEL_CONFIGS:
        argv = [cmd, "--config", _write_config(tmp_path, "c.json", dict(_KERNEL_CONFIGS[cmd], output_dir=str(out)))]
    else:
        argv = [cmd, "--n", "3", "--samples", "5"] + (["--out", str(out)] if to_dir else [])
    assert run(argv) == 2
    printed = capsys.readouterr()
    assert "no report written" not in printed.err
    rep = json.loads(printed.out)
    assert rep["command"] == cmd and rep["status"] == "fail"
    assert rep["messages"] == ["NonConvergenceError: kernel stub"]
    assert rep["iteration_traces"] == {"history": [0.5, 0.25]}
    assert set(rep["timings"]) == {"wall_time_s"}
    if to_dir:
        assert _read_report(out) == rep
    else:
        assert not out.exists()


@pytest.mark.parametrize(
    "cmd, section, key, value",
    [
        ("fuchsian", None, "n", "x"),
        ("flow", None, "n", "x"),
        ("flow", "hamiltonian", "ell", "two"),
        ("flow", "hamiltonian", "eps", "small"),
        ("flow", "hamiltonian", "steps", [1]),
        ("solve", "solver", "preconditioner", "Jacobi"),
        ("flow", "beltrami", "x", {"type": "constant"}),
        ("flow", "hamiltonian/w", "radius", "wide"),
        ("flow", None, "hamiltonian", 3),
        # integer keys take JSON integers only, fd_check JSON booleans only
        ("fuchsian", None, "n", 3.5),
        ("solve", None, "n", True),
        ("solve", "chart", "nx", 12.0),
        ("flow", "chart", "ny", False),
        ("fuchsian", None, "grids", [12, 16.5]),
        ("fuchsian", None, "grids", [12, True]),
        # grids, when given, is a list of two or more distinct integers
        ("fuchsian", None, "grids", 0),
        ("fuchsian", None, "grids", False),
        ("fuchsian", None, "grids", ""),
        ("fuchsian", None, "grids", {}),
        ("fuchsian", None, "grids", []),
        ("flow", "hamiltonian", "ell", 2.0),
        ("flow", "hamiltonian", "steps", True),
        ("solve", "solver", "continuation_steps", 2.7),
        ("solve", "solver", "max_newton", "12"),
        ("solve", "solver", "max_cg", 4000.0),
        ("solve", "solver", "fd_check", "false"),
        ("solve", "solver", "fd_check", 0),
        # hermitian names one of the two structures
        ("fillin", None, "hermitian", "fuchsain"),
        # numbers are JSON numbers: no string or boolean is read as one
        ("fillin", "chart", "lx", True),
        ("fillin", "chart", "lx", "1.0"),
        ("fillin", "chart", "radius", "0.5"),
        ("flow", "hamiltonian/w", "radius", True),
        ("flow", "hamiltonian/w", "amplitude", "0.1"),
        ("fillin", "beltrami/2", "value", "1+1j"),
        ("flow", "hamiltonian", "eps", "0.001"),
        ("flow", "hamiltonian", "eps", True),
        ("solve", "solver", "cg_tol", "1e-11"),
        # lengths are finite and positive, eps is finite, steps >= 1, n >= 2
        ("fillin", "chart", "lx", 0),
        ("flow", "hamiltonian/w", "radius", 0),
        ("flow", "hamiltonian/w", "radius", -1),
        ("flow", "hamiltonian/w", "radius", 1e-200),  # its square underflows to 0
        ("flow", "hamiltonian", "eps", float("nan")),
        ("flow", "hamiltonian", "steps", 0),
        ("flow", "hamiltonian", "steps", -3),
        ("solve", None, "n", 1),
        # the ranges the library checks while the inputs are built
        ("flow", "hamiltonian", "ell", 7),
        ("fillin", "chart", "radius", 0.9),
        ("solve", "solver", "cg_tol", 2.0),
        ("solve", "solver", "max_cg", 0),
        ("fillin", None, "output_dir", 5),
        # c0 and seed are no longer keys, so every value of theirs is an unknown
        # key: the Fuchsian scale is always searched, and only fiber-verify and
        # point-verify draw, from --seed
        ("solve", None, "c0", "abc"),
        ("solve", None, "c0", True),
        ("solve", None, "c0", -1.0),
        ("solve", None, "c0", 0),
        ("solve", None, "seed", "x"),
        # block Jacobi is the solver's only preconditioner
        ("solve", "solver", "preconditioner", "none"),
    ],
)
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, cmd, section, key, value):
    cfg = {
        "n": 2,
        "chart": {"kind": "dirichlet-disk", "nx": 12, "ny": 12, "radius": 0.5},
        "beltrami": {"2": {"type": "constant", "value": 0.0}},
        "solver": {},
        "hamiltonian": {"ell": 2, "w": {"type": "bump", "amplitude": 0.0}},
        "output_dir": str(tmp_path / "o"),
    }
    if key in ("lx", "ly"):  # the lengths of a periodic chart
        cfg["chart"] = {"kind": "periodic-rect", "nx": 12, "ny": 12}
    spec = cfg
    for part in section.split("/") if section else []:  # a path into nested specs
        spec = spec[part]
    spec[key] = value
    assert run([cmd, "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    message = f"unknown key {key!r}" if key in ("c0", "seed") else f"{key!r} must be"
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize(
    "path, message",
    [
        (("n",), "'config' is missing 'n'"),
        (("chart",), "'config' is missing 'chart'"),
        (("chart", "kind"), "'chart' is missing 'kind'"),
        (("hamiltonian", "ell"), "'hamiltonian' is missing 'ell'"),
        (("hamiltonian", "w"), "'hamiltonian' is missing 'w'"),
        (("beltrami", "3", "path"), "\"beltrami['3']\" is missing 'path'"),
        (("hamiltonian",), "'config' is missing 'hamiltonian', which flow reads"),
        (("beltrami", "3", "type"), "\"beltrami['3']\" is missing 'type'"),
        (("hamiltonian", "w", "type"), "'w' is missing 'type'"),
    ],
)
def test_missing_required_key_is_config_error(tmp_path, capsys, path, message):
    ch = chm.periodic_chart(8, 8)
    chm.save_scalar_csv(tmp_path / "mu3.csv", chm.ScalarField(ch, np.zeros((8, 8), dtype=complex)))
    cfg = {
        "n": 3,
        "chart": {"kind": "periodic-rect", "nx": 8, "ny": 8},
        "beltrami": {"3": {"type": "file", "path": str(tmp_path / "mu3.csv")}},
        "hamiltonian": {"ell": 2, "w": {"type": "constant", "value": 0.0}},
        "output_dir": str(tmp_path / "o"),
    }
    spec = cfg
    for key in path[:-1]:
        spec = spec[key]
    del spec[path[-1]]
    assert run(["flow", "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_component_index_above_n_is_config_error(tmp_path, capsys):
    cfg = {
        "n": 3,
        "chart": {"kind": "periodic-rect", "nx": 8, "ny": 8},
        "beltrami": {"7": {"type": "constant", "value": 0.1}},
        "output_dir": str(tmp_path / "o"),
    }
    assert run(["fillin", "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    assert "component indices [7] must lie in 2..3" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_point_verify_fails_on_wrong_cohomology_dims(monkeypatch, capsys):
    real = fp.cohomology_dims
    monkeypatch.setattr(fp, "cohomology_dims", lambda *args: real(*args) + 1)
    assert run(["point-verify", "--n", "3", "--samples", "5", "--seed", "1"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["residual_norms"]["dims"] == rep["iteration_traces"]["samples_checked"] == 5
    assert rep["residual_norms"]["gram_vs_contraction"] == 0
    assert rep["messages"] == ["discrete invariants violated"]


def test_fillin_fuchsian_rejects_beltrami(tmp_path, capsys):
    cfg = {
        "n": 3,
        "chart": {"kind": "dirichlet-disk", "nx": 16, "ny": 16, "radius": 0.5},
        "beltrami": {"3": {"type": "bump", "radius": 0.2, "amplitude": 0.5}},
        "hermitian": "fuchsian",
        "output_dir": str(tmp_path / "o"),
    }
    assert run(["fillin", "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    assert "'beltrami' must be empty" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")
    cfg["beltrami"] = {}
    assert run(["fillin", "--config", _write_config(tmp_path, "c.json", cfg)]) == 0


@pytest.mark.parametrize(
    "cmd, extra",
    [("solve", {}), ("fuchsian", {}), ("fuchsian", {"grids": [8, 12]}), ("fillin", {"hermitian": "fuchsian"})],
    ids=["solve", "fuchsian", "fuchsian-grids", "fillin-fuchsian"],
)
def test_reference_on_a_periodic_chart_is_config_error(tmp_path, capsys, cmd, extra):
    # the Fuchsian reference exists only on a disk
    cfg = {"n": 2, "chart": {"kind": "periodic-rect", "nx": 8, "ny": 8}, "output_dir": str(tmp_path / "o")} | extra
    assert run([cmd, "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    err = capsys.readouterr().err
    assert f"config error: {cmd} needs a 'dirichlet-disk' chart" in err and "'periodic-rect'" in err
    assert not os.path.exists(tmp_path / "o")


def test_failed_line_search_reports_the_finished_steps(tmp_path, capsys, monkeypatch):
    # the Newton map scales the curvature by 10 from the second continuation
    # step's start on, so every trial of its line search is rejected
    newton_map, margin, steps = sv._newton_map, sv.positivity_margin_field, []

    def counted(phi, h):  # called once per step, after the step's first evaluation
        steps.append(1)
        return margin(phi, h)

    def scaled(phi, h):
        curv, conn = newton_map(phi, h)
        if len(steps) >= 2:
            curv = chm.LieForm(curv.chart, 2, d0=10.0 * curv.d0)
        return curv, conn

    monkeypatch.setattr(sv, "positivity_margin_field", counted)
    monkeypatch.setattr(sv, "_newton_map", scaled)
    out = str(tmp_path / "o")
    cfg = dict(_DETERMINISM_RUNS["solve"][0], output_dir=out)
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 2
    rep = _read_report(out)
    assert rep["status"] == "fail"
    assert rep["messages"] == ["NonConvergenceError: Newton line search failed at s=1.000"]
    traces = rep["iteration_traces"]
    assert len(traces["history"]) == 1 and traces["history"][0] > 0
    (first,) = traces["per_step"]
    assert first["s"] == 0.5 and first["residuals"][-1] <= 1e-10


def test_solve_reports_fd_checks(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = dict(_DETERMINISM_RUNS["solve"][0], output_dir=out)
    cfg["solver"] = dict(cfg["solver"], fd_check=True)
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 0
    traces = _read_report(out)["iteration_traces"]
    assert [c["s"] for c in traces["fd_checks"]] == [step["s"] for step in traces["per_step"]] == [0.5, 1.0]
    assert all(c["rel_mismatch"] < 0.05 for c in traces["fd_checks"])


def test_non_finite_field_data_is_config_error(tmp_path, capsys):
    ch = chm.disk_chart(16, 16, 0.5)
    data = np.zeros((16, 16), dtype=complex)
    data[3, 5] = np.nan
    chm.save_scalar_csv(str(tmp_path / "mu3.csv"), chm.ScalarField(ch, data))
    cfg = {
        "n": 3,
        "chart": {"kind": "dirichlet-disk", "nx": 16, "ny": 16, "radius": 0.5},
        "beltrami": {"3": {"type": "file", "path": str(tmp_path / "mu3.csv")}},
        "output_dir": str(tmp_path / "o"),
    }
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    assert "beltrami['3'] is not finite at grid point (3, 5)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, message",
    [
        ("x,y,re,im\r\n0,0,0,0\r\n", "line 1: bad scalar field header"),
        ("i,j,re,im\r\n0,0,0,0\r\n99,3,0,0\r\n", "line 3: index (99, 3) outside the 12 x 12 grid"),
        ("i,j,re,im\r\n-1,3,0,0\r\n", "line 2: index (-1, 3) outside the 12 x 12 grid"),
    ],
    ids=["bad-header", "index-outside", "negative-index"],
)
def test_malformed_field_file_is_config_error(tmp_path, capsys, body, message):
    path = tmp_path / "mu3.csv"
    path.write_bytes(body.encode())
    cfg = {
        "n": 3,
        "chart": {"kind": "periodic-rect", "nx": 12, "ny": 12},
        "beltrami": {"3": {"type": "file", "path": str(path)}},
        "output_dir": str(tmp_path / "o"),
    }
    assert run(["fillin", "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    err = capsys.readouterr().err
    assert f"beltrami['3']: {path}, {message}" in err


def test_field_file_with_missing_rows_is_config_error(tmp_path, capsys):
    ch = chm.periodic_chart(8, 8)
    path = tmp_path / "mu3.csv"
    chm.save_scalar_csv(path, chm.bump_field(ch, center=(0.5, 0.5), radius=0.3, amplitude=0.1))
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:40]))  # the header and 39 of 64 rows
    cfg = {
        "n": 3,
        "chart": {"kind": "periodic-rect", "nx": 8, "ny": 8},
        "beltrami": {"3": {"type": "file", "path": str(path)}},
        "output_dir": str(tmp_path / "o"),
    }
    assert run(["fillin", "--config", _write_config(tmp_path, "c.json", cfg)]) == 4
    assert f"beltrami['3']: {path}: no row for index (4, 7)" in capsys.readouterr().err


def test_nan_final_residual_is_a_failure(tmp_path, capsys, monkeypatch):
    newton_continuation = sv.newton_continuation

    def nan_residual(*args):
        eta, srep = newton_continuation(*args)
        return eta, dict(srep, final_residual=float("nan"))

    monkeypatch.setattr(sv, "newton_continuation", nan_residual)
    out = str(tmp_path / "o")
    cfg = {"n": 2, "chart": {"kind": "dirichlet-disk", "nx": 16, "ny": 16, "radius": 0.5}, "output_dir": out}
    assert run(["solve", "--config", _write_config(tmp_path, "c.json", cfg)]) == 2
    assert _read_report(out)["status"] == "fail"


def test_solve_csv_independent_of_blas_threads(tmp_path):
    # the thread count is set for the child processes only; each child runs every command
    outputs = []
    for threads in ("1", "2"):
        runs = _determinism_configs(tmp_path, f"threads{threads}")
        argv = [arg for cmd, path, _ in runs for arg in (cmd, path)]
        src = os.path.dirname(os.path.dirname(os.path.abspath(sv.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import sys\nfrom fockbench.cli import run\n"
            "sys.exit(max(run([c, '--config', p]) for c, p in zip(sys.argv[1::2], sys.argv[2::2])))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(_determinism_outputs(runs))
    assert outputs[0] == outputs[1]


# CLI fuzz: argv and JSON configs for every subcommand, each a small valid run
# with up to three keys replaced or deleted.  Whatever the input, the CLI
# answers with an exit code in 0..5 and no traceback, and a run that exits 2
# has emitted a fail report.

_DELETE = object()
_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.floats(-2.0, 9.0) | st.sampled_from([float("nan"), float("inf")]),
    st.text(max_size=4),
    st.lists(st.integers(-2, 12), max_size=3),
    st.dictionaries(st.sampled_from(["type", "value", "2", "x"]), st.integers(0, 3) | st.text(max_size=3), max_size=2),
)
_KEYS = [
    ("n",), ("chart",), ("chart", "kind"), ("chart", "nx"), ("chart", "ny"), ("chart", "radius"),
    ("chart", "lx"), ("beltrami",), ("beltrami", "2"), ("beltrami", "2", "type"), ("beltrami", "2", "path"),
    ("beltrami", "2", "value"), ("beltrami", "2", "radius"), ("covector", "2"), ("covector", "2", "radius"),
    ("solver",), ("solver", "continuation_steps"), ("solver", "max_newton"), ("solver", "preconditioner"),
    ("solver", "cg_tol"), ("hamiltonian",), ("hamiltonian", "ell"), ("hamiltonian", "steps"), ("hamiltonian", "eps"),
    ("hamiltonian", "w"), ("grids",), ("hermitian",), ("c0",), ("seed",), ("output_dir",), ("extra",),
]
_ZERO_ROWS = "".join(f"{i},{j},0,0\r\n" for i in range(8) for j in range(8) if (i, j) != (0, 0))  # the 8 x 8 periodic chart
_FIELD_FILES = {
    "good": "i,j,re,im\r\n0,0,0.01,0\r\n" + _ZERO_ROWS,
    "bad-header": "x,y,re,im\r\n0,0,0,0\r\n",
    "negative-index": "i,j,re,im\r\n-1,0,0,0\r\n",
    "not-a-number": "i,j,re,im\r\n0,0,one,0\r\n",
    "nan": "i,j,re,im\r\n0,0,nan,0\r\n" + _ZERO_ROWS,
    "missing-rows": "i,j,re,im\r\n0,0,0.01,0\r\n",
    "binary": "\xff\xfe\x00",
}


def _fuzz_config(cmd, root):
    disk = {"kind": "dirichlet-disk", "nx": 12, "ny": 12, "radius": 0.5}
    periodic = {"kind": "periodic-rect", "nx": 8, "ny": 8}
    field = {"type": "file", "path": os.path.join(root, "good.csv")}
    bump = {"type": "bump", "center": [0.5, 0.5], "radius": 0.3, "amplitude": 0.05}
    return {
        "fuchsian": {"n": 2, "chart": disk},
        "fillin": {"n": 2, "chart": periodic, "beltrami": {"2": field}},
        "solve": {"n": 2, "chart": disk, "solver": {"continuation_steps": 1, "max_newton": 3}},
        "muholo": {"n": 2, "chart": periodic, "beltrami": {"2": field}, "covector": {"2": bump}},
        "flow": {"n": 2, "chart": periodic, "beltrami": {"2": field}, "covector": {"2": bump},
                 "hamiltonian": {"ell": 2, "steps": 1, "w": bump}},
    }[cmd] | {"output_dir": os.path.join(root, "out")}


def _mutate(cfg, path, value):
    spec = cfg
    for key in path[:-1]:
        spec = spec.get(key) if isinstance(spec, dict) else None
    if not isinstance(spec, dict):
        return
    if value is _DELETE:
        spec.pop(path[-1], None)
    else:
        spec[path[-1]] = value


_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(_KEYS),
        st.one_of(st.just(_DELETE), _JSON, st.sampled_from(sorted(_FIELD_FILES)).map(lambda f: ("file", f))),
    ),
    max_size=3,
)
_VERIFY_FLAGS = st.lists(
    st.tuples(st.sampled_from(["--n", "--samples", "--seed", "--out", "--bogus"]), st.integers(-2, 5).map(str) | st.text(max_size=3)),
    max_size=4,
)


def _answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    cmd=st.sampled_from(cli._SUBCOMMANDS + ("bogus",)),
    mutations=_MUTATIONS,
    flags=_VERIFY_FLAGS,
    config=st.sampled_from(["built", "missing", "not-json", "array", "binary"]),
)
def test_cli_fuzz_exits_with_a_code(cmd, mutations, flags, config):
    outdir = None
    with tempfile.TemporaryDirectory() as root:
        for name, body in _FIELD_FILES.items():
            with open(os.path.join(root, f"{name}.csv"), "w", encoding="latin-1") as fh:
                fh.write(body)
        if cmd in ("fiber-verify", "point-verify"):
            argv = [cmd] + [part for flag, value in flags for part in (flag, value)]
            if "--n" not in argv:
                argv += ["--n", "3"]
            argv = [os.path.join(root, "out") if prev == "--out" else arg for prev, arg in zip([None] + argv, argv)]
            outdir = os.path.join(root, "out") if "--out" in argv else None
        else:
            path = os.path.join(root, "c.json")
            if config == "built" and cmd != "bogus":
                cfg = _fuzz_config(cmd, root)
                for key, value in mutations:
                    if isinstance(value, tuple):
                        value = {"type": "file", "path": os.path.join(root, f"{value[1]}.csv")}
                    elif key == ("output_dir",) and isinstance(value, str):
                        value = os.path.join(root, "good.csv", value)  # under a file: not creatable
                    _mutate(cfg, key, value)
                text = json.dumps(cfg)
                outdir = cfg.get("output_dir", "out")
            else:
                text = {"missing": None, "not-json": "{n: 2", "array": "[1, 2]", "binary": "\xff\xfe{}"}.get(config, "{}")
            if text is not None:
                with open(path, "w", encoding="latin-1") as fh:
                    fh.write(text)
            argv = [cmd, "--config", path]
        cwd = os.getcwd()
        os.chdir(root)  # a config without output_dir writes to the relative "out"
        try:
            rc, out, err = _answer(argv)
            if rc == 2:  # a failed run emits its fail report
                rep = json.loads(out)
                assert rep["status"] == "fail", (argv, rep)
                if outdir is not None:
                    assert _read_report(outdir) == rep, argv
        finally:
            os.chdir(cwd)
    assert rc in range(6), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
