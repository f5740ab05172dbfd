"""Which fockbench functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules.  ``fiber`` has no metric: its bases are
``lru_cache``d per-n constants.  Every ``_s`` metric is self time (span
duration minus the time its traced children cover), except
``solver.newton_map_s`` and the ``cli.*_s`` subcommand times, which are whole
span durations.
"""

from __future__ import annotations

import os
from collections import defaultdict

from fockbench import chart, cli, connection, fockpoint, hcsflow, report, solver

from .tracing import ancestors, self_times

def _stencil_name(args, kwargs):
    """Span name by the boundary policy the stencil resolves to, as in
    ``chart._d_dispatch``."""
    boundary = args[2] if len(args) > 2 else kwargs.get("boundary", "auto")
    if boundary == "auto":
        boundary = "periodic" if args[0].periodic else "masked"
    return f"chart.stencil_{boundary}"


def _cli_name(args, kwargs):
    argv = list(args[0]) if args else []
    return "cli." + (argv[0].replace("-", "_") if argv else "usage")


def _rows(arr) -> int:
    return 0 if arr is None else arr.size


def _file(path) -> str:
    """The file name with its directory, which tells same-named outputs apart."""
    head, tail = os.path.split(str(path))
    return os.path.join(os.path.basename(head), tail)


def _written(path, rows):
    return {"path": _file(path), "rows": rows, "bytes": os.path.getsize(path)}


def _describe_save_scalar(args, kwargs, result):
    return _written(args[0], args[1].data.size)


def _describe_save_lieform(args, kwargs, result):
    form = args[1]
    return _written(args[0], _rows(form.d0) + _rows(form.d1) + _rows(form.d2))


def _describe_save_matrix(args, kwargs, result):
    return _written(args[0], args[2].size)


def _describe_load_scalar(args, kwargs, result):
    ch = args[1]
    return {"path": _file(args[0]), "rows": result.data.size, "grid": [ch.nx, ch.ny], "n": 1}


def _describe_load_lieform(args, kwargs, result):
    ch, n = args[1], args[3]
    rows = _rows(result.d0) + _rows(result.d1) + _rows(result.d2)
    return {"path": _file(args[0]), "rows": rows, "grid": [ch.nx, ch.ny], "n": n}


TARGETS = [
    (cli, "run", _cli_name, None),
    (report.SolveReport, "to_json", "cli.report", None),
    (solver, "fuchsian_reference", "solver.fuchsian_reference", None),
    (solver, "newton_continuation", "solver.newton_continuation", None),
    (solver, "conjugate_field", "solver.conjugate_field", None),
    (solver, "positivity_margin_field", "solver.positivity_margin_field", None),
    (solver.AdmissibleSpace, "__init__", "solver.AdmissibleSpace", None),
    (solver.LinearizedContext, "__init__", "solver.LinearizedContext", None),
    (solver.LinearizedContext, "apply_coords", "solver.apply_coords", None),
    (connection, "fill_in", "connection.fill_in", None),
    (connection, "curvature_total", "connection.curvature_total", None),
    (connection, "inject_covector", "connection.inject_covector", None),
    (chart, "dz_array", _stencil_name, None),
    (chart, "dzbar_array", _stencil_name, None),
    (chart, "save_scalar_csv", "chart.csv_write", _describe_save_scalar),
    (chart, "save_lieform_csv", "chart.csv_write", _describe_save_lieform),
    (chart, "save_matrix_field_csv", "chart.csv_write", _describe_save_matrix),
    (chart, "load_scalar_csv", "chart.csv_read", _describe_load_scalar),
    # load_matrix_field_csv reads through load_lieform_csv, so it is covered.
    (chart, "load_lieform_csv", "chart.csv_read", _describe_load_lieform),
    (hcsflow, "flow_step", "hcsflow.flow_step", None),
    (hcsflow, "mu_holo_residual", "hcsflow.residual", None),
    (hcsflow, "gauge_muholo_residual", "hcsflow.residual", None),
    (hcsflow, "fock_form", "hcsflow.fock_form", None),
    (fockpoint, "fock_point", "fockpoint.fock_point", None),
    (fockpoint, "four_way_decompose", "fockpoint.decompose", None),
]

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer.
METRICS = {
    "solver.apply_s": ("s", "lower"),
    "solver.apply_calls": ("count", "lower"),
    "solver.cg_per_newton": ("ratio", "lower"),
    "solver.newton_iters": ("count", "lower"),
    "solver.linearized_build_s": ("s", "lower"),
    "solver.admissible_build_s": ("s", "lower"),
    "solver.newton_map_s": ("s", "lower"),
    "solver.newton_map_evals": ("count", "lower"),
    "solver.newton_accept_ratio": ("ratio", "higher"),
    "solver.positivity_s": ("s", "lower"),
    "solver.fuchsian_reference_s": ("s", "lower"),
    "solver.c0_evals": ("count", "lower"),
    "connection.fill_in_s": ("s", "lower"),
    "connection.fill_in_calls": ("count", "lower"),
    "connection.curvature_total_s": ("s", "lower"),
    "connection.curvature_total_calls": ("count", "lower"),
    "connection.inject_covector_s": ("s", "lower"),
    "chart.stencil_rect_s": ("s", "lower"),
    "chart.stencil_zerofill_s": ("s", "lower"),
    "chart.stencil_periodic_s": ("s", "lower"),
    "chart.stencil_masked_s": ("s", "lower"),
    "chart.stencil_calls": ("count", "lower"),
    "chart.csv_write_s": ("s", "lower"),
    "chart.csv_write_rows": ("count", "lower"),
    "chart.csv_write_mb": ("MB", "lower"),
    "chart.csv_read_s": ("s", "lower"),
    "chart.csv_read_rows": ("count", "lower"),
    "chart.csv_read_us_per_row": ("us/row", "lower"),
    "hcsflow.flow_step_s": ("s", "lower"),
    "hcsflow.residual_s": ("s", "lower"),
    "hcsflow.fock_form_s": ("s", "lower"),
    "fockpoint.fock_point_s": ("s", "lower"),
    "fockpoint.decompose_s": ("s", "lower"),
    "fockpoint.points_attempted": ("count", "lower"),
    "fockpoint.accept_ratio": ("ratio", "higher"),
    "cli.fuchsian_s": ("s", "lower"),
    "cli.fillin_s": ("s", "lower"),
    "cli.muholo_s": ("s", "lower"),
    "cli.flow_s": ("s", "lower"),
    "cli.point_verify_s": ("s", "lower"),
    "cli.solve_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

_NEWTON_MAP = ("solver.conjugate_field", "connection.fill_in", "connection.curvature_total")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, newton_iters: int) -> dict[str, float]:
    """Per-layer values of one traced iteration (``trace.overhead_frac`` is
    left to the caller, which has the untraced times)."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total_s = defaultdict(float)
    for s in spans:
        self_s[s["name"]] += own[s["id"]]
        total_s[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1

    newton_map = [
        s for s in spans
        if s["name"] in _NEWTON_MAP and s["parent"] is not None
        and by_id[s["parent"]]["name"] == "solver.newton_continuation"
    ]
    map_evals = sum(s["name"] == "solver.conjugate_field" for s in newton_map)
    c0_fill_ins = sum(
        s["name"] == "connection.fill_in" and "solver.fuchsian_reference" in ancestors(by_id, s) for s in spans
    )
    writes = [s for s in spans if s["name"] == "chart.csv_write"]
    read_rows = sum(s["rows"] for s in spans if s["name"] == "chart.csv_read")
    points = [s for s in spans if s["name"] == "fockpoint.fock_point"]
    stencils = [f"chart.stencil_{p}" for p in ("rect", "zerofill", "periodic", "masked")]
    return {
        "solver.apply_s": self_s["solver.apply_coords"],
        "solver.apply_calls": calls["solver.apply_coords"],
        "solver.cg_per_newton": _ratio(calls["solver.apply_coords"], newton_iters),
        "solver.newton_iters": newton_iters,
        "solver.linearized_build_s": self_s["solver.LinearizedContext"],
        "solver.admissible_build_s": self_s["solver.AdmissibleSpace"],
        "solver.newton_map_s": sum((s["end"] - s["start"] for s in newton_map), 0.0),
        "solver.newton_map_evals": map_evals,
        "solver.newton_accept_ratio": _ratio(newton_iters, map_evals),
        "solver.positivity_s": self_s["solver.positivity_margin_field"],
        "solver.fuchsian_reference_s": self_s["solver.fuchsian_reference"],
        "solver.c0_evals": _ratio(c0_fill_ins, calls["solver.fuchsian_reference"]),
        "connection.fill_in_s": self_s["connection.fill_in"],
        "connection.fill_in_calls": calls["connection.fill_in"],
        "connection.curvature_total_s": self_s["connection.curvature_total"],
        "connection.curvature_total_calls": calls["connection.curvature_total"],
        "connection.inject_covector_s": self_s["connection.inject_covector"],
        **{f"{name}_s": self_s[name] for name in stencils},
        "chart.stencil_calls": sum(calls[name] for name in stencils),
        "chart.csv_write_s": self_s["chart.csv_write"],
        "chart.csv_write_rows": sum(s["rows"] for s in writes),
        "chart.csv_write_mb": sum(s["bytes"] for s in writes) / 1e6,
        "chart.csv_read_s": self_s["chart.csv_read"],
        "chart.csv_read_rows": read_rows,
        "chart.csv_read_us_per_row": 1e6 * _ratio(self_s["chart.csv_read"], read_rows),
        "hcsflow.flow_step_s": self_s["hcsflow.flow_step"],
        "hcsflow.residual_s": self_s["hcsflow.residual"],
        "hcsflow.fock_form_s": self_s["hcsflow.fock_form"],
        "fockpoint.fock_point_s": self_s["fockpoint.fock_point"],
        "fockpoint.decompose_s": self_s["fockpoint.decompose"],
        "fockpoint.points_attempted": len(points),
        "fockpoint.accept_ratio": _ratio(sum("error" not in s for s in points), len(points)),
        "cli.fuchsian_s": total_s["cli.fuchsian"],
        "cli.fillin_s": total_s["cli.fillin"],
        "cli.muholo_s": total_s["cli.muholo"],
        "cli.flow_s": total_s["cli.flow"],
        "cli.point_verify_s": total_s["cli.point_verify"],
        "cli.solve_s": total_s["cli.solve"],
        "cli.report_s": self_s["cli.report"],
    }


def csv_reads(spans) -> list[dict]:
    """One record per CSV read: file, grid, n, rows and microseconds per row."""
    own = self_times(spans)
    return [
        {
            "file": s["path"],
            "grid": s["grid"],
            "n": s["n"],
            "rows": s["rows"],
            "us_per_row": 1e6 * own[s["id"]] / s["rows"],
        }
        for s in spans
        if s["name"] == "chart.csv_read"
    ]
