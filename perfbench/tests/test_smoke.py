"""Tiny-size runs of every workload through the same measuring loop as the benchmark."""

import pytest

from perfbench import layers, run
from perfbench.workloads import TINY, WORKLOADS


def test_tiny_covers_every_workload():
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run(name, tmp_path):
    result = run.measure(name, seed=1, seconds=0.0, trace=False, workloads=TINY, workdir=str(tmp_path / "w"))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] == run.MIN_RUNS
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reproduces_untraced(name, tmp_path):
    result = run.measure(
        name, seed=2, seconds=0.0, trace=True, workloads=TINY,
        workdir=str(tmp_path / "w"), trace_dir=str(tmp_path / "t"),
    )
    # correct also requires traced runs to match the untraced Newton counts and CSV bytes
    assert result["correct"], result
    assert set(result["metrics"]) == set(layers.METRICS)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["chart.stencil_calls"] > 0
    if name.startswith("solve"):
        assert m["solver.newton_iters"] > 0 and m["solver.apply_calls"] > m["solver.newton_iters"]
        assert m["cli.solve_s"] > m["solver.apply_s"] > 0
    assert m["solver.c0_evals"] > 1 and m["chart.stencil_rect_s"] > 0
    if name == "cli-pipeline":
        assert m["chart.csv_read_rows"] > 0 and m["chart.csv_write_mb"] > 0
        assert m["fockpoint.points_attempted"] == TINY[name].samples
        assert result["csv_reads"] and all(r["us_per_row"] > 0 for r in result["csv_reads"])
    assert list((tmp_path / "t").iterdir())


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from fockbench import chart, connection, solver

    before = (solver.fill_in, connection.fill_in, chart.dz_array, solver.LinearizedContext.apply_coords)
    run.measure("solve-disk20", seed=3, seconds=0.0, trace=True, workloads=TINY, workdir=str(tmp_path / "w"))
    after = (solver.fill_in, connection.fill_in, chart.dz_array, solver.LinearizedContext.apply_coords)
    assert before == after
