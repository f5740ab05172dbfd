"""Span recording and the self-time arithmetic of the tracer."""

import types

import pytest

from perfbench.tracing import Tracer, ancestors, self_times


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 5.0, 6.0), _span(3, 1, 1.5, 2.0)]
    own = self_times(spans)
    assert own == {0: pytest.approx(7.0), 1: pytest.approx(1.5), 2: pytest.approx(1.0), 3: pytest.approx(0.5)}
    # self times of a tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 6.0), _span(2, 0, 4.0, 8.0), _span(3, 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_of_leaf_is_duration():
    assert self_times([_span(0, None, 2.0, 2.5)]) == {0: pytest.approx(0.5)}


def test_wrap_records_nesting_errors_and_attributes():
    tr = Tracer("r1")
    inner = tr.wrap(lambda x: x + 1, "inner", describe=lambda a, k, r: {"result": r})
    outer = tr.wrap(lambda x: inner(x) * 2, lambda a, k: f"outer{a[0]}")

    def boom():
        raise ValueError("no")

    failing = tr.wrap(boom, "boom")
    assert outer(3) == 8
    with pytest.raises(ValueError):
        failing()
    by_name = {s["name"]: s for s in tr.spans}
    assert by_name["outer3"]["parent"] is None
    assert by_name["inner"]["parent"] == by_name["outer3"]["id"]
    assert by_name["inner"]["result"] == 4
    assert by_name["boom"]["error"] == "ValueError" and by_name["boom"]["parent"] is None
    assert {s["run_id"] for s in tr.spans} == {"r1"}
    assert all(s["start"] <= s["end"] for s in tr.spans)
    by_id = {s["id"]: s for s in tr.spans}
    assert ancestors(by_id, by_name["inner"]) == ["outer3"]


def test_installed_patches_every_binding_and_restores(monkeypatch):
    import sys

    def original():
        return "value"

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    home.f = original
    user.f = original  # as if imported with ``from .home import f``
    monkeypatch.setitem(sys.modules, "fakepkg.home", home)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)

    class Thing:
        def method(self):
            return "m"

    tr = Tracer("r")
    tr.patch(home, "f", "f", package="fakepkg")
    tr.patch(Thing, "method", "method")
    assert user.f() == "value" and home.f() == "value" and Thing().method() == "m"
    assert [s["name"] for s in tr.spans] == ["f", "f", "method"]
    tr.remove()
    assert home.f is original and user.f is original
    assert not hasattr(Thing.__dict__["method"], "__wrapped__")
