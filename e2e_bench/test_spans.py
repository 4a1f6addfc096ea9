"""Tests of the span recorder, the wrapper installer and the metric tables.

Run from the repository root with ``python -m pytest e2e_bench -q``.
"""

from __future__ import annotations

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

import names
from spans import ROOT, EntryPoint, SpanRecorder, aggregate, current, installed

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


def ticking_clock():
    """A clock that advances by one on every read."""
    counter = itertools.count()
    return lambda: float(next(counter))


def fake_module():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.mid = lambda x: mod.leaf(x) * 2
    mod.top = lambda x: mod.mid(x) + mod.leaf(x)
    mod.boom = lambda: (_ for _ in ()).throw(ValueError("boom"))
    return mod


def test_self_times_and_residual_sum_to_wall():
    mod = fake_module()
    rec = SpanRecorder(clock=ticking_clock())
    eps = [
        EntryPoint(mod, "top", "a"),
        EntryPoint(mod, "mid", "b"),
        EntryPoint(mod, "leaf", "c"),
    ]
    with installed(rec, eps):
        with rec.span(ROOT):
            assert mod.top(1) == 6
            assert mod.leaf(0) == 1
    totals = aggregate(rec.spans)
    wall = totals[ROOT].busy_s
    assert sum(t.self_s for t in totals.values()) == pytest.approx(wall)
    assert totals["c"].calls == 3
    assert totals["b"].calls == 1
    # top's span covers mid's and one leaf's; its self time excludes both
    top = next(s for s in rec.spans if s.name == "a")
    children = [s for s in rec.spans if s.parent == rec.spans.index(top)]
    assert {s.name for s in children} == {"b", "c"}
    assert totals["a"].self_s == top.duration - sum(s.duration for s in children)


def test_same_layer_reentry_counts_once():
    mod = fake_module()
    rec = SpanRecorder(clock=ticking_clock())
    eps = [EntryPoint(mod, "mid", "x"), EntryPoint(mod, "leaf", "x")]
    with installed(rec, eps):
        with rec.span(ROOT):
            mod.mid(1)
    assert [s.name for s in rec.spans] == [ROOT, "x"]


def test_wrappers_restored_after_exception_and_describe_sees_error():
    mod = fake_module()
    before = [vars(mod)["boom"], vars(mod)["leaf"]]
    seen = []
    eps = [
        EntryPoint(mod, "boom", "b",
                   lambda a, k, r, e: seen.append(type(e)) or {"err": 1}),
        EntryPoint(mod, "leaf", "c"),
    ]
    rec = SpanRecorder()
    with pytest.raises(ValueError):
        with installed(rec, eps):
            assert current(eps) != before
            mod.boom()
    assert all(a is b for a, b in zip(current(eps), before))
    assert seen == [ValueError]
    assert rec.spans[0].attrs == {"err": 1}
    assert rec._stack == []


def test_class_methods_restored_as_same_function():
    class K:
        def f(self):
            return 3

    original = vars(K)["f"]
    rec = SpanRecorder()
    with installed(rec, [EntryPoint(K, "f", "k")]):
        assert K().f() == 3
        assert vars(K)["f"] is not original
    assert vars(K)["f"] is original
    assert [s.name for s in rec.spans] == ["k"]


def test_spans_written_as_json(tmp_path):
    rec = SpanRecorder(clock=ticking_clock())
    with rec.span(ROOT):
        with rec.span("a"):
            pass
    path = tmp_path / "spans.json"
    rec.write(path)
    rows = json.loads(path.read_text())
    assert rows == [[ROOT, 0.0, 3.0, -1, {}], ["a", 1.0, 2.0, 0, {}]]


def test_layer_entry_points_exist_and_metrics_are_declared():
    from layers import Probe

    probe = Probe()
    for ep in probe.entry_points:
        assert callable(vars(ep.owner)[ep.attr]), (ep.owner, ep.attr)
        assert ep.layer in names.LAYERS
    rec = SpanRecorder(clock=ticking_clock())
    with rec.span(ROOT):
        pass
    assert set(probe.metrics(rec.spans)) <= set(names.PER_LAYER)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == names.END_TO_END
    assert per_layer == names.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
