"""Self time from span trees, and the wrappers that record them."""

import asyncio

import pytest

from perfbench.tracing import Tracer, self_times, summarize


def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent,
            "request_id": None}


def test_self_time_subtracts_children():
    spans = [
        _span("a", "root", 0.0, 10.0),
        _span("b", "child", 1.0, 3.0, "a"),
        _span("c", "child", 5.0, 9.0, "a"),
        _span("d", "leaf", 6.0, 7.0, "c"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0})
    table = summarize(spans)
    assert table["child"]["calls"] == 2
    assert table["child"]["total_s"] == pytest.approx(6.0)
    assert table["child"]["self_s"] == pytest.approx(5.0)


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        _span("a", "root", 0.0, 10.0),
        _span("b", "task", 2.0, 6.0, "a"),
        _span("c", "task", 4.0, 8.0, "a"),  # overlaps b
        _span("d", "task", 9.0, 12.0, "a"),  # runs past its parent
    ]
    assert self_times(spans)["a"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrappers_nest_count_and_collapse_same_name():
    tracer = Tracer()

    def inner(rows):
        return len(rows)

    traced_inner = tracer.wrap(inner, "inner", count=lambda rows: len(rows))

    def outer(rows):
        return traced_inner(rows) + traced_inner(rows[:1])

    traced_outer = tracer.wrap(outer, "outer")
    recursive = tracer.wrap(lambda rows: traced_outer(rows), "outer")
    assert recursive([1, 2, 3]) == 4
    names = [s["name"] for s in tracer.spans]
    assert names.count("outer") == 1 and names.count("inner") == 2
    parent = next(s for s in tracer.spans if s["name"] == "outer")
    assert {s["parent"] for s in tracer.spans if s["name"] == "inner"} == {parent["id"]}
    assert summarize(tracer.spans)["inner"]["n"] == 4


def test_async_wrappers_keep_per_task_parents():
    tracer = Tracer()

    async def leaf():
        await asyncio.sleep(0.001)

    traced_leaf = tracer.wrap(leaf, "leaf")

    async def request():
        await traced_leaf()

    traced_request = tracer.wrap(request, "request")

    async def main():
        await asyncio.gather(traced_request(), traced_request())

    asyncio.run(main())
    requests = {s["id"] for s in tracer.spans if s["name"] == "request"}
    leaves = [s for s in tracer.spans if s["name"] == "leaf"]
    assert len(requests) == 2 and {s["parent"] for s in leaves} == requests


def test_install_skips_missing_targets():
    tracer = Tracer()
    tracer.install([("repro.hv.packing", "no_such_function", "x"),
                    ("repro.no_such_module", "f", "y")])
    assert tracer.missing == ["repro.hv.packing.no_such_function", "repro.no_such_module.f"]
