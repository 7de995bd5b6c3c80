"""Tracer: hierarchical paths, exception safety, aggregation, merging."""

import asyncio
import time

import pytest

from repro.engine import NULL_SPAN, EngineContext
from repro.obs import Tracer


def test_flat_span_records_count_and_time():
    t = Tracer()
    with t.span("work"):
        time.sleep(0.01)
    snap = t.snapshot()
    assert set(snap) == {"work"}
    assert snap["work"]["count"] == 1
    assert snap["work"]["total_s"] >= 0.01
    assert snap["work"]["self_s"] == pytest.approx(snap["work"]["total_s"])


def test_nested_spans_build_slash_paths():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    snap = t.snapshot()
    assert set(snap) == {"outer", "outer/inner"}
    assert snap["outer"]["count"] == 1
    assert snap["outer/inner"]["count"] == 2


def test_self_time_excludes_children():
    t = Tracer()
    with t.span("outer"):
        time.sleep(0.01)
        with t.span("inner"):
            time.sleep(0.02)
    snap = t.snapshot()
    outer, inner = snap["outer"], snap["outer/inner"]
    assert outer["total_s"] >= inner["total_s"]
    assert outer["self_s"] <= outer["total_s"] - inner["total_s"] + 1e-3
    assert outer["self_s"] >= 0.01 - 1e-4


def test_exception_pops_span_stack():
    t = Tracer()
    with pytest.raises(ValueError):
        with t.span("outer"):
            with t.span("boom"):
                raise ValueError("x")
    # Both spans were closed despite the exception; the stack is clean,
    # so a subsequent span is top-level, not a child of "outer".
    with t.span("after"):
        pass
    snap = t.snapshot()
    assert set(snap) == {"outer", "outer/boom", "after"}
    assert snap["outer"]["count"] == 1
    assert snap["outer/boom"]["count"] == 1


def test_recursion_extends_the_path():
    t = Tracer()

    def rec(depth):
        with t.span("a"):
            if depth:
                rec(depth - 1)

    rec(2)
    snap = t.snapshot()
    assert set(snap) == {"a", "a/a", "a/a/a"}
    assert all(snap[p]["count"] == 1 for p in snap)


def test_disabled_tracer_records_nothing():
    t = Tracer(enabled=False)
    with t.span("work"):
        pass
    assert t.snapshot() == {}


def test_merge_snapshot_accumulates():
    a, b = Tracer(), Tracer()
    for t in (a, b):
        with t.span("x"):
            pass
    merged = a.snapshot()
    a.merge_snapshot(b.snapshot())
    snap = a.snapshot()
    assert snap["x"]["count"] == 2
    assert snap["x"]["total_s"] >= merged["x"]["total_s"]
    # Merging a path the target has never seen creates it.
    a.merge_snapshot({"fresh": {"count": 3, "total_s": 1.0, "self_s": 0.5}})
    assert a.snapshot()["fresh"] == {"count": 3, "total_s": 1.0, "self_s": 0.5}


def test_reset_clears_spans_but_not_open_stack_confusion():
    t = Tracer()
    with t.span("x"):
        pass
    t.reset()
    assert t.snapshot() == {}


def test_context_without_tracer_returns_null_span():
    ctx = EngineContext()
    assert ctx.span("anything") is NULL_SPAN
    # NULL_SPAN is a working no-op context manager.
    with ctx.span("anything"):
        pass


def test_context_with_tracer_routes_spans():
    ctx = EngineContext()
    ctx.tracer = Tracer()
    with ctx.span("phase"):
        pass
    assert ctx.stats()["spans"]["phase"]["count"] == 1


def test_stats_spans_empty_without_tracer():
    assert EngineContext().stats()["spans"] == {}


def test_interleaved_asyncio_tasks_record_sibling_paths():
    # Task b opens and closes its span while task a's span is open across
    # an await: each task sees only its own open spans, so b is a
    # sibling of a, never "a/b".
    t = Tracer()

    async def main():
        a_open, b_done = asyncio.Event(), asyncio.Event()

        async def a():
            with t.span("a"):
                a_open.set()
                await b_done.wait()

        async def b():
            await a_open.wait()
            with t.span("b"):
                await asyncio.sleep(0)
            b_done.set()

        await asyncio.gather(a(), b())

    asyncio.run(main())
    snap = t.snapshot()
    assert set(snap) == {"a", "b"}
    assert snap["a"]["total_s"] >= snap["b"]["total_s"]
    assert t.depth == 0
