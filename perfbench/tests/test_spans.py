"""Span recording and self-time arithmetic."""

from __future__ import annotations

import threading

from perfbench import spans
from perfbench.spans import Span, Tracer


def _span(id, parent, start, end, name="x"):
    return Span(id=id, parent=parent, name=name, start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),   # overlaps 2: union is 1..6
        _span(4, 2, 1.5, 2.0),   # grandchild: not subtracted from 1
        _span(5, 1, 9.0, 12.0),  # runs past the parent: clipped
    ]
    times = spans.self_times(tree)
    assert times[1] == 10.0 - 5.0 - 1.0
    assert times[2] == 3.0 - 0.5
    assert times[3] == 3.0
    assert times[4] == 0.5


def test_coverage_and_covered():
    root = _span(1, None, 0.0, 10.0)
    kids = [_span(2, 1, 0.0, 5.0), _span(3, 1, 4.0, 9.5)]
    assert spans.covered([(0, 1), (2, 3), (2.5, 4)]) == 3.0
    assert spans.coverage(root, [root, *kids]) == 0.95


def test_wrap_nests_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "inner", "layer.inner")
    assert Layer().outer() == 2
    tracer.restore()
    assert "inner" in vars(Layer) and Layer.inner.__name__ == "inner"
    outer, = [s for s in tracer.spans if s.name == "layer.outer"]
    inner, = [s for s in tracer.spans if s.name == "layer.inner"]
    assert inner.parent == outer.id and outer.parent is None
    totals = spans.totals_under(tracer.spans, outer)
    assert set(totals) == {"layer.inner"}
    assert totals["layer.inner"] == inner.duration


def test_wrap_when_filters_calls_and_instances_restore():
    class Seq:
        def __getitem__(self, index):
            return index

    tracer = Tracer()
    tracer.wrap(Seq, "__getitem__", "read",
                when=lambda self, index: isinstance(index, slice))
    seq = Seq()
    seq[1]
    seq[1:3]
    tracer.restore()
    assert [s.name for s in tracer.spans] == ["read"]

    obj = Seq()
    obj.run = lambda: 5
    tracer.wrap(obj, "run", "run")
    assert obj.run() == 5
    tracer.restore()
    assert obj.run() == 5 and len(tracer.spans) == 2


def test_threads_keep_their_own_parents(tmp_path):
    tracer = Tracer()
    ready = threading.Barrier(2)

    def work(name):
        with tracer.span(name):
            ready.wait(timeout=5)
            with tracer.span(name + ".child"):
                pass

    threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["a.child"].parent == by_name["a"].id
    assert by_name["b.child"].parent == by_name["b"].id
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    loaded = spans.load(str(path))
    assert sorted(s.id for s in loaded) == sorted(s.id for s in tracer.spans)
