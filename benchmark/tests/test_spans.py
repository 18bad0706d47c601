"""The span recorder on synthetic spans: nesting, self time, shared ids."""

import pytest

from spans import Recorder, Span, ancestor, roots, self_times


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def at(clock, t):
    clock.now = t


def test_nesting_records_parents_and_depth():
    clock = Clock()
    rec = Recorder(clock)
    with rec.span("unit"):
        assert rec.depth == 1
        with rec.span("decode"):
            with rec.span("forward"):
                assert rec.depth == 3
        with rec.span("score"):
            pass
    assert rec.depth == 0
    assert [s.name for s in rec.spans] == ["unit", "decode", "forward", "score"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert roots(rec.spans) == [0, 0, 0, 0]
    assert ancestor(rec.spans, 2, "unit") == 0
    assert ancestor(rec.spans, 2, "decode") == 1
    assert ancestor(rec.spans, 3, "decode") is None


def test_self_time_subtracts_children_and_sums_to_root():
    clock = Clock()
    rec = Recorder(clock)
    at(clock, 0.0)
    root = rec.open("unit")
    at(clock, 1.0)
    child = rec.open("decode")
    at(clock, 2.0)
    grandchild = rec.open("forward")
    at(clock, 5.0)
    rec.close(grandchild)
    at(clock, 6.0)
    rec.close(child)
    at(clock, 7.0)
    other = rec.open("score")
    at(clock, 9.0)
    rec.close(other)
    at(clock, 10.0)
    rec.close(root)

    assert self_times(rec.spans) == [10.0 - 5.0 - 2.0, 5.0 - 3.0, 3.0, 2.0]
    assert sum(self_times(rec.spans)) == pytest.approx(root.duration)


def _span(name, start, end, parent):
    s = Span(name, start, parent, 0)
    s.end = end
    return s


def test_overlapping_children_are_covered_once():
    spans = [
        _span("parent", 0.0, 10.0, None),
        _span("a", 1.0, 5.0, 0),
        _span("b", 3.0, 7.0, 0),  # overlaps a by 2
        _span("c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_spans_of_one_step_share_an_id():
    rec = Recorder(Clock())
    with rec.span("unit", new_group=True):
        for _ in range(3):
            with rec.span("train.make_batch", new_group=True):
                with rec.span("tokenizer.encode"):
                    pass
            with rec.span("model.loss_and_grads"):
                with rec.span("numerics.cross_entropy"):
                    pass
            with rec.span("train.adam_step"):
                pass
    groups = [s.group for s in rec.spans if s.name != "unit"]
    assert groups == [2] * 5 + [3] * 5 + [4] * 5
    assert rec.spans[0].group == 1


def test_close_out_of_order_is_refused():
    rec = Recorder(Clock())
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_probes_record_and_restore():
    import probes
    from eyedx import tokenizer

    vocab = tokenizer.build(["macula flat", "cup disc ratio"])
    original = tokenizer.Vocabulary.encode
    rec = Recorder()
    with probes.installed(rec):
        with rec.span(probes.UNIT, new_group=True):
            first = vocab.encode("macula flat")
            vocab.encode("cup disc")
    assert tokenizer.Vocabulary.encode is original
    assert first == vocab.encode("macula flat")
    encodes = [s for s in rec.spans if s.name == "tokenizer.encode"]
    assert [s.parent for s in encodes] == [0, 0]
    # a lookup straight under a unit starts a new test record
    assert encodes[0].group != encodes[1].group
