from ledger.trace import Span, Tracer, covered_ns, self_ns


def span(start, end, parent=None):
    return Span(0, 0, "s", parent, start, end)


def test_self_time_is_duration_minus_child_cover():
    parent = span(100, 200)
    assert self_ns(parent, []) == 100
    assert self_ns(parent, [span(110, 130), span(150, 180)]) == 50


def test_overlapping_children_count_once():
    parent = span(0, 100)
    children = [span(10, 50), span(30, 70), span(40, 45)]
    assert covered_ns(parent, children) == 60
    assert self_ns(parent, children) == 40


def test_children_are_clipped_to_the_parent():
    parent = span(100, 200)
    children = [span(50, 120), span(190, 400), span(500, 600)]
    assert covered_ns(parent, children) == 30
    # Children covering more than the parent leave no negative self time.
    assert self_ns(parent, [span(0, 1000)]) == 0


def test_children_lie_end_to_end_from_the_parent_start():
    tracer = Tracer()
    root = tracer.measured("root", 7, 1_000, 2_000, cell="Q6/swole")
    first = tracer.child(root, "first", 300)
    second = tracer.child(root, "second", 200, source="reported")
    inner = tracer.child(first, "inner", 100)
    spans = tracer.spans
    assert (spans[first].start_ns, spans[first].end_ns) == (1_000, 1_300)
    assert (spans[second].start_ns, spans[second].end_ns) == (1_300, 1_500)
    assert (spans[inner].start_ns, spans[inner].end_ns) == (1_000, 1_100)
    assert {s.op for s in spans} == {7}
    assert [s.source for s in spans] == [
        "measured", "replayed", "reported", "replayed"
    ]
    assert tracer.self_times() == {"root": [500], "first": [200]}
    assert tracer.durations()["second"] == [200]
    assert tracer.child_load() == {"root": [0.5], "first": [100 / 300]}


def test_child_load_exposes_replays_that_overshoot_their_parent():
    tracer = Tracer()
    root = tracer.measured("root", 0, 0, 100)
    tracer.child(root, "a", 80)
    tracer.child(root, "b", 40)
    assert tracer.child_load()["root"] == [1.2]
    assert tracer.self_times()["root"] == [0]


def test_spans_serialise_with_parent_and_op():
    tracer = Tracer()
    root = tracer.measured("root", 3, 10, 20, cell="Q1/hybrid")
    tracer.child(root, "kid", 5)
    assert tracer.to_list() == [
        {"id": 0, "op": 3, "name": "root", "parent": None, "start_ns": 10,
         "end_ns": 20, "source": "measured", "attrs": {"cell": "Q1/hybrid"}},
        {"id": 1, "op": 3, "name": "kid", "parent": 0, "start_ns": 10,
         "end_ns": 15, "source": "replayed"},
    ]
