"""Unit tests for the tracer."""

from repro.runtime.trace import declared_interest
from repro.simnet.trace import NULL_TRACER, NullTracer, Tracer


def test_emit_records_and_counts():
    tracer = Tracer()
    tracer.emit("cat", "ev", x=1)
    assert tracer.count("cat.ev") == 1
    assert len(tracer.records) == 1
    assert tracer.records[0].fields == {"x": 1}


def test_counters_update_even_without_records():
    tracer = Tracer(keep_records=False)
    tracer.emit("cat", "ev")
    assert tracer.count("cat.ev") == 1
    assert tracer.records == []


def test_count_of_unknown_key_is_zero():
    assert Tracer().count("nope.never") == 0


def test_enabled_categories_filter_records_not_counters():
    tracer = Tracer(enabled_categories={"keep"})
    tracer.emit("keep", "a")
    tracer.emit("drop", "b")
    assert len(tracer.records) == 1
    assert tracer.count("drop.b") == 1


def test_bind_clock_stamps_records():
    tracer = Tracer()
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    clock["now"] = 3.25
    tracer.emit("cat", "ev")
    assert tracer.records[0].time == 3.25


def test_add_bumps_arbitrary_counter():
    tracer = Tracer()
    tracer.add("bytes", 100)
    tracer.add("bytes", 50)
    assert tracer.counters["bytes"] == 150


def test_find_filters_by_category_and_event():
    tracer = Tracer()
    tracer.emit("a", "x")
    tracer.emit("a", "y")
    tracer.emit("b", "x")
    assert len(list(tracer.find("a"))) == 2
    assert len(list(tracer.find("a", "x"))) == 1


def test_subscribe_receives_live_records():
    tracer = Tracer(keep_records=False)
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit("cat", "ev", k="v")
    assert len(seen) == 1 and seen[0].fields == {"k": "v"}


def test_clear_resets_everything():
    tracer = Tracer()
    tracer.emit("cat", "ev")
    tracer.clear()
    assert tracer.records == [] and tracer.count("cat.ev") == 0


def test_enabled_categories_filter_subscribers_like_retention():
    tracer = Tracer(enabled_categories={"keep"})
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit("keep", "a")
    tracer.emit("drop", "b")
    assert [r.category for r in tracer.records] == ["keep"]
    assert [r.category for r in seen] == ["keep"]
    assert tracer.count("drop.b") == 1      # counters still unconditional


def test_null_tracer_is_completely_inert():
    null = NullTracer()
    seen = []
    null.subscribe(seen.append)
    null.emit("cat", "ev", x=1)
    null.add("bytes", 100)
    assert null.records == []
    assert null.counters == {}
    assert seen == []
    assert null.open_spans is None


def test_null_tracer_singleton_accumulates_nothing():
    NULL_TRACER.emit("cat", "ev")
    NULL_TRACER.add("bytes", 10)
    assert NULL_TRACER.records == []
    assert NULL_TRACER.counters == {}


def test_clear_resets_open_spans():
    tracer = Tracer()
    tracer.open_spans.add("sp-1")
    tracer.clear()
    assert tracer.open_spans == set()


# ---------------------------------------------------------------------------
# Per-event dispatch: declared subscriber interests
# ---------------------------------------------------------------------------

def test_counters_count_events_no_subscriber_wants():
    tracer = Tracer(keep_records=False)
    seen = []
    tracer.subscribe(seen.append, wants=declared_interest({("a", "x")}))
    tracer.emit("b", "y")
    tracer.emit("b", "y")
    assert tracer.count("b.y") == 2
    assert seen == []


def test_declared_subscriber_gets_only_wanted_events():
    tracer = Tracer(keep_records=False)
    seen = []
    tracer.subscribe(seen.append,
                     wants=declared_interest({("a", "x"), ("c", None)}))
    for category, event in (("a", "x"), ("a", "y"), ("c", "p"), ("c", "q"),
                            ("d", "x")):
        tracer.emit(category, event)
    assert [(r.category, r.event) for r in seen] == [
        ("a", "x"), ("c", "p"), ("c", "q")]


def test_undeclared_subscriber_sees_every_record():
    tracer = Tracer(keep_records=False)
    narrow, everything = [], []
    tracer.subscribe(narrow.append, wants=declared_interest({("a", "x")}))
    tracer.subscribe(everything.append)
    tracer.emit("a", "x")
    tracer.emit("b", "y")
    assert len(narrow) == 1
    assert [(r.category, r.event) for r in everything] == [
        ("a", "x"), ("b", "y")]
    # both subscribers get the same record object for a shared event
    assert narrow[0] is everything[0]


def test_subscriber_added_after_emits_starts_receiving():
    tracer = Tracer(keep_records=False)
    tracer.emit("a", "x")           # route built with no subscribers
    late = []
    tracer.subscribe(late.append, wants=declared_interest({("a", "x")}))
    tracer.emit("a", "x")
    assert len(late) == 1
    assert tracer.count("a.x") == 2


def test_retention_does_not_depend_on_subscriber_interest():
    tracer = Tracer(keep_records=True)
    tracer.subscribe(lambda r: None, wants=declared_interest(()))
    tracer.emit("a", "x")
    assert [(r.category, r.event) for r in tracer.records] == [("a", "x")]


def test_enabled_categories_gate_declared_subscribers_and_retention():
    tracer = Tracer(enabled_categories={"keep"})
    seen = []
    tracer.subscribe(seen.append,
                     wants=declared_interest({("keep", None),
                                              ("drop", None)}))
    tracer.emit("keep", "a")
    tracer.emit("drop", "b")
    assert [r.category for r in tracer.records] == ["keep"]
    assert [r.category for r in seen] == ["keep"]
    assert tracer.count("drop.b") == 1


def test_set_disabled_categories_applies_after_earlier_emits():
    tracer = Tracer()
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit("noisy", "a")       # route built while enabled
    tracer.set_disabled_categories({"noisy"})
    tracer.emit("noisy", "a")
    assert len(seen) == 1 and len(tracer.records) == 1
    assert tracer.count("noisy.a") == 2
    tracer.set_disabled_categories(set())
    tracer.emit("noisy", "a")
    assert len(seen) == 2 and len(tracer.records) == 2


def test_scoped_tracer_stamps_fields_through_declared_routes():
    tracer = Tracer(keep_records=False)
    seen = []
    tracer.subscribe(seen.append, wants=declared_interest({("a", None)}))
    scoped = tracer.scoped(ring="r1")
    scoped.emit("a", "x", node="n1")
    scoped.emit("a", "y", ring="explicit")
    scoped.emit("b", "z")
    assert [r.fields for r in seen] == [
        {"node": "n1", "ring": "r1"}, {"ring": "explicit"}]
    assert tracer.count("b.z") == 1
