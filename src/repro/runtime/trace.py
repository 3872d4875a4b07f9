"""Structured event tracing and counters.

Substrate-independent: both the simulator and the live runtime bind their
clock via :meth:`Tracer.bind_clock`.

Benches and tests observe the system through a :class:`Tracer`: every layer
emits ``(time, category, event, fields)`` records and bumps named counters.
The Figure-6 bench, for instance, counts ``totem.frame`` events to verify that
recovery time grows with the number of multicast frames carrying the state.

The tracer is also the transport for the observability layer in
:mod:`repro.obs`: span lifecycles travel as ordinary records in the ``span``
category (see :mod:`repro.obs.spans`), so exporters, the metrics registry,
and the timeline tools all read one stream.

Filtering semantics (see :meth:`Tracer.emit`):

* **counters always update**, regardless of configuration;
* ``enabled_categories`` (and :meth:`Tracer.set_disabled_categories`)
  gate *both* record retention and subscriber notification, uniformly —
  a disabled category is invisible to every consumer of the record
  stream, while its counters keep counting;
* a subscriber may **declare the events it consumes** with
  ``subscribe(fn, wants=...)``: ``wants(category, event)`` is asked once
  per event and the subscriber then receives exactly the records it
  answered yes for.  A subscriber that declares nothing receives every
  record.  A :class:`TraceRecord` is built only when it is retained or at
  least one subscriber wants it, so a high-volume event nobody consumes
  (``net.*``, ``totem.deliver`` …) costs one counter bump.  The in-tree
  consumers (metrics, flight recorder, auditor, profiler) derive their
  declarations from their own dispatch tables with
  :func:`declared_interest`, so what they ask for and what they handle
  cannot drift apart.

The per-event decisions live in a route table keyed by
``(category, event)``, built on first emit and cleared whenever a
subscriber or a category filter changes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Set, Tuple)


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced event.

    ``slots=True`` matters at trace volume: it removes the per-instance
    ``__dict__``, so allocating — and, for records retained by the flight
    recorder, later destroying — a record touches two heap objects instead
    of three.  Eviction from a full flight ring frees records long after
    they went cache-cold, where per-object cost dominates the plane's
    overhead budget (see :mod:`repro.obs.telemetry`).
    """

    time: float
    category: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.time:.6f}] {self.category}.{self.event} {kv}"


#: A subscriber's declared interest: ``wants(category, event)`` is True
#: for each event whose records the subscriber consumes.
Wants = Callable[[str, str], bool]

Subscriber = Callable[[TraceRecord], None]


def declared_interest(keys: Iterable[Tuple[str, Optional[str]]]) -> Wants:
    """The :data:`Wants` predicate of a ``(category, event)`` dispatch
    table's keys; an ``event`` of ``None`` stands for every event of the
    category."""
    keys = frozenset(keys)
    return lambda category, event: ((category, event) in keys
                                    or (category, None) in keys)


class Tracer:
    """Collects trace records and counters.

    ``enabled_categories`` restricts the record stream (retention *and*
    subscriber delivery; counters always update); record retention can be
    disabled entirely for long benches with ``keep_records=False`` —
    subscribers still see every (enabled) record they want, live.
    """

    def __init__(
        self,
        *,
        keep_records: bool = True,
        enabled_categories: Optional[set] = None,
    ) -> None:
        self.records: List[TraceRecord] = []
        self.counters: Counter = Counter()
        self._keep_records = keep_records
        self._enabled = enabled_categories
        self._disabled: Set[str] = set()
        self._subscribers: List[Tuple[Subscriber, Optional[Wants]]] = []
        #: (category, event) -> (counter key, retain?, subscribers wanting
        #: it); built lazily by :meth:`_route`.
        self._routes: Dict[Tuple[str, str],
                           Tuple[str, bool, Tuple[Subscriber, ...]]] = {}
        self._now: Callable[[], float] = lambda: 0.0
        #: Span ids currently open on this trace stream; maintained by
        #: :class:`repro.obs.spans.SpanEmitter` so that cross-component
        #: spans end exactly once (``None`` disables the bookkeeping).
        self.open_spans: Optional[Set[str]] = set()

    def bind_clock(self, now: Callable[[], float]) -> None:
        """Attach the simulation clock so records carry simulated time."""
        self._now = now

    def subscribe(self, fn: Subscriber,
                  wants: Optional[Wants] = None) -> None:
        """Register a live callback for emitted records.

        ``wants(category, event)`` declares which events ``fn`` consumes
        (see :func:`declared_interest`); without it ``fn`` receives every
        record.  Either way subscribers see the same filtered stream
        retention does: records of categories outside
        ``enabled_categories`` are delivered to no one.
        """
        self._subscribers.append((fn, wants))
        self._routes.clear()

    def set_disabled_categories(self, categories: Set[str]) -> None:
        """Blocklist: suppress the record stream (retention *and*
        subscriber delivery) for these categories without enumerating
        every allowed one.  Counters still count.  Complements
        ``enabled_categories``: a category must pass both filters."""
        self._disabled = set(categories)
        self._routes.clear()

    def _route(self, category: str, event: str
               ) -> Tuple[str, bool, Tuple[Subscriber, ...]]:
        """Decide, once per event, its counter key, whether its records
        are retained, and which subscribers receive them."""
        visible = ((self._enabled is None or category in self._enabled)
                   and category not in self._disabled)
        subscribers = tuple(
            fn for fn, wants in self._subscribers
            if wants is None or wants(category, event)) if visible else ()
        route = (f"{category}.{event}", visible and self._keep_records,
                 subscribers)
        self._routes[(category, event)] = route
        return route

    def emit(self, category: str, event: str, **fields: Any) -> None:
        """Record an event and bump its counter (``category.event``).

        The counter updates unconditionally.  A record is built only if
        it is retained (``keep_records`` and the category passes the
        filters) or some subscriber wants it, and then goes to exactly
        those consumers.
        """
        try:
            key, keep, subscribers = self._routes[(category, event)]
        except KeyError:
            key, keep, subscribers = self._route(category, event)
        self.counters[key] += 1
        if keep or subscribers:
            record = TraceRecord(self._now(), category, event, fields)
            if keep:
                self.records.append(record)
            for fn in subscribers:
                fn(record)

    def scoped(self, **extra: Any) -> "ScopedTracer":
        """A view of this tracer whose emits carry ``extra`` fields.

        Built for multi-ring deployments: each ring's stacks emit through
        ``tracer.scoped(ring="r3")`` so every record in the shared stream
        names its ring without any protocol layer knowing about shards.
        """
        return ScopedTracer(self, **extra)

    def count(self, key: str) -> int:
        """Counter value for ``category.event`` (0 if never emitted)."""
        return self.counters.get(key, 0)

    def add(self, key: str, amount: int) -> None:
        """Bump an arbitrary named counter by ``amount`` (e.g. bytes sent)."""
        self.counters[key] += amount

    def find(self, category: str, event: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate retained records matching category (and optionally event)."""
        for record in self.records:
            if record.category != category:
                continue
            if event is not None and record.event != event:
                continue
            yield record

    def clear(self) -> None:
        """Drop retained records and reset all counters."""
        self.records.clear()
        self.counters.clear()
        if self.open_spans is not None:
            self.open_spans.clear()


class ScopedTracer:
    """A delegating view of a :class:`Tracer` that stamps extra fields.

    ``emit`` injects the scope fields via ``setdefault`` — an explicit
    field from the emitting component always wins — and everything else
    (subscription, counters, retained records, span bookkeeping, clock
    binding) is the parent's, so one shared stream serves all scopes.
    Scoped counters still land in the parent's flat namespace: per-scope
    accounting belongs to the metrics registry, which reads the injected
    fields off each record.
    """

    __slots__ = ("_parent", "_extra")

    def __init__(self, parent: Tracer, **extra: Any) -> None:
        self._parent = parent
        self._extra = extra

    @property
    def parent(self) -> Tracer:
        return self._parent

    @property
    def scope_fields(self) -> Dict[str, Any]:
        return dict(self._extra)

    def emit(self, category: str, event: str, **fields: Any) -> None:
        for key, value in self._extra.items():
            fields.setdefault(key, value)
        self._parent.emit(category, event, **fields)

    def scoped(self, **extra: Any) -> "ScopedTracer":
        merged = dict(self._extra)
        merged.update(extra)
        return ScopedTracer(self._parent, **merged)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._parent, name)


class NullTracer(Tracer):
    """A tracer that records nothing, counts nothing, notifies no one.

    Components constructed without an explicit tracer share the
    :data:`NULL_TRACER` instance; a genuinely inert subclass guarantees the
    singleton accumulates no state across unrelated components or tests
    (the previous shared ``Tracer(keep_records=False)`` silently collected
    counters from every use site).
    """

    def __init__(self) -> None:
        super().__init__(keep_records=False)
        self.open_spans = None      # no span bookkeeping either

    def emit(self, category: str, event: str, **fields: Any) -> None:
        """Discard the event entirely (not even counters update)."""

    def add(self, key: str, amount: int) -> None:
        """Discard the counter bump."""

    def subscribe(self, fn: Subscriber,
                  wants: Optional[Wants] = None) -> None:
        """Ignore the subscription: a null tracer never emits records."""


NULL_TRACER = NullTracer()
"""The shared do-nothing tracer for components created without one."""
