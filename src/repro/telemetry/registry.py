"""The process-wide metrics registry: counters, gauges, histograms.

One :class:`Registry` per process (:func:`get_registry`) holds every
metric the runtime emits, in a single dot-separated namespace shared by
all layers — ``solver.conflicts``, ``chase.triggers_fired``,
``engine.graph_cache_hits``, ``service.cache_hits`` are all just names in
this one table.  Three instrument kinds cover the stack:

* :class:`Counter` — a monotonically increasing total (requests served,
  conflicts, trigger firings);
* :class:`Gauge` — a point-in-time value that can move both ways (live
  jobs, cache entries);
* :class:`Histogram` — fixed-bucket latency/size distributions (request
  seconds, queue-wait seconds), cumulative-bucket semantics compatible
  with the Prometheus exposition format.

Two export renderings: :meth:`Registry.to_dict` (the JSON document behind
the service's ``metrics`` operation) and :meth:`Registry.render_prometheus`
(the text-exposition body behind ``repro serve --metrics-port``'s
``/metrics`` endpoint; dotted names are mangled to ``repro_``-prefixed
underscore form there, because Prometheus metric names cannot contain
dots).

**Enablement.**  Telemetry is on by default and disabled process-wide by
``REPRO_TELEMETRY=off`` (also ``0``/``false``/``no``).  Every
instrumentation *call site* in the runtime gates on :func:`enabled` — a
single cached boolean test — so the disabled path costs one branch and
changes no observable behavior.  :func:`set_enabled` overrides the
environment for tests and benchmarks (pass ``None`` to fall back to the
environment again).

**Stats-dataclass folding.**  The stats dataclasses (``ChaseStats``,
``EvalStats``, ``UpdateStats``, ``CDCLStats``) keep their roles as
per-object counters; :func:`fold_stats` folds one of them into the
registry at its natural flush point by *delta* — the last folded snapshot
is remembered on the stats object itself, so cumulative objects (a
long-lived engine's ``EvalStats``) can be folded repeatedly without
double counting.

**Cross-process aggregation.**  Worker processes fold into their own
registries; :meth:`Registry.export_deltas` returns the counter movement
since the previous export (piggy-backed on each response envelope) and
:meth:`Registry.merge_deltas` folds it into the server's registry — so a
``/metrics`` scrape of the server sees the whole fleet's counters, and
every series stays monotone.

This module is dependency-free (standard library only) and imports
nothing from the rest of :mod:`repro`, so every layer can instrument
itself without import cycles.
"""

from __future__ import annotations

import os
import re
import threading
from bisect import bisect_left
from dataclasses import fields, is_dataclass
from typing import Any, Iterable, Mapping

ENV_VAR = "REPRO_TELEMETRY"
"""Environment switch: ``off``/``0``/``false``/``no`` disables telemetry."""

_OFF_VALUES = frozenset({"off", "0", "false", "no", "disabled"})

_override: bool | None = None
_env_cache: bool | None = None


def enabled() -> bool:
    """Whether telemetry is collected in this process (cached, cheap).

    >>> set_enabled(False); enabled()
    False
    >>> set_enabled(True); enabled()
    True
    >>> set_enabled(None)  # fall back to REPRO_TELEMETRY
    """
    if _override is not None:
        return _override
    global _env_cache
    if _env_cache is None:
        _env_cache = (
            os.environ.get(ENV_VAR, "on").strip().lower() not in _OFF_VALUES
        )
    return _env_cache


def enabled_override() -> bool | None:
    """The current programmatic override (``None`` when env-resolved).

    Worker-pool initializers read this in the parent and replay it via
    :func:`set_enabled` in each spawned worker, so a programmatic toggle
    behaves like the environment variable across the pool boundary.
    """
    return _override


def set_enabled(value: bool | None) -> None:
    """Override the environment switch (``None`` restores env resolution).

    Used by tests, benchmarks, and the worker-pool initializer (so a
    programmatic override in the parent survives into spawned workers).
    """
    global _override, _env_cache
    _override = value
    _env_cache = None  # re-read the environment on the next enabled() call


class Counter:
    """A monotonically increasing total.

    >>> c = Counter("demo.total")
    >>> c.inc(); c.inc(4)
    >>> c.value
    5
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock | None = None):
        self.name = name
        self._value: float = 0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0: counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        return self._value


class Gauge:
    """A point-in-time value (can move both ways).

    >>> g = Gauge("demo.live")
    >>> g.set(3)
    3
    >>> g.value
    3
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock | None = None):
        self.name = name
        self._value: float = 0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> float:
        """Replace the gauge's value; returns it for chaining."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(
                f"gauge {self.name!r} needs a numeric value, "
                f"got {type(value).__name__}"
            )
        with self._lock:
            self._value = value
        return value

    @property
    def value(self) -> float:
        """The current value."""
        return self._value


DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Default histogram bucket upper bounds, tuned for request seconds."""


class Histogram:
    """A fixed-bucket distribution (cumulative buckets, Prometheus style).

    >>> h = Histogram("demo.seconds", buckets=(0.1, 1.0))
    >>> h.observe(0.05); h.observe(0.5); h.observe(3.0)
    >>> h.snapshot()["count"], h.snapshot()["buckets"]
    (3, [[0.1, 1], [1.0, 2]])
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
        lock: threading.Lock | None = None,
    ):
        self.name = name
        self.bounds: tuple[float, ...] = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # + the +Inf bucket
        self._sum: float = 0.0
        self._count = 0
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> dict:
        """JSON-ready state: cumulative ``[le, count]`` pairs + sum/count."""
        with self._lock:
            counts = list(self._counts)
            total, running = self._sum, 0
        buckets = []
        for bound, count in zip(self.bounds, counts):
            running += count
            buckets.append([bound, running])
        return {
            "buckets": buckets,
            "count": sum(counts),
            "sum": total,
        }


class Registry:
    """A named table of counters, gauges, and histograms (lock-protected).

    Instruments are get-or-create by name and keep their identity for the
    process lifetime; names are dot-separated (``layer.metric``).  A name
    registered as one kind cannot be re-registered as another.

    >>> reg = Registry()
    >>> reg.counter("demo.hits").inc(2)
    >>> reg.counter("demo.hits").value
    2
    >>> reg.gauge("demo.live").set(1)
    1
    >>> sorted(reg.to_dict()["counters"])
    ['demo.hits']
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._exported: dict[str, float] = {}
        self.generation = 0  # bumped by reset(): cached handles must re-resolve

    # ------------------------------------------------------------------ #
    # Instrument access.
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_fresh(name, "counter")
                instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_fresh(name, "gauge")
                instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        ``buckets`` applies on first creation only — later callers get the
        existing instrument whatever bounds they pass.
        """
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_fresh(name, "histogram")
                instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    def _check_fresh(self, name: str, kind: str) -> None:
        for table, label in (
            (self._counters, "counter"),
            (self._gauges, "gauge"),
            (self._histograms, "histogram"),
        ):
            if label != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {label}"
                )

    # ------------------------------------------------------------------ #
    # Export.
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """The JSON metrics document (service ``metrics`` op, CLI)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "histograms": {
                name: histograms[name].snapshot() for name in sorted(histograms)
            },
        }

    def render_prometheus(self) -> str:
        """The Prometheus text-exposition rendering (the ``/metrics`` body).

        Dotted names become ``repro_``-prefixed underscore names; counters
        gain the conventional ``_total`` suffix; histograms emit the
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
        """
        lines: list[str] = []
        document = self.to_dict()
        for name in sorted(document["counters"]):
            prom = prometheus_name(name) + "_total"
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {format_value(document['counters'][name])}")
        for name in sorted(document["gauges"]):
            prom = prometheus_name(name)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {format_value(document['gauges'][name])}")
        for name in sorted(document["histograms"]):
            prom = prometheus_name(name)
            snap = document["histograms"][name]
            lines.append(f"# TYPE {prom} histogram")
            for bound, cumulative in snap["buckets"]:
                lines.append(
                    f'{prom}_bucket{{le="{format_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{prom}_bucket{{le="+Inf"}} {snap["count"]}')
            lines.append(f"{prom}_sum {format_value(snap['sum'])}")
            lines.append(f"{prom}_count {snap['count']}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # Cross-process counter aggregation.
    # ------------------------------------------------------------------ #

    def snapshot_counters(self) -> dict[str, float]:
        """All counter totals by name (a point-in-time copy)."""
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    def export_deltas(self) -> dict[str, float]:
        """Counter movement since the previous export (and mark exported).

        The worker side of the aggregation protocol: each response carries
        only what happened since the last response, so the server-side
        merge keeps every series monotone without coordination.
        """
        current = self.snapshot_counters()
        deltas: dict[str, float] = {}
        for name, value in current.items():
            delta = value - self._exported.get(name, 0)
            if delta > 0:
                deltas[name] = delta
        self._exported = current
        return deltas

    def merge_deltas(self, deltas: Mapping[str, float]) -> None:
        """Fold another process's :meth:`export_deltas` into this registry."""
        for name, delta in deltas.items():
            if isinstance(delta, bool) or not isinstance(delta, (int, float)):
                continue  # a malformed sidecar must not poison the registry
            if delta > 0:
                self.counter(name).inc(delta)

    def reset(self) -> None:
        """Drop every instrument (tests only — production never resets)."""
        with self._lock:
            self.generation += 1
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._exported = {}


_REGISTRY = Registry()


def get_registry() -> Registry:
    """The process-wide registry every layer folds into."""
    return _REGISTRY


# --------------------------------------------------------------------- #
# Gated convenience helpers — the instrumentation call sites.
# --------------------------------------------------------------------- #


def inc(name: str, amount: float = 1) -> None:
    """Increment a process-wide counter (no-op when telemetry is off)."""
    if enabled():
        _REGISTRY.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record a histogram sample (no-op when telemetry is off)."""
    if enabled():
        _REGISTRY.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (no-op when telemetry is off)."""
    if enabled():
        _REGISTRY.gauge(name).set(value)


def stats_as_dict(stats: Any) -> dict[str, Any]:
    """A plain field dictionary for a stats dataclass.

    Prefers the object's own ``as_dict`` (which may add derived totals
    like ``ChaseStats.triggers_fired``); falls back to dataclass fields.
    """
    as_dict = getattr(stats, "as_dict", None)
    if callable(as_dict):
        return as_dict()
    if is_dataclass(stats):
        return {f.name: getattr(stats, f.name) for f in fields(stats)}
    raise TypeError(f"cannot fold {type(stats).__name__} into the registry")


# fold_stats runs on per-request hot paths (one fold per SAT probe), so the
# reflective work is hoisted out of the loop: per-class key tuples avoid the
# dataclasses.fields walk inside as_dict, and resolved Counter handles avoid
# the registry lock per field.  Registry.reset() bumps the generation, which
# drops the handle cache (orphaned counters would otherwise swallow folds).
_FOLD_KEYS: dict[type, tuple[str, ...] | None] = {}
_FOLD_COUNTERS: dict[tuple[str, str], Counter] = {}
_FOLD_GENERATION = 0


def _fold_snapshot(stats: Any) -> dict[str, Any]:
    """``stats_as_dict`` with the key walk cached per stats class."""
    keys = _FOLD_KEYS.get(type(stats), ())
    if keys:
        return {name: getattr(stats, name) for name in keys}
    if keys is None:  # keys are not plain attributes: always call as_dict
        return stats_as_dict(stats)
    current = stats_as_dict(stats)
    # Derived entries (ChaseStats.triggers_fired) are properties, so plain
    # getattr reproduces as_dict for the known stats classes; a class whose
    # as_dict computes keys that are not attributes stays on the slow path.
    _FOLD_KEYS[type(stats)] = (
        tuple(current) if all(hasattr(stats, name) for name in current) else None
    )
    return current


def _fold_counter(prefix: str, name: str) -> Counter:
    """The registry counter for ``prefix.name``, resolved through a cache."""
    global _FOLD_GENERATION
    if _REGISTRY.generation != _FOLD_GENERATION:
        _FOLD_COUNTERS.clear()
        _FOLD_GENERATION = _REGISTRY.generation
    key = (prefix, name)
    counter = _FOLD_COUNTERS.get(key)
    if counter is None:
        counter = _FOLD_COUNTERS[key] = _REGISTRY.counter(f"{prefix}.{name}")
    return counter


def fold_stats(prefix: str, stats: Any) -> None:
    """Fold a stats dataclass into the registry by delta (idempotent-safe).

    The previously folded snapshot is remembered on the stats object, so
    cumulative objects can be folded at every flush point without double
    counting; fresh per-run objects fold their full value once.  No-op
    when telemetry is off.

    >>> from dataclasses import dataclass
    >>> @dataclass
    ... class Demo:
    ...     hits: int = 0
    >>> demo = Demo(hits=3)
    >>> set_enabled(True)
    >>> get_registry().reset()
    >>> fold_stats("demo", demo)
    >>> demo.hits = 5
    >>> fold_stats("demo", demo)
    >>> get_registry().counter("demo.hits").value
    5
    >>> set_enabled(None)
    """
    if not enabled():
        return
    current = _fold_snapshot(stats)
    seen = getattr(stats, "_telemetry_folded", None)
    for name, value in current.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        previous = seen.get(name, 0) if seen is not None else 0
        if value > previous:
            _fold_counter(prefix, name).inc(value - previous)
    try:
        stats._telemetry_folded = current  # fresh dict either way: no copy
    except AttributeError:  # __slots__ without the attribute: fold-once mode
        pass


# --------------------------------------------------------------------- #
# Prometheus name mangling.
# --------------------------------------------------------------------- #

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str) -> str:
    """Mangle a dotted metric name into a valid Prometheus identifier.

    >>> prometheus_name("solver.conflicts")
    'repro_solver_conflicts'
    """
    return "repro_" + _PROM_INVALID.sub("_", name)


def format_value(value: float) -> str:
    """Render a metric value (integers without a trailing ``.0``).

    >>> format_value(3.0), format_value(0.25)
    ('3', '0.25')
    """
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)
