"""One run record: spans, counters and per-task rows.

Every front door keeps its accounting in one :class:`Record`: spans
under the stage names of :data:`STAGES` (a span's *self time* excludes
the spans opened inside it), monotonic counters with dotted names
(``cache.hits``; a name whose last part starts with ``peak`` is a
high-water mark), one row per engine task, and ``info`` labels.

``with opened(record)`` opens a record on the calling thread; :func:`add`,
:func:`span` and :func:`stage` act on it, and cost one thread-local
lookup when none is open (the no-op path).  Closing a record folds it
into the record it was opened inside.  A record crosses the process
pool and the daemon socket as :meth:`Record.as_dict`.  Components that
outlive a run keep lifetime totals in :class:`Counters`, whose every
bump also lands in the record open on the calling thread.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Span stage names: the layers a run crosses.
STAGES = (
    "parse", "canon", "plan", "search", "certify", "store", "batch",
    "monitor", "simulate", "oracle", "queue",
)

_local = threading.local()


class Record:
    """What one run did: spans, counters, rows and labels."""

    __slots__ = ("counters", "spans", "rows", "info", "_lock")

    def __init__(self, rows: bool = False):
        self.counters: dict[str, float] = {}
        #: stage -> [self seconds, inclusive seconds, spans closed]
        self.spans: dict[str, list[float]] = {}
        self.rows: list[dict[str, Any]] | None = [] if rows else None
        self.info: dict[str, Any] = {}
        self._lock = threading.Lock()

    def add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def __getitem__(self, name: str) -> float:
        return self.counters.get(name, 0)

    def group(self, prefix: str) -> dict[str, float]:
        """The counters under ``prefix.``, keyed by the rest of their
        name (``group("provenance")`` -> ``{"solved": 3, ...}``)."""
        head = prefix + "."
        with self._lock:
            return {
                k[len(head):]: v for k, v in self.counters.items()
                if k.startswith(head)
            }

    def unknowns(self) -> dict[str, float]:
        """UNKNOWN answers by reason (the ``unknown.<reason>`` totals)."""
        return {k: v for k, v in self.group("unknown").items() if "@" not in k}

    def time(self, stage: str, self_s: float, total_s: float | None = None) -> None:
        """Charge one span of ``stage`` (e.g. a wait across threads)."""
        with self._lock:
            s = self.spans.setdefault(stage, [0.0, 0.0, 0])
            s[0] += self_s
            s[1] += self_s if total_s is None else total_s
            s[2] += 1

    def seconds(self, stage: str, inclusive: bool = False) -> float:
        return self.spans.get(stage, (0.0, 0.0))[1 if inclusive else 0]

    def merge(self, other: "Record | dict[str, Any]", rows: bool = True) -> None:
        """Add ``other``'s counters and spans (and its rows, when this
        record keeps rows and ``rows`` is set) into this record."""
        if isinstance(other, Record):
            other = {  # a closed record: read it in place
                "counters": other.counters, "spans": other.spans,
                "rows": other.rows, "info": other.info,
            }
        with self._lock:
            for k, v in other.get("counters", {}).items():
                if "peak" in k and k.rpartition(".")[2].startswith("peak"):
                    v = max(v, self.counters.get(k, 0))
                else:
                    v += self.counters.get(k, 0)
                self.counters[k] = v
            for stage, span in other.get("spans", {}).items():
                mine = self.spans.setdefault(stage, [0.0, 0.0, 0])
                for i in range(3):
                    mine[i] += span[i]
            for k, v in other.get("info", {}).items():
                self.info.setdefault(k, v)
            if rows and self.rows is not None:
                self.rows.extend(other.get("rows") or ())

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form (picklable, JSON-serializable)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "spans": {k: list(v) for k, v in self.spans.items()},
                "rows": list(self.rows or ()),
                "info": dict(self.info),
            }


class Counters:
    """A component's lifetime counters, declared once by name:
    ``Counters("store", "hits misses")`` reads as ``stats.hits``, and
    each bump also lands as ``store.hits`` in the record open on the
    calling thread — the share of a shared component the run caused."""

    __slots__ = ("_names", "_values", "_lock")

    #: prefix -> names: what :func:`render` shows (zero when uncounted)
    #: for a group of these counters.
    declared: dict[str, tuple[str, ...]] = {}

    def __init__(self, prefix: str, names: str):
        Counters.declared.setdefault(prefix, tuple(names.split()))
        self._names = {n: f"{prefix}.{n}" for n in names.split()}
        self._values: dict[str, float] = dict.fromkeys(self._names, 0)
        self._lock = threading.Lock()

    def add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._values[name] += n
        rec = getattr(_local, "record", None)
        if rec is not None:
            rec.add(self._names[name], n)

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self._values[name] = max(self._values[name], value)
        rec = getattr(_local, "record", None)
        if rec is not None:  # merging keeps the maximum of a peak
            rec.merge({"counters": {self._names[name]: value}})

    def __getattr__(self, name: str) -> float:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def as_dict(self) -> dict[str, float]:
        with self._lock:
            return dict(self._values)


def current() -> Record | None:
    return getattr(_local, "record", None)


@contextmanager
def opened(record: Record | None = None) -> Iterator[Record]:
    """Open ``record`` on this thread; on exit fold it into the outer one."""
    rec = record if record is not None else Record()
    outer = getattr(_local, "record", None)
    _local.record = rec
    try:
        yield rec
    finally:
        _local.record = outer
        if outer is not None:
            outer.merge(rec, rows=outer.rows is not None)


def add(name: str, n: float = 1) -> None:
    rec = getattr(_local, "record", None)
    if rec is not None:
        rec.add(name, n)


class span:
    """Time a block as ``stage`` (no-op without a record or in ``stage``);
    only the thread a record is open on charges its spans, unlocked."""

    __slots__ = ("stage", "_rec", "_t0", "_inner", "_outer")

    def __init__(self, stage: str):
        self.stage = stage

    def __enter__(self) -> "span":
        self._rec = rec = getattr(_local, "record", None)
        top = getattr(_local, "top", None)  # the innermost open span
        if rec is not None and (top is None or top.stage != self.stage):
            self._outer, self._inner = top, 0.0
            _local.top = self
            self._t0 = perf_counter()
        else:
            self._rec = None  # no record, or a call that stays in the stage
        return self

    def __exit__(self, *exc: Any) -> None:
        rec = self._rec
        if rec is not None:
            dur = perf_counter() - self._t0
            _local.top = outer = self._outer
            s = rec.spans.get(self.stage)
            if s is None:
                s = rec.spans[self.stage] = [0.0, 0.0, 0]
            s[0] += dur - self._inner
            s[1] += dur
            s[2] += 1
            if outer is not None:
                outer._inner += dur


def timed(stage: str) -> Callable:
    """Decorate a function to run as a ``stage`` span."""
    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed_call(*args: Any, **kwargs: Any) -> Any:
            with span(stage):
                return fn(*args, **kwargs)
        return timed_call
    return wrap


def stage() -> str:
    """The innermost span open on this thread (``"run"`` if none)."""
    top = getattr(_local, "top", None)
    return "run" if top is None else top.stage


def count_unknown(result: Any) -> None:
    """Count an UNKNOWN answer as ``unknown.<reason>`` and, by the
    stage it gave up in, ``unknown.<reason>@<stage>``."""
    rec = current()
    if rec is not None and result.unknown:
        reason = result.unknown_reason
        rec.add(f"unknown.{reason}")
        rec.add(f"unknown.{reason}@{result.stats.get('stage', 'run')}")


# ---------------------------------------------------------------------
# Rendering: every front door's --stats
# ---------------------------------------------------------------------
def _num(v: float) -> str:
    return str(int(v)) if v == int(v) else f"{v:.4g}"


def render(rec: Record) -> str:
    """The ``--stats`` text of a record: its labels (``run:``), one line
    per counter group that counted anything (``cache: hits=1 ...``), the
    UNKNOWN answers by reason and stage, the self time per stage, then
    the per-task table."""
    lines = []
    if rec.info:
        lines.append("run: " + " ".join(f"{k}={v}" for k, v in rec.info.items()))
    counters = dict(rec.counters)
    for head, names in Counters.declared.items():
        if any(k.startswith(head + ".") for k in counters):
            for name in names:
                counters.setdefault(f"{head}.{name}", 0)
    groups: dict[str, list[tuple[str, float]]] = {}
    for name, v in sorted(counters.items()):
        head, _, rest = name.partition(".")
        groups.setdefault(head, []).append((rest, v))
    unknown = groups.pop("unknown", [])
    for head, items in groups.items():
        if any(v for _, v in items):
            lines.append(f"{head}: " + " ".join(f"{k}={_num(v)}" for k, v in items))
    if unknown:  # budget=1[queue=1]: each reason, then where it gave up
        lines.append("unknown: " + " ".join(
            f"{reason}={_num(n)}[" + " ".join(
                f"{k.partition('@')[2]}={_num(v)}" for k, v in unknown
                if k.startswith(reason + "@")
            ) + "]"
            for reason, n in unknown if "@" not in reason
        ))
    if rec.spans:
        lines.append("stages: " + " ".join(
            f"{name}={rec.spans[name][0] * 1e3:.2f}ms"
            for name in STAGES if name in rec.spans
        ))
    if rec.rows is not None:
        lines.append(
            f"{'address':<10} {'backend':<12} {'verdict':<9} {'source':<6} {'time':>10}"
        )
        for row in rec.rows:
            extra = ", ".join(
                f"{k}={v}" for k, v in row["detail"].items()
                if isinstance(v, (int, float, str))
            )
            lines.append(
                f"{str(row['address']):<10} {row['backend']:<12} {row['verdict']:<9} "
                f"{row['source']:<6} {row['seconds'] * 1e3:>8.2f}ms  {extra}"
            )
    return "\n".join(lines)
