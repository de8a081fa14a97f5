"""Layer spans timed from outside the program.

The benchmark edits nothing under ``src/``: :meth:`Tracer.install`
replaces each layer's public functions and methods, in every loaded
``repro`` module that holds them, with wrappers that time the call
and record counters.  A span opens when a call crosses into a layer
other than the innermost open one; a layer's *self time* is its spans'
durations minus the time their child spans cover, so the self times of
all layers plus ``other`` (time in no span) add up to the wall time.

Rules that keep the sum honest:

* Spans are recorded on *root* threads only: the benchmark's main
  thread, or the daemon's component threads.  Portfolio legs run on
  helper threads while their caller waits inside a ``search`` span, so
  their time is already counted there.
* ``certify`` absorbs the ``search`` calls it makes: the SAT
  re-refutation that :func:`repro.engine.certify.ensure_certificate`
  runs for a verdict without a certificate is certification work.
* Generators (``FrameReader.events``, ``StreamingVerifier.feed``) are
  timed per ``next()`` step, which is where their work runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# layer -> [(module, "function" or "Class.method")].  Each layer is
# named after the module whose public calls it times.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "parse": [
        ("repro.core.serialize_bin", "loads_bin"),
        ("repro.core.serialize_bin", "FrameReader.feed"),
        ("repro.core.serialize_bin", "FrameReader.events"),
    ],
    "canon": [
        ("repro.engine.cache", "canonicalize"),
        ("repro.engine.cache", "fingerprint"),
    ],
    "plan": [
        ("repro.engine.planner", "plan_vmc"),
        ("repro.engine.planner", "plan_vsc"),
        ("repro.engine.prepass", "prepass_vmc"),
        ("repro.engine.prepass", "prepass_vsc"),
    ],
    "search": [
        ("repro.engine.backend", "*Backend.run"),
        ("repro.engine.backend", "*Backend.run_cancellable"),
        ("repro.engine.backend", "*Backend.run_resilient"),
        ("repro.engine.portfolio", "PortfolioBackend.run"),
        ("repro.engine.portfolio", "PortfolioBackend.run_cancellable"),
        ("repro.engine.portfolio", "PortfolioBackend.run_resilient"),
        ("repro.core.exact", "exact_vmc"),
        ("repro.core.exact", "exact_vsc"),
        ("repro.sat.cdcl", "solve_cdcl"),
        ("repro.sat.cdcl", "CDCLSolver.solve"),
    ],
    "certify": [
        ("repro.engine.certify", "ensure_certificate"),
        ("repro.engine.certify", "validate_result"),
        ("repro.sat.drat", "check_rup"),
    ],
    "store": [
        ("repro.engine.store", "ResultStore.put"),
        ("repro.engine.store", "ResultStore.lookup"),
        ("repro.engine.store", "ResultStore.flush"),
    ],
    "batch": [
        ("repro.engine.batch", "plan_batch"),
        ("repro.engine.batch", "run_plan"),
    ],
    "monitor": [
        ("repro.engine.streaming", "StreamingVerifier.feed"),
        ("repro.engine.streaming", "StreamingVerifier.finalize"),
        ("repro.engine.streaming", "AddressMonitor.refute"),
    ],
    "simulate": [
        ("repro.memsys.system", "MultiprocessorSystem.run"),
        ("repro.memsys.directory", "DirectorySystem.run"),
    ],
    "oracle": [
        ("repro.memsys.oracle", "classify_run"),
    ],
}

#: Calls into these layers made from inside the key layer stay in it.
ABSORBS = {"certify": {"search"}}

GENERATORS = {"FrameReader.events", "StreamingVerifier.feed"}


class Tracer:
    """Self time per layer and function, plus counters."""

    def __init__(self, root_thread=None):
        main = threading.get_ident()
        self._is_root = root_thread or (
            lambda: threading.get_ident() == main
        )
        self._local = threading.local()
        self.self_s: dict[str, float] = defaultdict(float)
        self.fn_self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.winners: Counter = Counter()
        #: One entry per simulated run: inclusive seconds and ops.
        self.runs: list[dict] = []

    def reset(self) -> None:
        """Forget everything recorded so far (after a warm-up)."""
        self.self_s.clear()
        self.fn_self_s.clear()
        self.counts.clear()
        self.winners.clear()
        self.runs.clear()

    # -- spans -------------------------------------------------------
    def _stack(self):
        """This thread's open spans, or None on a thread not recorded."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [] if self._is_root() else None
            return self._local.stack

    @contextlib.contextmanager
    def suspended(self):
        """Record nothing on this thread inside the block (the
        benchmark's own checks call into traced layers)."""
        st = self._stack()
        self._local.stack = None
        try:
            yield
        finally:
            self._local.stack = st

    @staticmethod
    def _pushes(st, layer: str) -> bool:
        if st and st[-1][0] == layer:
            return False
        for frame in st:
            if layer in ABSORBS.get(frame[0], ()):
                return False
        return True

    def _open(self, st, layer):
        """Push a span for ``layer`` unless the call stays in the open
        one; returns the frame (or None) and the start time."""
        frame = [layer, 0.0] if self._pushes(st, layer) else None
        if frame:
            st.append(frame)
        return frame, perf_counter()

    def _close(self, st, frame, name, t0) -> float:
        dur = perf_counter() - t0
        if frame:
            st.pop()
            own = dur - frame[1]
            self.self_s[frame[0]] += own
            self.fn_self_s[name] += own
            if st:
                st[-1][1] += dur
        return dur

    def _call(self, layer, name, fn, a, k, observe):
        st = self._stack()
        if st is None:
            return fn(*a, **k)
        pre = observe(self, "pre", a, k, None, 0.0) if observe else None
        frame, t0 = self._open(st, layer)
        try:
            result = fn(*a, **k)
        finally:
            dur = self._close(st, frame, name, t0)
        self.counts[f"call.{name}"] += 1
        if observe:
            observe(self, "post", a, k, result, dur, pre=pre, pushed=bool(frame))
        return result

    def _iterate(self, layer, name, gen):
        st = self._stack()
        if st is None:
            yield from gen
            return
        while True:
            frame, t0 = self._open(st, layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(st, frame, name, t0)
            yield item

    # -- installation ------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        observe = OBSERVERS.get(name) or OBSERVERS.get(layer)
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*a, **k):
                return self._iterate(layer, name, fn(*a, **k))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*a, **k):
            return self._call(layer, name, fn, a, k, observe)
        return wrapper

    def install(self, layers=None) -> None:
        """Import every traced module and swap in the wrappers (of
        every layer, or of the named ``layers`` only)."""
        import repro.cli  # noqa: F401 — loads the entry points' imports
        import repro.memsys.campaign  # noqa: F401
        import repro.service  # noqa: F401

        for layer, targets in LAYERS.items():
            if layers is not None and layer not in layers:
                continue
            for modname, target in targets:
                mod = importlib.import_module(modname)
                if "." not in target:
                    orig = getattr(mod, target)
                    wrapped = self._wrap(layer, target, orig)
                    for m in list(sys.modules.values()):
                        d = getattr(m, "__dict__", None)
                        if (
                            d is not None
                            and getattr(m, "__name__", "").startswith("repro")
                            and d.get(target) is orig
                        ):
                            setattr(m, target, wrapped)
                    continue
                cls_name, meth = target.split(".")
                if cls_name.startswith("*"):
                    classes = [
                        c for c in vars(mod).values()
                        if isinstance(c, type)
                        and c.__module__ == modname
                        and c.__name__.endswith(cls_name[1:])
                    ]
                else:
                    classes = [getattr(mod, cls_name)]
                for cls in classes:
                    if meth in cls.__dict__:
                        setattr(cls, meth, self._wrap(
                            layer, f"{cls.__name__}.{meth}",
                            cls.__dict__[meth],
                        ))

    def totals(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "fn_self_s": dict(self.fn_self_s),
            "counts": dict(self.counts),
            "winners": dict(self.winners),
        }


# ---------------------------------------------------------------------
# Counters observed at the layer boundaries
# ---------------------------------------------------------------------
def _bytes_in(tr, phase, a, k, result, dur, **_):
    if phase == "post":
        data = a[1] if len(a) > 1 and not isinstance(a[0], (bytes, bytearray, memoryview)) else a[0]
        tr.counts["parse.bytes"] += len(data)


def _prepass(tr, phase, a, k, info, dur, **_):
    if phase == "post" and info is not None:
        tr.counts["prepass.ops_eliminated"] += info.ops_eliminated
        if info.decided is not None:
            tr.counts["prepass.decided"] += 1


def _search(tr, phase, a, k, result, dur, pushed=False, **_):
    if phase != "post" or not pushed:
        return
    tr.counts["search.tasks"] += 1
    race = getattr(result, "stats", {}).get("portfolio")
    if isinstance(race, dict):
        tr.counts["portfolio.races"] += 1
        tr.winners[str(race.get("winner"))] += 1


def _ensure(tr, phase, a, k, result, dur, pre=None, **_):
    res = a[1] if len(a) > 1 else k.get("result")
    if phase == "pre":
        return res.violated and res.certificate is None
    if pre and result.certificate is not None:
        tr.counts["certify.sat_fallbacks"] += 1


def _validate(tr, phase, a, k, check, dur, **_):
    if phase == "post":
        tr.counts["certify.validated"] += 1


def _lookup(tr, phase, a, k, entry, dur, **_):
    if phase == "post":
        tr.counts["store.hits" if entry is not None else "store.misses"] += 1


def _plan_batch(tr, phase, a, k, plan, dur, **_):
    if phase == "post":
        tr.counts["batch.tasks"] += len(plan.tasks)
        tr.counts["batch.uniques"] += len(plan.uniques)


def _refute(tr, phase, a, k, result, dur, **_):
    if phase == "post":
        tr.counts["monitor.refutes"] += 1
        tr.counts["monitor.refute_us"] += int(dur * 1e6)


def _simulate(tr, phase, a, k, run, dur, **_):
    if phase == "post":
        tr.counts["simulate.events"] += run.steps
        tr.counts["simulate.messages"] += run.bus_traffic.get(
            "messages", run.bus_transactions
        )
        tr.runs.append({
            "s": dur, "ops": run.num_ops, "events": run.steps,
            "messages": run.bus_traffic.get("messages", run.bus_transactions),
        })


OBSERVERS = {
    "loads_bin": _bytes_in,
    "FrameReader.feed": _bytes_in,
    "prepass_vmc": _prepass,
    "prepass_vsc": _prepass,
    "search": _search,
    "ensure_certificate": _ensure,
    "validate_result": _validate,
    "ResultStore.lookup": _lookup,
    "plan_batch": _plan_batch,
    "AddressMonitor.refute": _refute,
    "MultiprocessorSystem.run": _simulate,
    "DirectorySystem.run": _simulate,
}
