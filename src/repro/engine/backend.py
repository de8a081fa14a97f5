"""The :class:`Backend` interface and the built-in deciders.

A backend wraps one decision algorithm for VMC (per-address coherence)
or VSC (sequential consistency).  The paper's Figure 5.3 is a dispatch
table — "which restriction holds ⇒ which algorithm decides the
instance" — and this module turns each row into an object with

* ``applicable(instance)`` — can this algorithm decide the instance at
  all (the hard precondition, checked when a caller *forces* a method);
* ``auto_applicable(instance)`` — should the router pick it
  automatically (e.g. the exact search is always *able* to run, but the
  router only picks it while the estimated state count is modest);
* ``cost_estimate(instance)`` — a unitless work estimate, used by the
  planner to order per-address tasks cheapest-first;
* ``tier`` — the Figure 5.3 routing priority: among auto-applicable
  backends the registry selects the lowest tier, reproducing the
  paper's ladder top to bottom.

New deciders plug in by subclassing :class:`Backend` and registering an
instance with a :class:`~repro.engine.registry.BackendRegistry` — the
router never needs to change (see ``docs/engine.md``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from math import log2
from typing import Sequence

from repro.core import exact, readmap, single_op, writeorder
from repro.core.encode import sat_vmc, sat_vsc
from repro.core.result import VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.util.control import StopCheck

# With k processes the frontier search visits O(n^k) states; keep exact
# search for instances whose worst-case state count is modest.
EXACT_STATE_BUDGET = 2_000_000


def estimated_states(execution: Execution) -> float:
    """Upper bound on the frontier-search state count (see core.exact)."""
    est = 1.0
    for h in execution.histories:
        est *= len(h) + 1
        if est > 1e18:
            break
    return est


class BackendInapplicableError(ValueError):
    """A forced backend cannot decide the given instance.

    Subclasses :class:`ValueError` so callers that treated the old
    dispatcher's errors generically keep working; carries the backend
    and the names of the backends that *would* apply so the CLI can
    print an actionable message.
    """

    def __init__(self, backend: "Backend", instance: "Instance",
                 applicable: list[str], detail: str = ""):
        self.backend_name = backend.name
        self.applicable = applicable
        where = (
            f" at address {instance.address!r}"
            if instance.address is not None
            else ""
        )
        msg = (
            f"backend {backend.name!r} is not applicable to this "
            f"instance{where}"
        )
        if detail:
            msg += f" ({detail})"
        msg += f"; applicable backends: {', '.join(applicable) or '<none>'}"
        super().__init__(msg)


@dataclass
class Instance:
    """One unit of verification work handed to a backend.

    For VMC this is a single-address sub-execution (the Section 3
    observation that coherence decomposes per address); for VSC it is
    the whole execution.  ``write_order`` carries the memory system's
    write serialization when available (Section 5.2).
    """

    execution: Execution
    address: Address | None = None
    write_order: Sequence[Operation] | None = None
    problem: str = "vmc"
    #: Ordering hints from the pre-pass — (uid, uid) pairs that hold in
    #: every legal schedule.  Backends may use them to prune (the exact
    #: search) or to strengthen the encoding (unit clauses); ignoring
    #: them is always correct.
    order_hints: tuple[tuple[tuple[int, int], tuple[int, int]], ...] | None = None
    #: Produce a checkable certificate alongside the verdict (the
    #: engine's ``--certify`` modes): SAT backends log a DRAT-style
    #: proof on the *plain* encoding — untrusted pre-pass hints are
    #: dropped so the refutation matches the CNF an auditor re-derives
    #: from the trace alone.  Backends without certificate support
    #: (``readmap``, ``single-op``, ``exact``) ignore the flag;
    #: :func:`repro.engine.certify.ensure_certificate` fills the gap
    #: afterwards — the happens-before closure first, a proof-logging
    #: SAT solve only when the closure is undecided.
    certify: bool = False
    _states: float | None = field(default=None, repr=False)

    @property
    def num_ops(self) -> int:
        return self.execution.num_ops

    @property
    def states(self) -> float:
        if self._states is None:
            self._states = estimated_states(self.execution)
        return self._states


class Backend(abc.ABC):
    """One decision algorithm behind the unified verification engine."""

    #: Unique name; also the ``method=`` / ``--method`` spelling.
    name: str = ""
    #: Alternative ``method=`` spellings resolving to this backend.
    aliases: tuple[str, ...] = ()
    #: "vmc" or "vsc".
    problem: str = "vmc"
    #: Figure 5.3 routing priority — lower wins among auto-applicable.
    tier: int = 100

    @abc.abstractmethod
    def applicable(self, instance: Instance) -> bool:
        """Whether this backend can decide ``instance`` at all."""

    def auto_applicable(self, instance: Instance) -> bool:
        """Whether the router may pick this backend unforced."""
        return self.applicable(instance)

    @abc.abstractmethod
    def cost_estimate(self, instance: Instance) -> float:
        """Unitless work estimate, for cheapest-first task ordering."""

    @abc.abstractmethod
    def run(self, instance: Instance) -> VerificationResult:
        """Decide the instance.  Must be thread-safe and side-effect
        free — the executor may call it from worker threads."""

    def run_cancellable(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        """Decide the instance, polling ``should_stop`` when supported.

        Backends whose algorithm supports cooperative cancellation (the
        exact search, CDCL) override this; the default ignores the stop
        check and runs to completion, which is always correct — the
        portfolio executor just cannot abort such a leg early.  Unlike
        :meth:`run`, budget exhaustion (``SearchBudgetExceeded``) is
        allowed to propagate so the racing caller can let the other leg
        finish instead of silently escalating inside the losing leg.
        """
        return self.run(instance)

    def run_resilient(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        """The executor's deadline-aware entry point: :meth:`run`'s full
        semantics (budget exhaustion escalates inline, never a task
        error) *plus* cooperative cancellation.

        When ``should_stop`` fires, :class:`~repro.util.control.
        Cancelled` propagates to the executor, which records a sound
        UNKNOWN — the abandoned work proves nothing either way.
        """
        if should_stop is None:
            return self.run(instance)
        try:
            return self.run_cancellable(instance, should_stop)
        except exact.SearchBudgetExceeded:
            return self.run(instance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} tier={self.tier}>"


def _nlogn(n: int) -> float:
    return n * log2(n + 2) + 1.0


# ---------------------------------------------------------------------
# Built-in VMC backends (Figure 5.3, top to bottom)
# ---------------------------------------------------------------------
class WriteOrderBackend(Backend):
    """Section 5.2: the write serialization is supplied — polynomial."""

    name = "write-order"
    problem = "vmc"
    tier = 0

    def applicable(self, instance: Instance) -> bool:
        return instance.write_order is not None

    def cost_estimate(self, instance: Instance) -> float:
        return _nlogn(instance.num_ops)

    def run(self, instance: Instance) -> VerificationResult:
        if instance.write_order is None:
            raise BackendInapplicableError(
                self, instance, [], "no write-order was supplied"
            )
        return writeorder.writeorder_vmc(instance.execution, instance.write_order)


class SingleOpBackend(Backend):
    """Figure 5.3 row 1: at most one operation per process."""

    name = "single-op"
    problem = "vmc"
    tier = 1

    def applicable(self, instance: Instance) -> bool:
        return single_op.applicable(instance.execution)

    def cost_estimate(self, instance: Instance) -> float:
        return float(instance.num_ops) + 1.0

    def run(self, instance: Instance) -> VerificationResult:
        return single_op.single_op_vmc(instance.execution)


class ReadMapBackend(Backend):
    """Figure 5.3 row 5: every value written at most once."""

    name = "readmap"
    problem = "vmc"
    tier = 2

    def applicable(self, instance: Instance) -> bool:
        return readmap.applicable(instance.execution)

    def auto_applicable(self, instance: Instance) -> bool:
        # The read-map is only *forced* when no write re-creates the
        # initial value (otherwise initial-value reads have two possible
        # sources); the router must fall through to the exact search.
        return readmap.applicable(instance.execution) and (
            not instance.execution.columnar().routing.rewrites_initial
        )

    def cost_estimate(self, instance: Instance) -> float:
        return 2.0 * instance.num_ops + 1.0

    def run(self, instance: Instance) -> VerificationResult:
        return readmap.readmap_vmc(instance.execution)


class ExactBackend(Backend):
    """Memoized frontier search — polynomial for constant processes.

    ``max_states`` caps the search; when the cap is hit, :meth:`run`
    escalates to the ``fallback_solver`` SAT route instead of raising
    (budget exhaustion is a routing event, never a task error), while
    :meth:`run_cancellable` lets :class:`SearchBudgetExceeded` propagate
    so a racing portfolio can simply retire this leg.
    """

    name = "exact"
    problem = "vmc"
    tier = 3

    def __init__(self, max_states: int | None = None,
                 fallback_solver: str = "cdcl"):
        self.max_states = max_states
        self.fallback_solver = fallback_solver

    def applicable(self, instance: Instance) -> bool:
        return True

    def auto_applicable(self, instance: Instance) -> bool:
        return instance.states <= EXACT_STATE_BUDGET

    def cost_estimate(self, instance: Instance) -> float:
        return min(instance.states, 1e18)

    def run(self, instance: Instance) -> VerificationResult:
        try:
            return exact.exact_vmc(
                instance.execution,
                max_states=self.max_states,
                order_hints=instance.order_hints,
            )
        except exact.SearchBudgetExceeded as e:
            result = sat_vmc(
                instance.execution,
                solver=self.fallback_solver,
                order_hints=instance.order_hints,
                certify=instance.certify,
            )
            result.stats["fallback_from"] = "exact"
            result.stats["exact_states"] = e.states
            return result

    def run_cancellable(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        return exact.exact_vmc(
            instance.execution,
            max_states=self.max_states,
            order_hints=instance.order_hints,
            should_stop=should_stop,
        )

    def run_resilient(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        if should_stop is None:
            return self.run(instance)
        try:
            return self.run_cancellable(instance, should_stop)
        except exact.SearchBudgetExceeded as e:
            # Same escalation as run(), but the SAT route inherits the
            # deadline — an exhausted budget must not shed the clock.
            result = sat_vmc(
                instance.execution,
                solver=self.fallback_solver,
                order_hints=instance.order_hints,
                should_stop=should_stop,
                certify=instance.certify,
            )
            result.stats["fallback_from"] = "exact"
            result.stats["exact_states"] = e.states
            return result


class SatBackend(Backend):
    """CNF + SAT for the NP-complete general case."""

    problem = "vmc"

    def __init__(self, solver: str = "cdcl", tier: int = 4,
                 aliases: tuple[str, ...] = ()):
        self.solver = solver
        self.name = f"sat-{solver}"
        self.tier = tier
        self.aliases = aliases

    def applicable(self, instance: Instance) -> bool:
        return True

    def cost_estimate(self, instance: Instance) -> float:
        n = instance.num_ops
        # O(n^3) transitivity clauses dominate encoding; keep the
        # estimate above the exact search's within its budget so the
        # ladder is preserved, and monotone in n for task ordering.
        return float(EXACT_STATE_BUDGET) + n**3

    def run(self, instance: Instance) -> VerificationResult:
        return sat_vmc(
            instance.execution,
            solver=self.solver,
            order_hints=instance.order_hints,
            certify=instance.certify,
        )

    def run_cancellable(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        return sat_vmc(
            instance.execution,
            solver=self.solver,
            order_hints=instance.order_hints,
            should_stop=should_stop,
            certify=instance.certify,
        )


# ---------------------------------------------------------------------
# Built-in VSC backends
# ---------------------------------------------------------------------
class ExactVscBackend(Backend):
    """Frontier search over all addresses (Gibbons–Korach cell)."""

    name = "exact"
    problem = "vsc"
    tier = 0

    def __init__(self, max_states: int | None = None,
                 fallback_solver: str = "cdcl"):
        self.max_states = max_states
        self.fallback_solver = fallback_solver

    def applicable(self, instance: Instance) -> bool:
        return True

    def auto_applicable(self, instance: Instance) -> bool:
        return instance.states <= EXACT_STATE_BUDGET

    def cost_estimate(self, instance: Instance) -> float:
        return min(instance.states, 1e18)

    def run(self, instance: Instance) -> VerificationResult:
        try:
            return exact.exact_vsc(
                instance.execution,
                max_states=self.max_states,
                order_hints=instance.order_hints,
            )
        except exact.SearchBudgetExceeded as e:
            result = sat_vsc(
                instance.execution,
                solver=self.fallback_solver,
                order_hints=instance.order_hints,
                certify=instance.certify,
            )
            result.stats["fallback_from"] = "exact"
            result.stats["exact_states"] = e.states
            return result

    def run_cancellable(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        return exact.exact_vsc(
            instance.execution,
            max_states=self.max_states,
            order_hints=instance.order_hints,
            should_stop=should_stop,
        )

    def run_resilient(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        if should_stop is None:
            return self.run(instance)
        try:
            return self.run_cancellable(instance, should_stop)
        except exact.SearchBudgetExceeded as e:
            result = sat_vsc(
                instance.execution,
                solver=self.fallback_solver,
                order_hints=instance.order_hints,
                should_stop=should_stop,
                certify=instance.certify,
            )
            result.stats["fallback_from"] = "exact"
            result.stats["exact_states"] = e.states
            return result


class SatVscBackend(Backend):
    """CNF + SAT over all addresses."""

    problem = "vsc"

    def __init__(self, solver: str = "cdcl", tier: int = 1,
                 aliases: tuple[str, ...] = ()):
        self.solver = solver
        self.name = f"sat-{solver}"
        self.tier = tier
        self.aliases = aliases

    def applicable(self, instance: Instance) -> bool:
        return True

    def cost_estimate(self, instance: Instance) -> float:
        n = instance.num_ops
        return float(EXACT_STATE_BUDGET) + n**3

    def run(self, instance: Instance) -> VerificationResult:
        return sat_vsc(
            instance.execution,
            solver=self.solver,
            order_hints=instance.order_hints,
            certify=instance.certify,
        )

    def run_cancellable(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        return sat_vsc(
            instance.execution,
            solver=self.solver,
            order_hints=instance.order_hints,
            should_stop=should_stop,
            certify=instance.certify,
        )
