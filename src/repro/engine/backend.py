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
* ``search`` — whether the algorithm is a worst-case exponential
  search (the exact search and CNF + SAT), which the planner pre-passes
  and races;
* ``run(instance, should_stop=None)`` — the one entry point.

The ladder that orders them, one fixed table per problem, is
:mod:`repro.engine.registry`; the searches' state budgets live here,
beside the backends they cost.
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

# The searches' budgets, in estimated frontier states (estimated_states).

#: The router picks the exact search while an instance's estimated
#: state count is within this (with k processes the search visits
#: O(n^k) states); above it, SAT.
EXACT_STATE_BUDGET = 2_000_000

#: Instances whose estimated state count is below this are decided by
#: the exact search alone — it wins the race so fast that spinning up a
#: second leg (thread + CNF encoding) costs more than it can save — and
#: stay off the process pool.
PORTFOLIO_MIN_STATES = 20_000

#: State budget for the exact leg *inside a race*.  Past this the leg
#: retires and lets the SAT leg finish; deliberately smaller than the
#: router's EXACT_STATE_BUDGET since here retiring is cheap.
RACE_STATE_BUDGET = 250_000


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
    #: Whether the algorithm is a search, exponential in the worst case
    #: (the NP-complete rows of Figure 5.3): only these tasks are worth
    #: the pre-pass, the exact-vs-SAT race and a pool worker.
    search: bool = False

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
    def run(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        """Decide the instance; side-effect free, so a pool worker or a
        race thread may call it.

        The searches poll ``should_stop`` and raise
        :class:`~repro.util.control.Cancelled` when it fires (the
        executor records a sound UNKNOWN; a race retires the leg); the
        polynomial deciders run to completion.  ``None`` polls nothing.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.problem}:{self.name}>"


def _nlogn(n: int) -> float:
    return n * log2(n + 2) + 1.0


# ---------------------------------------------------------------------
# VMC's polynomial deciders (Figure 5.3, top to bottom)
# ---------------------------------------------------------------------
class WriteOrderBackend(Backend):
    """Section 5.2: the write serialization is supplied — polynomial."""

    name = "write-order"

    def applicable(self, instance: Instance) -> bool:
        return instance.write_order is not None

    def cost_estimate(self, instance: Instance) -> float:
        return _nlogn(instance.num_ops)

    def run(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        if instance.write_order is None:
            raise BackendInapplicableError(
                self, instance, [], "no write-order was supplied"
            )
        return writeorder.writeorder_vmc(instance.execution, instance.write_order)


class SingleOpBackend(Backend):
    """Figure 5.3 row 1: at most one operation per process."""

    name = "single-op"

    def applicable(self, instance: Instance) -> bool:
        return single_op.applicable(instance.execution)

    def cost_estimate(self, instance: Instance) -> float:
        return float(instance.num_ops) + 1.0

    def run(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        return single_op.single_op_vmc(instance.execution)


class ReadMapBackend(Backend):
    """Figure 5.3 row 5: every value written at most once."""

    name = "readmap"

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

    def run(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        return readmap.readmap_vmc(instance.execution)


# ---------------------------------------------------------------------
# The searches, for either problem
# ---------------------------------------------------------------------
class ExactBackend(Backend):
    """Memoized frontier search — polynomial for constant processes.

    ``problem`` picks the per-address (VMC) or whole-execution (VSC,
    the Gibbons–Korach cell) search.  ``max_states`` caps it: past the
    cap :meth:`run` raises :class:`~repro.core.exact.SearchBudgetExceeded`,
    which only the race's capped leg is given, and on which it retires.
    """

    name = "exact"
    search = True

    def __init__(self, problem: str = "vmc", max_states: int | None = None):
        self.problem = problem
        self.max_states = max_states

    def applicable(self, instance: Instance) -> bool:
        return True

    def auto_applicable(self, instance: Instance) -> bool:
        return instance.states <= EXACT_STATE_BUDGET

    def cost_estimate(self, instance: Instance) -> float:
        return min(instance.states, 1e18)

    def run(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        search = exact.exact_vmc if self.problem == "vmc" else exact.exact_vsc
        return search(
            instance.execution,
            max_states=self.max_states,
            order_hints=instance.order_hints,
            should_stop=should_stop,
        )


class SatBackend(Backend):
    """CNF + CDCL for the NP-complete general case, for either problem."""

    name = "sat-cdcl"
    aliases = ("sat",)
    solver = "cdcl"
    search = True

    def __init__(self, problem: str = "vmc"):
        self.problem = problem

    def applicable(self, instance: Instance) -> bool:
        return True

    def cost_estimate(self, instance: Instance) -> float:
        n = instance.num_ops
        # O(n^3) transitivity clauses dominate encoding; keep the
        # estimate above the exact search's within its budget so the
        # ladder is preserved, and monotone in n for task ordering.
        return float(EXACT_STATE_BUDGET) + n**3

    def run(
        self, instance: Instance, should_stop: StopCheck = None
    ) -> VerificationResult:
        solve = sat_vmc if self.problem == "vmc" else sat_vsc
        return solve(
            instance.execution,
            solver=self.solver,
            order_hints=instance.order_hints,
            should_stop=should_stop,
            certify=instance.certify,
        )
