"""Figure 5.3's routing table as data: one fixed ladder per problem.

The paper's Figure 5.3 is a fixed table — the restriction that holds
picks the algorithm.  :data:`LADDERS` declares it once, cheapest row
first:

* VMC: ``write-order → single-op → readmap → exact → sat-cdcl``;
* VSC: ``exact → sat-cdcl`` (no per-address restriction applies).

Routing walks a ladder top to bottom and picks the first backend whose
``auto_applicable`` predicate holds; a forced ``method=`` resolves a
name or alias (``sat``) to its backend and checks that it applies.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.backend import (
    Backend,
    BackendInapplicableError,
    ExactBackend,
    Instance,
    ReadMapBackend,
    SatBackend,
    SingleOpBackend,
    WriteOrderBackend,
)


class BackendRegistry:
    """One problem's ladder: its backends in routing order, by name."""

    def __init__(self, problem: str, backends: Sequence[Backend]):
        self.problem = problem
        self._backends = tuple(backends)
        self._by_name = {
            key: b for b in self._backends for key in (b.name, *b.aliases)
        }

    def names(self) -> list[str]:
        return [b.name for b in self._backends]

    def get(self, name: str) -> Backend:
        """Resolve a method name or alias; ValueError when unknown."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown method {name!r}") from None

    def applicable(self, instance: Instance) -> list[Backend]:
        """Backends able to decide the instance, in ladder order."""
        return [b for b in self._backends if b.applicable(instance)]

    def select(self, instance: Instance) -> Backend:
        """The router: the first auto-applicable backend (the SAT route
        always is, so every instance gets one)."""
        return next(b for b in self._backends if b.auto_applicable(instance))

    def resolve(self, method: str, instance: Instance) -> Backend:
        """Resolve a forced ``method=`` to a backend, validating
        applicability; raises :class:`BackendInapplicableError` (a
        ValueError) when the backend cannot decide the instance."""
        backend = self.get(method)
        if not backend.applicable(instance):
            detail = ""
            if backend.name == "write-order":
                detail = "method='write-order' requires write_order="
            raise BackendInapplicableError(
                backend,
                instance,
                [b.name for b in self.applicable(instance)],
                detail,
            )
        return backend

    def key(self, method: str) -> str:
        """The method part of a cache key: ``"auto"``, or the forced
        backend's name (aliases share entries; unknown names raise)."""
        return method if method == "auto" else self.get(method).name


LADDERS: dict[str, BackendRegistry] = {
    "vmc": BackendRegistry("vmc", (
        WriteOrderBackend(),
        SingleOpBackend(),
        ReadMapBackend(),
        ExactBackend("vmc"),
        SatBackend("vmc"),
    )),
    "vsc": BackendRegistry("vsc", (ExactBackend("vsc"), SatBackend("vsc"))),
}
