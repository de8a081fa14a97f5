"""Backend registries: Figure 5.3's routing table as data.

A :class:`BackendRegistry` holds the deciders for one problem ("vmc" or
"vsc").  Selection walks the registered backends in tier order and
picks the first whose ``auto_applicable`` predicate holds — exactly the
paper's ladder, but extensible: registering a backend with a new tier
slots it into the routing without touching any dispatch code.

Module-level :func:`vmc_registry` / :func:`vsc_registry` return the
shared default registries; :func:`build_vmc_registry` /
:func:`build_vsc_registry` build fresh ones for tests and embedders
that want private routing tables.
"""

from __future__ import annotations

from repro.engine.backend import (
    Backend,
    BackendInapplicableError,
    ExactBackend,
    ExactVscBackend,
    Instance,
    ReadMapBackend,
    SatBackend,
    SatVscBackend,
    SingleOpBackend,
    WriteOrderBackend,
)


class BackendRegistry:
    """An ordered, named collection of :class:`Backend` instances."""

    def __init__(self, problem: str):
        self.problem = problem
        self._backends: list[Backend] = []
        self._by_name: dict[str, Backend] = {}

    # -- registration ---------------------------------------------------
    def register(self, backend: Backend) -> Backend:
        """Add a backend; returns it so this can be used as a decorator
        on pre-built instances."""
        if backend.problem != self.problem:
            raise ValueError(
                f"backend {backend.name!r} decides {backend.problem!r}, "
                f"this registry routes {self.problem!r}"
            )
        for key in (backend.name, *backend.aliases):
            if key in self._by_name:
                raise ValueError(f"backend name {key!r} already registered")
        self._backends.append(backend)
        self._backends.sort(key=lambda b: b.tier)
        for key in (backend.name, *backend.aliases):
            self._by_name[key] = backend
        return backend

    # -- queries --------------------------------------------------------
    def backends(self) -> list[Backend]:
        """All backends, cheapest tier first."""
        return list(self._backends)

    def names(self) -> list[str]:
        return [b.name for b in self._backends]

    def get(self, name: str) -> Backend:
        """Resolve a method name or alias; ValueError when unknown."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown method {name!r}") from None

    def applicable(self, instance: Instance) -> list[Backend]:
        """Backends able to decide the instance, in tier order."""
        return [b for b in self._backends if b.applicable(instance)]

    def select(self, instance: Instance) -> Backend:
        """The router: lowest-tier auto-applicable backend."""
        for b in self._backends:
            if b.auto_applicable(instance):
                return b
        # The SAT backends are always applicable, so with the default
        # registries this is unreachable; a stripped-down custom
        # registry can get here.
        raise ValueError(
            f"no registered {self.problem} backend is applicable to "
            f"{instance.execution!r}"
        )

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


def build_vmc_registry() -> BackendRegistry:
    """A fresh registry with the paper's VMC ladder (Figure 5.3)."""
    reg = BackendRegistry("vmc")
    reg.register(WriteOrderBackend())
    reg.register(SingleOpBackend())
    reg.register(ReadMapBackend())
    reg.register(ExactBackend())
    reg.register(SatBackend("cdcl", tier=4, aliases=("sat",)))
    return reg


def build_vsc_registry() -> BackendRegistry:
    """A fresh registry with the VSC deciders (Section 6.1)."""
    reg = BackendRegistry("vsc")
    reg.register(ExactVscBackend())
    reg.register(SatVscBackend("cdcl", tier=1, aliases=("sat",)))
    return reg


_VMC_REGISTRY: BackendRegistry | None = None
_VSC_REGISTRY: BackendRegistry | None = None


def vmc_registry() -> BackendRegistry:
    """The process-wide default VMC registry."""
    global _VMC_REGISTRY
    if _VMC_REGISTRY is None:
        _VMC_REGISTRY = build_vmc_registry()
    return _VMC_REGISTRY


def vsc_registry() -> BackendRegistry:
    """The process-wide default VSC registry."""
    global _VSC_REGISTRY
    if _VSC_REGISTRY is None:
        _VSC_REGISTRY = build_vsc_registry()
    return _VSC_REGISTRY
