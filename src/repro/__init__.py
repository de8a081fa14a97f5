"""repro — verifying memory coherence and consistency from traces.

A production-quality reproduction of Cantin, Lipasti & Smith,
*The Complexity of Verifying Memory Coherence and Consistency*
(SPAA 2003 / UW-Madison TR ECE-03-01).

Subpackages:

* :mod:`repro.core` — the data model, the certificate checker, and the
  paper's deciders: polynomial special cases and NP-complete
  general-case backends;
* :mod:`repro.engine` — the unified verification engine behind the
  public verifiers (VMC, VSC, VSCC): the fixed Figure 5.3 backend ladder
  as data, per-address planner, parallel executor, and
  canonical-fingerprint result cache;
* :mod:`repro.sat` — a from-scratch SAT toolkit (DPLL + CDCL);
* :mod:`repro.reductions` — the paper's reductions (Figures 4.1, 5.1,
  5.2, 6.1, 6.2);
* :mod:`repro.memsys` — a bus-based MSI/MESI multiprocessor simulator
  with fault injection, used to generate executions and write-orders;
* :mod:`repro.consistency` — memory consistency models (SC, TSO, PSO,
  RMO, ...), operational checkers, and a litmus-test library;
* :mod:`repro.util` — digraphs, timing, seeded RNG.

Quick start::

    from repro import ExecutionBuilder, verify_coherence

    b = ExecutionBuilder(initial={"x": 0})
    b.process().write("x", 1).read("x", 1)
    b.process().read("x", 1).read("x", 0)
    result = verify_coherence(b.build())
    assert not result  # P1 saw the new value, then the old one

See ``examples/quickstart.py`` for a guided tour.

The package is layered, lowest first: ``util``/``obs`` < ``sat`` <
``core`` < ``engine`` < ``consistency``/``reductions``/``memsys``/
``service`` < ``cli``; a module imports only from its own layer and
those below.  The public names of ``repro``, ``repro.core``,
``repro.engine`` and ``repro.sat`` load on first use (:func:`_lazy`),
so importing one module loads only what it needs.
"""

import importlib

__version__ = "1.0.0"


def _lazy(namespace: dict, exports: dict[str, str]) -> list[str]:
    """Give a package lazily loaded public names (PEP 562).

    ``exports`` maps each public name to ``"module"`` or
    ``"module:attr"``.  The module is imported on the name's first use
    and the value cached in the package.  Other names raise
    :class:`AttributeError`, so ``from package import submodule`` still
    imports the submodule.  Returns the names, for ``__all__``."""

    def __getattr__(name: str):
        try:
            module, _, attr = exports[name].partition(":")
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), attr or name)
        namespace[name] = value
        return value

    namespace["__getattr__"] = __getattr__
    return list(exports)


__all__ = _lazy(globals(), {
    "INITIAL": "repro.core.types",
    "Execution": "repro.core.types",
    "ExecutionBuilder": "repro.core.builder",
    "ResultCache": "repro.engine.cache",
    "OpKind": "repro.core.types",
    "Operation": "repro.core.types",
    "ProcessHistory": "repro.core.types",
    "Record": "repro.obs",
    "VerificationResult": "repro.core.result",
    "execution_from_schedule": "repro.core.checker",
    "is_coherent_schedule": "repro.core.checker",
    "is_sc_schedule": "repro.core.checker",
    "parse_trace": "repro.core.builder",
    "read": "repro.core.types",
    "rmw": "repro.core.types",
    "write": "repro.core.types",
    "verify_coherence": "repro.engine.executor:verify_vmc",
    "verify_coherence_at": "repro.engine.executor:verify_vmc_at",
    "verify_sequential_consistency": "repro.engine.executor:verify_vsc",
    "verify_vscc": "repro.engine.vscc",
    "vsc_via_conflict": "repro.engine.vscc",
}) + ["__version__"]
