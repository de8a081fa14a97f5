"""Section 6.2's restriction theorem, as a checkable property.

"All of the hardware-implemented memory consistency models in the
literature reduce to memory coherence for executions that access only
one shared location."  For the models in this library that is a
theorem about the checkers: on a single-address execution, each model
checker must return exactly the coherence verdict, because

* every model keeps same-location program order, and
* every model serializes writes per location,

so with one location the model's constraints collapse to "a serial
order of all operations, respecting program order, where reads see the
last write" — the definition of a coherent schedule (with the wrinkle
that TSO/PSO forwarding lets a read observe the processor's own not-
yet-ordered store; on a single location FIFO draining makes the
observable histories coincide with coherent ones).

The function here is used by property tests and by the Figure 5.3/6.x
benchmark harness to certify the reduction hook NP-hardness rides on.
"""

from __future__ import annotations

from typing import Callable

from repro.core.result import VerificationResult
from repro.core.types import Execution
from repro.engine import verify_vmc, verify_vsc
from repro.consistency.axiomatic import relaxed_schedule_exists
from repro.consistency.models import MODELS, MemoryModel
from repro.consistency.tso import tso_holds
from repro.consistency.pso import pso_holds


def verifier_for(model_name: str) -> Callable[[Execution], VerificationResult]:
    """The strongest *result-returning* checker for each model.

    Every returned callable produces a
    :class:`~repro.core.result.VerificationResult`, so callers (the CLI
    in particular) can print witnesses and methods uniformly.
    ``"coherence"`` routes through the unified engine like the plain
    ``verify`` path.
    """
    if model_name in ("coherence", "COHERENCE"):
        return verify_vmc
    if model_name == "SC":
        return verify_vsc
    if model_name == "TSO":
        return tso_holds
    if model_name == "PSO":
        return pso_holds
    if model_name in MODELS:
        model: MemoryModel = MODELS[model_name]
        return lambda ex: relaxed_schedule_exists(ex, model)
    raise ValueError(f"unknown model {model_name!r}")


def checker_for(model_name: str) -> Callable[[Execution], bool]:
    """The boolean form of :func:`verifier_for`."""
    verifier = verifier_for(model_name)
    return lambda ex: bool(verifier(ex))


def restriction_agrees_with_coherence(
    execution: Execution, model_name: str
) -> tuple[bool, bool]:
    """Return (model verdict, coherence verdict) for a single-address
    execution; the Section 6.2 claim is that they are equal."""
    if not execution.is_single_address():
        raise ValueError("the restriction argument is about one location")
    model_ok = checker_for(model_name)(execution)
    coh_ok = bool(verify_vmc(execution))
    return model_ok, coh_ok
