"""The public VSC verifier (Definition 6.1): a shim over the engine.

Sequential consistency asks for a *single* legal schedule over all
addresses at once, so — unlike VMC — the query does not decompose per
address.  Routing (see :func:`repro.engine.registry.build_vsc_registry`):

1. small state spaces → exact frontier search (polynomial for constant
   process count, the Gibbons–Korach O(n^k k^c) cell);
2. otherwise → CNF + CDCL.
"""

from __future__ import annotations

from repro.core.result import VerificationResult
from repro.core.types import Execution
from repro.engine import verify_vsc


def verify_sequential_consistency(
    execution: Execution,
    method: str = "auto",
    prepass: bool = True,
    portfolio=True,
    resilience=None,
    certify: str = "off",
) -> VerificationResult:
    """Decide whether a sequentially consistent schedule exists."""
    return verify_vsc(
        execution, method=method, prepass=prepass, portfolio=portfolio,
        resilience=resilience, certify=certify,
    )
