"""The public VSC verifier (Definition 6.1): the engine under its
paper name.

Sequential consistency asks for a *single* legal schedule over all
addresses at once, so — unlike VMC — the query does not decompose per
address.  Routing (see :func:`repro.engine.registry.build_vsc_registry`):

1. small state spaces → exact frontier search (polynomial for constant
   process count, the Gibbons–Korach O(n^k k^c) cell);
2. otherwise → CNF + CDCL.
"""

from repro.engine import verify_vsc

verify_sequential_consistency = verify_vsc

__all__ = ["verify_sequential_consistency"]
