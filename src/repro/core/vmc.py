"""The public VMC verifier: the unified engine under its paper name.

``verify_coherence`` implements the paper's Definition 4.1 decision
problem for one address, and the Section 3 notion of a *coherent
execution* (every address has a coherent schedule) when given a
multi-address execution.

Routing mirrors Figure 5.3 top to bottom, but lives in
:mod:`repro.engine.registry` as a data-driven backend registry rather
than an if-chain:

1. a supplied write-order → :mod:`repro.core.writeorder` (polynomial);
2. at most one operation per process → :mod:`repro.core.single_op`;
3. every value written at most once → :mod:`repro.core.readmap`;
4. few processes or a small state space → :mod:`repro.core.exact`
   (polynomial for constant process count);
5. otherwise → CNF + CDCL (:mod:`repro.core.encode`), the practical
   choice for the NP-complete general case.

The returned :class:`~repro.core.result.VerificationResult` records
which algorithm decided the instance in ``method`` and carries the
run record (a :class:`~repro.obs.Record`) in ``report``.
Multi-address executions decompose into independent per-address tasks;
pass ``jobs=N`` to decide heavy ones on worker processes, or a shared
:class:`~repro.engine.cache.ResultCache` to dedupe isomorphic
sub-executions across calls.
"""

from repro.engine import verify_vmc, verify_vmc_at

verify_coherence = verify_vmc
verify_coherence_at = verify_vmc_at

__all__ = ["verify_coherence", "verify_coherence_at"]
