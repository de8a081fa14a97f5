"""Shared utilities: lightweight digraphs, timing helpers, seeded RNG.

These are deliberately dependency-free (pure Python) so that the hot
verification paths do not pay for generic-graph-library overhead; the
digraph here stores adjacency as plain lists keyed by dense integer ids.
Names load on first use, so importing one utility module loads no
other.
"""

from repro import _lazy

__all__ = _lazy(globals(), {
    "CHECK_INTERVAL": "repro.util.control",
    "Cancelled": "repro.util.control",
    "StopCheck": "repro.util.control",
    "Digraph": "repro.util.digraph",
    "CycleError": "repro.util.digraph",
    "RepeatTimer": "repro.util.timing",
    "fit_loglog_slope": "repro.util.timing",
    "time_callable": "repro.util.timing",
    "make_rng": "repro.util.rng",
    "spawn_rngs": "repro.util.rng",
})
