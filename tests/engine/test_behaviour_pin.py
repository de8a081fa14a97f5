"""Behaviour pin: routing, verdicts and error texts over the differential
corpus, folded into one SHA-256 digest.

For every execution of ``tests/engine/test_differential.py``'s corpus,
under certify ``off`` and ``on``, this records

* the planned route of every task (``plan_vmc`` / ``plan_vsc``): the
  backend it is bound to, and whether the pre-pass decided it;
* for ``auto`` and every forcible method name and alias, VMC and VSC:
  the verdict, ``method`` and certificate kind, overall and per
  address — or the text of the ``ValueError`` (e.g.
  ``BackendInapplicableError``) the forced method raised.

A raced task reports whichever leg won, which depends on timing, so a
raced result records ``portfolio`` in place of its method and
certificate kind.  Any change to routing, forced-method resolution,
error texts, verdicts or certificate kinds moves the digest.
"""

from __future__ import annotations

import hashlib
import json

from repro.engine import plan_vmc, plan_vsc, verify_vmc, verify_vsc
from tests.engine.test_differential import CORPUS, FORCIBLE

VMC_METHODS = ["auto", *FORCIBLE, "write-order", "sat", "bogus"]
VSC_METHODS = ["auto", "exact", "sat-cdcl", "sat", "readmap"]

PIN = "629bbf476e278255d50e5af92acfd95e85f1723227a4ea085d8deb8b7febbe34"


def _route(tasks) -> list:
    return [
        (
            repr(t.address),
            t.backend.name if t.backend is not None else None,
            t.prepass is not None and t.prepass.decided is not None,
        )
        for t in tasks
    ]


def _outcome(result) -> list:
    raced = "portfolio" in result.stats
    cert = result.certificate
    return [
        result.holds,
        "portfolio" if raced else result.method,
        "portfolio" if raced else (cert.kind if cert is not None else None),
    ]


def _verdict(verify, ex, method, certify) -> list:
    try:
        result = verify(
            ex, method=method, cache=False, certify=certify,
            **({"early_exit": False} if verify is verify_vmc else {}),
        )
    except ValueError as e:
        return ["error", type(e).__name__, str(e)]
    per = sorted((result.per_address or {}).items(), key=lambda kv: repr(kv[0]))
    return [_outcome(result), [[repr(a), _outcome(r)] for a, r in per]]


def _records():
    for idx, ex in enumerate(CORPUS):
        for certify in ("off", "on"):
            yield [idx, certify, "plan-vmc", _route(plan_vmc(ex, certify=certify))]
            yield [idx, certify, "plan-vsc", _route(plan_vsc(ex, certify=certify))]
            for method in VMC_METHODS:
                yield [idx, certify, "vmc", method,
                       _verdict(verify_vmc, ex, method, certify)]
            for method in VSC_METHODS:
                yield [idx, certify, "vsc", method,
                       _verdict(verify_vsc, ex, method, certify)]


def pin_digest() -> str:
    h = hashlib.sha256()
    for rec in _records():
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_behaviour_pin():
    assert pin_digest() == PIN
