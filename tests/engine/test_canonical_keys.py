"""The byte-encoded canonical keys split instances into the same cache
classes as the nested-tuple keys they replaced.

``_tuple_key`` below transcribes the tuple-building canonicalization
(over ``ColumnarTrace.from_execution`` of the task's own execution) and
serves as the oracle: over every instance family the engine keys —
the differential corpus and renamed twins of it, unique-valued
multi-address traces, simulator runs with their write-orders,
final-only addresses, empty histories and sync operations — two
instances share a byte key exactly when they share a tuple key.  The
keys are also the same bytes in every interpreter, whatever its
``PYTHONHASHSEED``, and planning never rebuilds a sub-execution's
columns from its operations.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from typing import Hashable

import pytest

from repro.core.columnar import KINDS_BY_CODE, ColumnarTrace
from repro.core.types import Execution, OpKind, Operation
from repro.engine import ResultCache, plan_vmc, verify_vmc
from repro.engine.batch import plan_batch
from repro.engine.cache import canonicalize
from repro.memsys import (
    FaultConfig,
    FaultKind,
    MultiprocessorSystem,
    SystemConfig,
    random_shared_workload,
)
from tests.conftest import make_arbitrary_execution
from tests.engine.test_differential import CORPUS


def _tuple_key(execution, write_order=None, problem="vmc", method="auto"):
    """The nested-tuple canonical key, computed as before byte keys."""
    view = ColumnarTrace.from_execution(execution)
    addr_order = list(range(view.n_touched))
    addr_order += sorted(
        range(view.n_touched, view.n_constrained),
        key=lambda ai: repr(view.addrs[ai]),
    )
    canon_aid = {ai: i for i, ai in enumerate(addr_order)}
    canon_vid: dict[int, int] = {}

    def cvid(vv):
        i = canon_vid.get(vv)
        if i is None:
            i = canon_vid[vv] = len(canon_vid)
        return i

    for ai in addr_order:
        cvid(view.initial_ids[ai])
    encoded, nonempty = [], []
    for p in range(view.n_procs):
        s = view.proc_slice(p)
        if s.start == s.stop:
            continue
        nonempty.append(p)
        row = []
        for pos in range(s.start, s.stop):
            rv, wv = view.read_vids[pos], view.write_vids[pos]
            row.append((
                KINDS_BY_CODE[view.kinds[pos]].value,
                canon_aid[view.addr_ids[pos]],
                cvid(rv) if rv >= 0 else -1,
                cvid(wv) if wv >= 0 else -1,
            ))
        encoded.append(tuple(row))
    constraints = tuple(
        (
            canon_vid[view.initial_ids[ai]],
            cvid(view.final_ids[ai]) if view.final_ids[ai] >= 0 else -1,
        )
        for ai in addr_order
    )
    perm = sorted(range(len(encoded)), key=lambda p: encoded[p])
    index_of = {}
    for p in perm:
        s = view.proc_slice(nonempty[p])
        for pos in range(s.start, s.stop):
            index_of[view.op_at(pos).uid] = len(index_of)
    wo_key = None
    if write_order is not None:
        value_key: dict[Hashable, int] = {
            view.values[vv]: cid for vv, cid in canon_vid.items()
        }

        def vkey(v):
            cid = value_key.get(v)
            if cid is None:
                cid = value_key[v] = len(value_key)
            return cid

        wo_key = tuple(
            (
                index_of.get(op.uid, -1),
                op.kind.value,
                vkey(op.value_read) if op.kind.reads else -1,
                vkey(op.value_written) if op.kind.writes else -1,
            )
            for op in write_order
        )
    return (
        problem, method, tuple(encoded[p] for p in perm), constraints, wo_key,
    )


# ---------------------------------------------------------------------
# Instance families: (execution, write_order, problem, method)
# ---------------------------------------------------------------------
def _renamed(ex: Execution, rng: random.Random) -> Execution:
    """An isomorphic twin: values and addresses renamed, processes
    permuted (empty ones included)."""
    values = {}
    for op in ex.all_ops():
        for v in (op.value_read, op.value_written):
            if v is not None:
                values.setdefault(v, f"v{rng.randrange(10**6)}")
    for v in (*ex.initial.values(), *ex.final.values()):
        values.setdefault(v, f"v{rng.randrange(10**6)}")
    addrs = {a: ("a", rng.randrange(10**6)) for a in ex.constrained_addresses()}
    addrs.update({a: ("i", a) for a in ex.initial if a not in addrs})

    def op(o):
        return Operation(
            o.kind, addrs.get(o.addr, o.addr), 0, 0,
            value_read=values.get(o.value_read) if o.kind.reads else None,
            value_written=(
                values.get(o.value_written) if o.kind.writes else None
            ),
        )

    hist = [[op(o) for o in h] for h in ex.histories]
    rng.shuffle(hist)
    return Execution.from_ops(
        hist,
        initial={addrs[a]: values[v] for a, v in ex.initial.items()},
        final={addrs[a]: values[v] for a, v in ex.final.items()},
    )


def _unique_valued(seed: int, nproc: int, per_proc: int, n_addrs: int):
    """A legal schedule over ``n_addrs`` addresses, every written value
    unique per address, sliced into histories (the offline benchmark's
    trace shape); odd seeds read one stale value at the end."""
    rng = random.Random(seed)
    addrs = [f"m{i}" for i in range(n_addrs)]
    current = {a: 0 for a in addrs}
    fresh = {a: 1 for a in addrs}
    hist = [[] for _ in range(nproc)]
    left = [per_proc] * nproc
    while any(left):
        p = rng.choice([q for q in range(nproc) if left[q]])
        left[p] -= 1
        a = rng.choice(addrs)
        if rng.random() < 0.5:
            current[a] = fresh[a]
            fresh[a] += 1
            hist[p].append(Operation(OpKind.WRITE, a, 0, 0,
                                     value_written=current[a]))
        else:
            hist[p].append(Operation(OpKind.READ, a, 0, 0,
                                     value_read=current[a]))
    if seed % 2:
        hist[0].append(Operation(OpKind.READ, addrs[0], 0, 0, value_read=0))
    return Execution.from_ops(
        hist, initial={a: 0 for a in addrs}, final=dict(current)
    )


def _sim_runs():
    out = []
    for seed, faults in ((3, None), (4, None), (5, FaultKind.CORRUPTED_VALUE),
                         (6, FaultKind.DROPPED_WRITE)):
        scripts, init = random_shared_workload(
            num_processors=3, ops_per_processor=12, num_addresses=2,
            seed=seed,
        )
        cfg = SystemConfig(num_processors=3, seed=seed)
        res = MultiprocessorSystem(
            cfg, scripts, initial_memory=init,
            faults=(
                FaultConfig.single(faults, seed=seed, rate=0.3)
                if faults else None
            ),
        ).run()
        out.append((res.execution, res.write_orders))
    return out


def _instances():
    rng = random.Random(25)
    execs = list(CORPUS)
    execs += [_renamed(ex, rng) for ex in CORPUS[::3]]
    for seed in range(12):
        ex = _unique_valued(seed, 4 + seed % 5, 6, 3)
        execs += [ex, _renamed(ex, rng)]
    for seed in range(40):
        # Sync ops, final-only addresses and empty histories.
        ex = make_arbitrary_execution(
            seed, addresses=("x", "y"), values=(0, 1, "s"),
            sync_locks=("l",), max_ops_per_proc=4,
        )
        execs += [ex, _renamed(ex, rng)]
    execs.append(Execution.from_ops([[], []]))
    execs.append(Execution.from_ops([[], []], initial={"z": 1}, final={"z": 1}))
    execs.append(Execution.from_ops([[], []], final={"z": 2, "w": 2}))
    execs.append(Execution.from_ops(
        [[], [Operation(OpKind.WRITE, "x", 0, 0, value_written=1)], []],
        final={"x": 1, "ghost": 3},
    ))
    for ex in execs:
        yield ex, None, "vmc", "auto"
        yield ex, None, "vsc", "exact"
        for addr in ex.constrained_addresses():
            yield ex.restrict_to_address(addr), None, "vmc", "auto"
    for ex, orders in _sim_runs():
        for addr, order in orders.items():
            sub = ex.restrict_to_address(addr)
            yield sub, order, "vmc", "auto"
            yield sub, None, "vmc", "auto"
            yield sub, list(reversed(order)), "vmc", "write-order"
            foreign = Operation(OpKind.WRITE, addr, 9, 9, value_written="f")
            yield sub, [*order, foreign], "vmc", "auto"


INSTANCES = list(_instances())


def test_families_are_rich():
    olds = [_tuple_key(*case) for case in INSTANCES]
    # Shared classes exist (renamed twins) and so do distinct ones.
    assert len(set(olds)) < len(olds)
    assert len(set(olds)) > len(olds) // 4
    assert any(wo is not None for _, wo, _, _ in INSTANCES)


def test_same_classes_as_tuple_keys():
    olds = [_tuple_key(*case) for case in INSTANCES]
    news = [canonicalize(*case).key for case in INSTANCES]
    assert all(isinstance(k, bytes) for k in news)
    pairs = set(zip(olds, news))
    assert len(pairs) == len(set(olds)) == len(set(news))


def test_planner_pass_yields_the_same_keys():
    """The per-address keys of the planning pass are the keys of the
    restricted executions (the key every front door shares)."""
    for ex in CORPUS[:60]:
        tasks = plan_vmc(ex, cache=ResultCache())
        got = {t.address: t.canon.key for t in tasks}
        assert got == {
            a: canonicalize(ex.restrict_to_address(a)).key
            for a in ex.constrained_addresses()
        }


def test_sliced_view_equals_rebuilt_view():
    for ex, *_ in INSTANCES:
        view = ex.columnar()
        for ai in range(len(view.addrs)):
            sub = view.restrict_to_address_id(ai)
            sliced, built = sub.columnar(), ColumnarTrace.from_execution(sub)
            assert sliced.column_bytes() == built.column_bytes()
            assert sliced.addrs == built.addrs
            assert sliced.values == built.values
            assert (sliced.n_touched, sliced.n_constrained) == (
                built.n_touched, built.n_constrained
            )
            assert sliced.operations == tuple(sub.all_ops())


_DIGEST_SCRIPT = """
import hashlib
from tests.engine.test_canonical_keys import INSTANCES
from repro.engine.cache import canonicalize
h = hashlib.sha256()
for case in INSTANCES:
    h.update(canonicalize(*case).key)
print(h.hexdigest())
"""


def test_key_bytes_independent_of_hash_seed():
    h = hashlib.sha256()
    for case in INSTANCES:
        h.update(canonicalize(*case).key)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    for seed in ("0", "1", "777"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert out == h.hexdigest(), seed


@pytest.fixture
def rebuilt(monkeypatch):
    """Every execution whose columns are rebuilt from its operations."""
    seen: list = []
    real = ColumnarTrace.from_execution

    def counting(execution):
        seen.append(execution)
        return real(execution)

    monkeypatch.setattr(ColumnarTrace, "from_execution", staticmethod(counting))
    return seen


def _subs(monkeypatch):
    """Every sub-execution the per-address split hands out."""
    made: list = []
    real = ColumnarTrace.restrict_to_address_id

    def recording(self, ai):
        made.append(real(self, ai))
        return made[-1]

    monkeypatch.setattr(ColumnarTrace, "restrict_to_address_id", recording)
    return made


def test_no_sub_execution_rebuilds_its_columns(rebuilt, monkeypatch):
    subs = _subs(monkeypatch)
    execs = [_unique_valued(seed, 5, 8, 4) for seed in range(8)] + CORPUS[:40]
    for ex in execs:
        ex.columnar()
    for ex in execs:
        verify_vmc(ex, certify="on", cache=ResultCache())
    plan_batch([(f"s{i}", ex, None) for i, ex in enumerate(execs)])
    assert len(subs) >= sum(len(ex.constrained_addresses()) for ex in execs)
    made = {id(s) for s in subs}
    assert not [ex for ex in rebuilt if id(ex) in made]


def test_planning_builds_no_columns(rebuilt):
    execs = [_unique_valued(seed, 6, 8, 8) for seed in range(6)]
    for ex in execs:
        ex.columnar()
    del rebuilt[:]
    for ex in execs:
        plan_vmc(ex, cache=ResultCache())
    plan_batch([(f"s{i}", ex, None) for i, ex in enumerate(execs)])
    assert rebuilt == []
