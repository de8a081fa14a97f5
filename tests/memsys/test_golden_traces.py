"""Golden traces: the simulators' determinism contract.

Every seeded run of either substrate is a pure function of its
parameters.  This file pins a SHA-256 digest of everything a run
produces, for every fault site each substrate supports plus a
fault-free control, over three seeds; on the directory also over the
``fixed:1``, ``uniform:1:4`` and ``numa`` delay models, and on both
substrates over the ``random`` and ``round-robin`` schedulers and two
workload shapes (one hot line, and lines spread over a tiny cache so
evictions and writeback races happen).

A digest covers the commit log, the exported write orders, the fault
events (``detail`` included), ``steps``, ``bus_traffic``, the message
fabric's statistics (with ``by_type``), the cache statistics, the
golden-replay divergences, the oracle report and the final memory.  A
change that moves any of them, including a single RNG draw, fails
here.  The digests must not depend on ``PYTHONHASHSEED``.

To re-pin after a deliberate behaviour change, run this file as a
script (``PYTHONPATH=src python tests/memsys/test_golden_traces.py``)
and paste its output over ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import pytest

from repro.core.types import Operation
from repro.memsys.directory import DirectorySystem
from repro.memsys.faults import FaultConfig, supported_faults
from repro.memsys.system import MultiprocessorSystem, SystemConfig
from repro.memsys.workloads import random_shared_workload

SEEDS = (3, 17, 901)
#: Per seed: the first two runs allow one injection (a campaign's
#: setting), the third is uncapped.
MAX_EVENTS = (1, 1, None)
FAULT_RATE = 0.1
SCHEDULERS = ("random", "round-robin")
DIRECTORY_DELAYS = ("fixed:1", "uniform:1:4", "numa:1:6:2")
#: (addresses, cache sets, ways): one hot line in the default cache,
#: and six lines over a one-line-per-set cache of two sets.
SHAPES = ((3, 8, 2), (24, 2, 1))
PROCS = 4
OPS = 16

SUBSTRATES = {"bus": MultiprocessorSystem, "directory": DirectorySystem}
PROTOCOLS = {"bus": "MESI", "directory": "MSI"}


def canon(obj):
    """A JSON-able, hash-seed-independent image of a run artefact."""
    if isinstance(obj, Operation):
        return [
            obj.kind.value, obj.addr, obj.proc, obj.index,
            canon(obj.value_read), canon(obj.value_written),
        ]
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canon(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return sorted(
            ([canon(k), canon(v)] for k, v in obj.items()),
            key=lambda kv: json.dumps(kv, sort_keys=True),
        )
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def run_image(system) -> dict:
    res = system.run()
    network = getattr(system, "network", None)
    return {
        "commit_log": canon(res.commit_log),
        "write_orders": canon(res.write_orders),
        "fault_events": canon(res.fault_events),
        "steps": res.steps,
        "bus_transactions": res.bus_transactions,
        "bus_traffic": canon(res.bus_traffic),
        "interconnect": canon(network.stats) if network is not None else None,
        "cache_stats": canon(res.cache_stats),
        "divergences": canon(res.divergences),
        "oracle": canon(res.oracle),
        "final": canon(res.execution.final),
    }


def cases():
    for substrate in SUBSTRATES:
        sites = [None] + supported_faults(substrate)
        for site in sites:
            yield substrate, site


def site_digest(substrate: str, site) -> str:
    h = hashlib.sha256()
    delays = DIRECTORY_DELAYS if substrate == "directory" else ("fixed:1",)
    for seed, max_events in zip(SEEDS, MAX_EVENTS):
        for addresses, num_sets, ways in SHAPES:
            scripts, init = random_shared_workload(
                num_processors=PROCS,
                ops_per_processor=OPS,
                num_addresses=addresses,
                write_fraction=0.35,
                seed=seed,
            )
            for delay in delays:
                for scheduler in SCHEDULERS:
                    cfg = SystemConfig(
                        num_processors=PROCS,
                        protocol=PROTOCOLS[substrate],
                        num_sets=num_sets,
                        ways=ways,
                        scheduler=scheduler,
                        seed=seed,
                        delay_model=delay,
                    )
                    faults = (
                        FaultConfig.none()
                        if site is None
                        else FaultConfig(
                            kinds=frozenset([site]),
                            rate=FAULT_RATE,
                            max_events=max_events,
                            seed=seed,
                        )
                    )
                    system = SUBSTRATES[substrate](
                        cfg, scripts, initial_memory=dict(init), faults=faults
                    )
                    image = run_image(system)
                    h.update(json.dumps(image, sort_keys=True).encode())
    return h.hexdigest()


def case_id(substrate: str, site) -> str:
    return f"{substrate}/{site.value if site is not None else 'control'}"


#: Pinned digests; see the module docstring for how to regenerate.
GOLDEN = {
    'bus/control': 'fc9259f04720d9e203130283c5ccf14d187cf76f3514283d20d8323b1f17a4b5',
    'bus/lost-invalidation': '627ac895a87abbae51250c7a6db985d6db07007d748ae71e9d90000fd92f777a',
    'bus/stale-memory': 'ef8937d8eb326130ca5ed464c72262556c3493f047fc8dcd315e159500e5b2d1',
    'bus/dropped-write': '06d170ea6037f4c7f4d3a38f2d361c411669d0eb6b56587629581b90df835ded',
    'bus/corrupted-value': '05a9a26271c2ce5e39683e181374f5d7802dc574982414850e7d6c6393eeb9b4',
    'bus/reordered-serialization': 'ded7364df47d6ac1c595bbc29ed132c1a9f549a20e5191e993116585af2de9f9',
    'directory/control': '60aed31986cb5cf8ab10cef3c36110d8e65912a071f245b6512e5650f629198a',
    'directory/dropped-write': '258d2fa8fb1ecad7f9fac26afd605d982300b2ecf81a93911a53615d4b5fa8b8',
    'directory/corrupted-value': '96afb18a59b5756da22a9189fc162a85eca0abd52109af1a91a91fe9777f6709',
    'directory/reordered-serialization': 'ea514391ce4fb9dcf74551a1a44702294819907be151819a115043c97b8cf541',
    'directory/drop-msg': '02c6ac038a665aba4ea27595d4ba0367939dfaf644f0a3d6691eb3670ce33b49',
    'directory/dup-msg': '3a05d5695863abde9592e4bbf20e619750f897a1d484b38b35ba441735e67d8e',
    'directory/delay-msg': '465fd8dd95f666d5cdaf4a8ec412e7939bb90f8b6b4a6fb8fc34297e9c7cbc80',
    'directory/reorder-msg': '8eb35895bd1f66f554542303837a88886da5b9ecf8331f1d40cbd4b908849f1f',
    'directory/stale-sharer': '500190a1dc8b671add4956cdcad24431406674f5bf9bfe617ec54102cda7b4d4',
    'directory/drop-inv-ack': '717aeb80126e9f9753b70205d62119aa1e234ee4b377a655ed7b366637f9b25d',
    'directory/dir-corrupt': '6133860540a13a26d74afe5e79df05fcf7a4fed7496b7725a19caaf43bf1f060',
    'directory/wb-race': 'fee17e29eb02412fdb98a822896f2315c8b5bf25aa5ac0e2204dbb804f7e1761',
}


@pytest.mark.parametrize(
    "substrate,site", list(cases()), ids=[case_id(*c) for c in cases()]
)
def test_golden_trace(substrate, site):
    assert site_digest(substrate, site) == GOLDEN[case_id(substrate, site)]


def test_every_supported_site_is_pinned():
    assert set(GOLDEN) == {case_id(*c) for c in cases()}


if __name__ == "__main__":
    for substrate, site in cases():
        print(f"    {case_id(substrate, site)!r}: "
              f"{site_digest(substrate, site)!r},")
