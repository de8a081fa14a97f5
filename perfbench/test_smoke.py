"""Small-size smoke test of every workload.

    PYTHONPATH=src python -m pytest perfbench -q

Runs each workload once untraced and once traced on tiny inputs and
checks the result line against ``BENCHMARK.json`` (metric names and
units), the correctness gate, and that the traced layer times add up.
The repository's tier-1 suite does not collect this file (its
``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_result_line(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 100
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, name
    else:
        assert result["metrics"]["other.self_s"]["value"] >= 0


def test_gate_counts_a_wrong_label(tmp_path):
    """A trace labelled against its construction fails every one of
    its repetitions."""
    import inputs
    import worker

    trace = inputs.make_traces(5, 1)[0]
    path = tmp_path / trace.name
    path.write_bytes(trace.data)
    spec = {
        "workload": "offline-cold",
        "warmup": str(path),
        "warmup_store": str(tmp_path / "warm"),
        "store": str(tmp_path / "store"),
        "items": [
            {"name": trace.name, "path": str(path), "ops": trace.ops,
             "violated": not trace.violated},
        ],
    }
    cpus = os.sched_getaffinity(0)
    try:
        out = worker.offline_cold(spec, None)
    finally:
        os.sched_setaffinity(0, cpus)  # each pass pinned this process
    reps = worker.REPS["offline-cold"]
    assert (out["gate"].attempted, out["gate"].failed) == (reps, reps)
    assert out["ops"] == 0


def test_check_memo_skips_only_identical_outputs():
    """An output identical to one that passed is not checked again; a
    changed certificate for the same input is, and fails."""
    import inputs
    import worker
    from repro.core.result import Certificate
    from repro.core.serialize import parse_trace_bytes
    from repro.engine import verify_vmc

    trace = inputs.make_traces(5, 4)[3]
    assert trace.violated
    ex = parse_trace_bytes(trace.data, trace.name)
    res = verify_vmc(ex, certify="on", jobs=1)
    seen: set = set()
    assert worker._validate_per_address(ex, res, seen=seen, name=trace.name) is None
    assert len(seen) == len(res.per_address)
    bad = next(r for r in res.per_address.values() if r.violated)
    bad.certificate = Certificate("cycle", ((), ()))
    problem = worker._validate_per_address(ex, res, seen=seen, name=trace.name)
    assert problem is not None and len(seen) == len(res.per_address)


def test_stream_check_pins_the_violation_index(tmp_path):
    import inputs
    import worker
    from repro.engine import validate_result

    stream = inputs.make_streams(2, 4, 400)[3]
    assert stream.bad_index is not None
    path = tmp_path / stream.name
    path.write_bytes(stream.data)
    last, n_ops, _window = worker._monitor_file(path, inputs.STREAM_PROCS)
    item = {"name": stream.name, "ops": stream.ops,
            "bad_index": stream.bad_index}
    assert worker._check_stream(item, last, validate_result) is None
    item["bad_index"] += 1
    assert "built violated" in worker._check_stream(item, last, validate_result)


def test_percentile_refuses_thin_tails():
    import run

    assert run.percentile(range(1, 101), 0.9) == 90
    with pytest.raises(ValueError):
        run.percentile(range(99), 0.9)
