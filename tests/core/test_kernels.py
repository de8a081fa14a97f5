"""Data-plane kernels: per-instance selection and the differential oracle.

The pure-python int-bitset kernel is the reference; the numpy kernel
must be *indistinguishable* from it — same verdicts, same reasons, same
edges with the same rule attributions, same step logs, same certified
witnesses, same round counts.  The differential suite here pins each
kernel in turn (the ``pin_kernel`` fixture) and asserts that contract
over hundreds of arbitrary traces and over the engine differential
corpus; a verdict-only comparison would let a subtly different (but
still sound-looking) vectorization slip through.

Everything numpy-specific is guarded so the suite passes on a bare
install (``pip install repro`` without ``[fast]``).
"""

import random

import pytest

from repro import obs
from repro.core import infer, kernels
from repro.core.infer import eliminate_reads, infer_order
from repro.core.types import Execution, OpKind, Operation
from repro import verify_coherence
from repro.engine import validate_result, verify_vmc

from tests.conftest import (
    KERNELS,
    make_arbitrary_execution,
    make_coherent_execution,
    run_in_fresh_interpreter,
)

HAVE_NUMPY = "numpy" in KERNELS
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed"
)


# ---------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------
class TestRegistry:
    def test_python_always_available(self):
        assert "python" in kernels.available_backends()
        assert kernels.backend("python").name == "python"

    def test_backend_instances_cached(self):
        for name in KERNELS:
            assert kernels.backend(name) is kernels.backend(name)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="'fortran' cannot run here"):
            kernels.backend("fortran")

    def test_auto_resolves(self):
        assert kernels.backend().name == ("numpy" if HAVE_NUMPY else "python")

    def test_unavailable_backend_raises(self, monkeypatch):
        monkeypatch.setattr(
            kernels.NumpyKernel, "is_available", staticmethod(lambda: False)
        )
        assert kernels.available_backends() == ["python"]
        assert kernels.backend().name == "python"
        with pytest.raises(ValueError, match="'numpy' cannot run here"):
            kernels.backend("numpy")

    @needs_numpy
    def test_numpy_available_here(self):
        assert "numpy" in kernels.available_backends()
        assert kernels.backend("numpy").name == "numpy"


# ---------------------------------------------------------------------
# Selection: the instance picks the kernel
# ---------------------------------------------------------------------
def chain(length: int, addr: str = "x", nproc: int = 8) -> list[list[Operation]]:
    """A cross-process message-passing chain at one address,
    ``2 * length + 1`` operations: writer i+1 first reads value i, so
    each of the ``length`` reads has exactly one possible writer."""
    ops: list[list[Operation]] = [[] for _ in range(nproc)]
    for i in range(length):
        p = i % nproc
        if i > 0:
            ops[p].append(Operation(OpKind.READ, addr, p, 0, value_read=i))
        ops[p].append(Operation(OpKind.WRITE, addr, p, 0, value_written=i + 1))
    p = length % nproc
    ops[p].append(Operation(OpKind.READ, addr, p, 0, value_read=length))
    ops[p].append(Operation(OpKind.WRITE, addr, p, 0, value_written=0))
    return ops


def chain_execution(length: int) -> Execution:
    return Execution.from_ops(chain(length), initial={"x": 0}, final={"x": 0})


def kernel_label(execution: Execution) -> str | None:
    with obs.opened() as rec:
        infer_order(execution)
    return rec.info.get("kernel")


def inverted_trace() -> str:
    """4 processes x 40 operations over 8 addresses, initial value 0,
    ending in a read-read inversion at ``a0``: P0 writes 101 then 102,
    P1 reads 102 then 101.  ``a0`` writes unique values, so a read-map
    search refutes it and the closure certifies that; the other
    addresses write values from 1..3, so the pre-pass runs on them."""
    rng = random.Random(7)
    current = {f"a{i}": 0 for i in range(8)}
    procs: list[list[str]] = [[] for _ in range(4)]
    quota = [38, 38, 40, 40]
    while any(len(ops) < q for ops, q in zip(procs, quota)):
        p = rng.choice([p for p in range(4) if len(procs[p]) < quota[p]])
        a = rng.choice(sorted(current))
        if rng.random() < 0.5:
            current[a] = rng.randint(1, 3) if a != "a0" else current[a] + 1
            procs[p].append(f"W({a},{current[a]})")
        else:
            procs[p].append(f"R({a},{current[a]})")
    procs[0] += ["W(a0,101)", "W(a0,102)"]
    procs[1] += ["R(a0,102)", "R(a0,101)"]
    return "\n".join(f"P{p}: " + " ".join(ops) for p, ops in enumerate(procs))


class TestSelection:
    def test_small_certified_run_imports_no_numpy(self):
        """Pre-pass and closure certificate both run, on the python
        kernel, and numpy is never imported (installed or not)."""
        run_in_fresh_interpreter(
            "-c",
            "import sys\n"
            "from repro.core.builder import parse_trace\n"
            "from repro.engine import verify_vmc\n"
            f"ex = parse_trace({inverted_trace()!r},"
            " initial={f'a{i}': 0 for i in range(8)})\n"
            "assert [len(h) for h in ex.histories] == [40] * 4\n"
            "assert len(ex.addresses()) == 8\n"
            "r = verify_vmc(ex, certify='on')\n"
            "assert r.violated, r\n"
            "assert r.report['prepass.tasks'] >= 1, r.report.counters\n"
            "assert r.report['certify.via_closure'] >= 1, r.report.counters\n"
            "assert r.report.info['kernel'] == 'python', r.report.info\n"
            "assert 'numpy' not in sys.modules\n"
        )

    @needs_numpy
    def test_forced_chain_runs_numpy(self):
        ex = chain_execution(200)
        assert ex.num_ops == 401
        assert kernel_label(ex) == "numpy"

    def test_small_value_domain_runs_python(self):
        ex, _ = make_coherent_execution(3200, 4, 11, num_values=4)
        assert ex.num_ops == 3200
        assert kernel_label(ex) == "python"

    def test_threshold_is_the_forced_pair_count(self):
        """One forced pair short of the threshold runs python; at the
        threshold, numpy (when installed)."""
        # chain(n) has n forced pairs.
        below = chain_execution(infer.NUMPY_MIN_FORCED - 1)
        at = chain_execution(infer.NUMPY_MIN_FORCED)
        assert kernel_label(below) == "python"
        assert kernel_label(at) == ("numpy" if HAVE_NUMPY else "python")

    def test_without_numpy_every_instance_runs_python(self, monkeypatch):
        monkeypatch.setattr(
            kernels.NumpyKernel, "is_available", staticmethod(lambda: False)
        )
        assert kernel_label(chain_execution(200)) == "python"

    @needs_numpy
    def test_record_names_every_kernel_that_ran(self):
        big = chain(200)
        small = chain(3, addr="y")
        ex = Execution.from_ops(
            [b + s for b, s in zip(big, small)],
            initial={"x": 0, "y": 0}, final={"x": 0, "y": 0},
        )
        res = verify_vmc(ex, cache=False)
        assert res.holds
        assert res.report.info["kernel"] == "numpy,python"
        assert "kernel=numpy,python" in obs.render(res.report)

    def test_merged_records_keep_every_kernel(self):
        rec = obs.Record()
        rec.label("kernel", "python")
        rec.merge({"info": {"kernel": "numpy", "pool": "serial"}})
        rec.merge({"info": {"kernel": "python", "pool": "process"}})
        assert rec.info == {"kernel": "numpy,python", "pool": "serial"}


# ---------------------------------------------------------------------
# Differential oracle: numpy must be indistinguishable from python
# ---------------------------------------------------------------------
def corpus(n: int):
    """Seeded single-address-heavy arbitrary traces, RMWs included."""
    for seed in range(n):
        yield make_arbitrary_execution(
            seed,
            max_procs=4,
            max_ops_per_proc=6,
            addresses=("x",) if seed % 3 else ("x", "y"),
            values=(0, 1, 2),
        )


def inference_key(inf):
    decided = None
    if inf.decided is not None:
        decided = (
            bool(inf.decided),
            inf.decided.reason,
            inf.decided.certificate,
        )
    order = (
        None
        if inf.write_order is None
        else [op.uid for op in inf.write_order]
    )
    return (decided, order, inf.rounds, inf.edge_count,
            inf.edges, inf.steps)


def verdict_key(res):
    return (
        res.holds, res.method, res.reason,
        {a: (r.holds, r.method, r.certificate) for a, r in res.per_address.items()},
    )


class TestDifferential:
    @needs_numpy
    def test_eliminate_and_infer_agree(self, pin_kernel):
        """>=150 residual instances: identical edges, steps, verdicts."""
        checked = 0
        for ex in corpus(170):
            for addr in ex.constrained_addresses():
                residual, _ = eliminate_reads(ex.restrict_to_address(addr))
                pin_kernel("python")
                inf_p = infer_order(residual)
                pin_kernel("numpy")
                inf_n = infer_order(residual)
                assert inference_key(inf_p) == inference_key(inf_n)
                checked += 1
        assert checked >= 150

    @needs_numpy
    def test_full_verify_verdicts_and_certificates_agree(self, pin_kernel):
        """The end-to-end engine, certified, is kernel-invariant — and
        every certificate validates under the *other* kernel."""
        checked = 0
        for ex in corpus(160):
            pin_kernel("python")
            res_p = verify_coherence(ex, certify="on")
            pin_kernel("numpy")
            res_n = verify_coherence(ex, certify="on")
            assert bool(res_p) == bool(res_n)
            assert res_p.reason == res_n.reason
            assert res_p.method == res_n.method
            for addr in res_p.per_address:
                a, b = res_p.per_address[addr], res_n.per_address[addr]
                assert bool(a) == bool(b)
                assert a.certificate == b.certificate
                # Cross-validate: python-produced proof, checked while
                # numpy is pinned, and vice versa.
                sub = ex.restrict_to_address(addr)
                check = validate_result(sub, a)
                assert check, check.reason
                pin_kernel("python")
                check = validate_result(sub, b)
                assert check, check.reason
            checked += 1
        assert checked >= 150

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_engine_corpus_under_each_kernel(self, kernel, pin_kernel):
        """The engine differential corpus, certified, with every
        saturation pinned to one kernel: each verdict validates, names
        only the pinned kernel, and equals the python-pinned run."""
        from tests.engine.test_differential import CORPUS, _check_certified

        def run_corpus(name):
            pin_kernel(name)
            keys, ran = [], 0
            for ex in CORPUS:
                res = verify_vmc(ex, cache=False, early_exit=False, certify="on")
                _check_certified(ex, res)
                label = res.report.info.get("kernel")
                assert label in (None, name)
                ran += label == name
                keys.append(verdict_key(res))
            assert ran >= 50  # the saturation ran on a real share
            return keys

        pinned = run_corpus(kernel)
        if kernel != "python":
            assert pinned == run_corpus("python")
        assert len(pinned) >= 190

    def test_scan_batches_match_on_long_chains(self):
        """The covered/front/tail scan on shapes built to stress it: empty
        processes, an all-read process, a long covered chain."""
        histories = [
            [],
            [Operation(OpKind.READ, "x", 1, i, value_read=0) for i in range(30)],
            [],
            [Operation(OpKind.WRITE, "x", 3, 0, value_written=1)]
            + [Operation(OpKind.READ, "x", 3, i + 1, value_read=1)
               for i in range(29)],
        ]
        view = Execution.from_ops(histories, initial={"x": 0}).columnar()
        scan = kernels.eliminate_scan(view)
        # P1's reads all go to the front; P3's reads attach to its write
        # (flat position 30); nothing moves to the tail.
        assert list(scan.eliminated) == list(range(30)) + list(range(31, 60))
        assert list(scan.anchors) == [-1] * 30 + [30] * 29
        assert list(scan.tails) == []


# ---------------------------------------------------------------------
# Pure-python path sanity (runs everywhere, numpy or not)
# ---------------------------------------------------------------------
class TestPythonFallback:
    def test_python_kernel_decides_corpus(self, pin_kernel):
        """The fallback kernel alone decides the corpus and every
        positive verdict carries a checker-approved certificate."""
        from repro.core.exact import exact_vmc

        pin_kernel("python")
        for ex in corpus(40):
            res = verify_coherence(ex, certify="on")
            oracle = all(
                bool(exact_vmc(ex.restrict_to_address(a)))
                for a in ex.constrained_addresses()
            )
            assert bool(res) == oracle

    def test_stats_report_names_kernel(self, pin_kernel):
        pin_kernel("python")
        res = verify_coherence(make_arbitrary_execution(1))
        assert res.report.info["kernel"] == "python"
        assert "kernel=python" in obs.render(res.report)
        assert "stages: " in obs.render(res.report)
        assert "plan=" in obs.render(res.report)


class TestKernelLabel:
    """The run record names the kernel that ran, and only a run that
    uses a kernel resolves (and so probes) one."""

    def test_first_run_without_a_kernel_imports_no_numpy(self):
        run_in_fresh_interpreter(
            "-c",
            "import sys\n"
            "from repro.core.builder import parse_trace\n"
            "from repro.engine import verify_vmc\n"
            "r = verify_vmc(parse_trace('P0: W(x,1) R(x,1)\\nP1: R(x,1)'),"
            " certify='on')\n"
            "assert r.holds, r\n"
            "assert 'kernel' not in r.report.info, r.report.info\n"
            "assert 'numpy' not in sys.modules\n"
        )

    def test_closure_certificate_names_its_kernel(self):
        from repro.core.builder import parse_trace

        ex = parse_trace("P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)")
        res = verify_vmc(ex, certify="on")
        assert res.violated
        assert res.report.info["kernel"] == "python"


class TestGrow:
    """``Saturation.grow``: the incremental streaming path appends
    nodes to a live closure; the result must match a from-scratch
    saturation over the union of edges and forced pairs."""

    @staticmethod
    def _grid(sat, n):
        return [
            [sat.has_edge(u, v) for v in range(n)] for u in range(n)
        ]

    @pytest.mark.parametrize("name", KERNELS)
    def test_grow_then_saturate_matches_scratch(self, name):
        # Nodes: 0=Wx1, 1=Wx2 (same proc), 2=Rx1 (other proc); phase 2
        # adds 3=Wx3 (po after 1), 4=Rx3, 5=Rx2.  fr derives 2->1 in
        # phase 1 and 5->3 after the grow.
        k = kernels.backend(name)
        inc = k.saturation(3)
        inc.add(0, 1, kernels.RULE_PO)
        assert inc.saturate([(0, 2)], [0, 1]) is None
        assert inc.has_edge(2, 1)

        inc.grow(3)
        assert inc.n == 6
        inc.add(1, 3, kernels.RULE_PO)
        forced = [(0, 2), (3, 4), (1, 5)]
        assert inc.saturate(forced, [0, 1, 3]) is None
        assert inc.has_edge(5, 3)

        scratch = k.saturation(6)
        scratch.add(0, 1, kernels.RULE_PO)
        scratch.add(1, 3, kernels.RULE_PO)
        assert scratch.saturate(forced, [0, 1, 3]) is None
        assert self._grid(inc, 6) == self._grid(scratch, 6)

    @pytest.mark.parametrize("name", KERNELS)
    def test_grow_across_word_boundary(self, name):
        # 60 -> 70 nodes crosses the 64-bit packing boundary of the
        # vectorized kernel's bitset rows.
        import random

        rng = random.Random(17)
        k = kernels.backend(name)
        n1, n2 = 60, 70
        first = [
            (u, rng.randrange(u + 1, n1))
            for u in range(n1 - 1) if rng.random() < 0.3
        ]
        inc = k.saturation(n1)
        for u, v in first:
            inc.add(u, v, kernels.RULE_PO)
        assert inc.saturate([], []) is None
        inc.grow(n2 - n1)
        second = [
            (u, rng.randrange(max(u + 1, n1), n2))
            for u in range(n2 - 1) if rng.random() < 0.3
        ]
        for u, v in second:
            inc.add(u, v, kernels.RULE_PO)
        assert inc.saturate([], []) is None

        scratch = k.saturation(n2)
        for u, v in first + second:
            scratch.add(u, v, kernels.RULE_PO)
        assert scratch.saturate([], []) is None
        assert self._grid(inc, n2) == self._grid(scratch, n2)

    @pytest.mark.parametrize("name", KERNELS)
    def test_grow_preserves_step_log(self, name):
        k = kernels.backend(name)
        sat = k.saturation(2)
        sat.add(0, 1, kernels.RULE_PO)
        before = list(sat.steps())
        sat.grow(4)
        assert list(sat.steps()) == before
        assert sat.n == 6
        sat.grow(0)
        assert sat.n == 6
