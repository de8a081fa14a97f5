"""Kernel backends: selection, registry, and the differential oracle.

The pure-python int-bitset kernel is the reference; the numpy kernel
must be *indistinguishable* from it — same verdicts, same reasons, same
edges with the same rule attributions, same step logs, same certified
witnesses, same round counts.  The differential suite here pins that
contract over hundreds of arbitrary traces; a verdict-only comparison
would let a subtly different (but still sound-looking) vectorization
slip through.

Everything numpy-specific is guarded so the suite passes on a bare
install (``pip install repro`` without ``[fast]``).
"""

import pytest

from repro.core import kernels
from repro.core.infer import eliminate_reads, infer_order
from repro.core.vmc import verify_coherence
from repro.engine import validate_result
from repro import obs

from tests.conftest import make_arbitrary_execution

HAVE_NUMPY = kernels.NumpyKernel.is_available()
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed"
)


# ---------------------------------------------------------------------
# Registry and selection
# ---------------------------------------------------------------------
class TestRegistry:
    def test_python_always_available(self):
        assert "python" in kernels.available_backends()
        assert kernels.backend("python").name == "python"

    def test_backend_instances_cached(self):
        assert kernels.backend("python") is kernels.backend("python")

    def test_unknown_backend_rejected(self):
        with pytest.raises(kernels.KernelUnavailable, match="unknown"):
            kernels.backend("fortran")

    def test_use_override_nests_and_restores(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
        default = kernels.backend().name
        with kernels.use("python"):
            assert kernels.backend().name == "python"
            with kernels.use("python"):
                assert kernels.backend().name == "python"
            assert kernels.backend().name == "python"
        assert kernels.backend().name == default

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "python")
        assert kernels.backend().name == "python"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "python")
        if HAVE_NUMPY:
            assert kernels.backend("numpy").name == "numpy"

    def test_auto_resolves(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "auto")
        assert kernels.backend().name in ("python", "numpy")

    def test_unavailable_backend_raises(self):
        class Ghost:
            name = "ghost"

            @staticmethod
            def is_available():
                return False

        kernels.register("ghost", Ghost)
        try:
            assert "ghost" not in kernels.available_backends()
            with pytest.raises(
                kernels.KernelUnavailable, match="not available"
            ):
                kernels.backend("ghost")
        finally:
            kernels._REGISTRY.pop("ghost", None)

    @needs_numpy
    def test_numpy_available_here(self):
        assert "numpy" in kernels.available_backends()
        assert kernels.backend("numpy").name == "numpy"


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


def plan_key(plan):
    return (
        [op.uid for op in plan.front],
        {k: [op.uid for op in v] for k, v in plan.attached.items()},
        [op.uid for op in plan.tail],
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


@needs_numpy
class TestDifferential:
    def test_eliminate_and_infer_agree(self):
        """>=150 executions: identical plans, edges, steps, verdicts."""
        checked = 0
        for ex in corpus(170):
            for addr in ex.constrained_addresses():
                sub = ex.restrict_to_address(addr)
                with kernels.use("python"):
                    res_p, plan_p = eliminate_reads(sub)
                    inf_p = infer_order(sub)
                with kernels.use("numpy"):
                    res_n, plan_n = eliminate_reads(sub)
                    inf_n = infer_order(sub)
                assert plan_key(plan_p) == plan_key(plan_n)
                assert [
                    [op.uid for op in h] for h in res_p.histories
                ] == [[op.uid for op in h] for h in res_n.histories]
                assert inference_key(inf_p) == inference_key(inf_n)
                checked += 1
        assert checked >= 150

    def test_full_verify_verdicts_and_certificates_agree(self):
        """The end-to-end engine, certified, is backend-invariant —
        and every certificate validates under the *other* backend."""
        checked = 0
        for ex in corpus(160):
            with kernels.use("python"):
                res_p = verify_coherence(ex, certify="on")
            with kernels.use("numpy"):
                res_n = verify_coherence(ex, certify="on")
            assert bool(res_p) == bool(res_n)
            assert res_p.reason == res_n.reason
            assert res_p.method == res_n.method
            for addr in res_p.per_address:
                a, b = res_p.per_address[addr], res_n.per_address[addr]
                assert bool(a) == bool(b)
                assert a.certificate == b.certificate
                # Cross-validate: python-produced proof, checked while
                # the numpy kernel is active, and vice versa.
                sub = ex.restrict_to_address(addr)
                with kernels.use("numpy"):
                    check = validate_result(sub, a)
                assert check, check.reason
                with kernels.use("python"):
                    check = validate_result(sub, b)
                assert check, check.reason
            checked += 1
        assert checked >= 150

    def test_scan_batches_match_on_long_chains(self):
        """Vectorized eliminate_scan equals the scalar scan on shapes
        built to stress it: empty processes, all-read processes, long
        covered chains."""
        from repro.core.types import Execution, OpKind, Operation

        histories = [
            [],
            [Operation(OpKind.READ, "x", 1, i, value_read=0)
             for i in range(30)],
            [],
            [Operation(OpKind.WRITE, "x", 3, 0, value_written=1)]
            + [Operation(OpKind.READ, "x", 3, i + 1, value_read=1)
               for i in range(29)],
        ]
        ex = Execution.from_ops(histories, initial={"x": 0})
        view = ex.columnar()
        scan_p = kernels.backend("python").eliminate_scan(view)
        scan_n = kernels.backend("numpy").eliminate_scan(view)
        assert list(scan_p.eliminated) == list(scan_n.eliminated)
        assert list(scan_p.anchors) == list(scan_n.anchors)
        assert list(scan_p.tails) == list(scan_n.tails)


# ---------------------------------------------------------------------
# Pure-python path sanity (runs everywhere, numpy or not)
# ---------------------------------------------------------------------
class TestPythonFallback:
    def test_python_kernel_decides_corpus(self):
        """The fallback kernel alone decides the corpus and every
        positive verdict carries a checker-approved certificate."""
        from repro.core.exact import exact_vmc

        with kernels.use("python"):
            for ex in corpus(40):
                res = verify_coherence(ex, certify="on")
                oracle = all(
                    bool(exact_vmc(ex.restrict_to_address(a)))
                    for a in ex.constrained_addresses()
                )
                assert bool(res) == oracle

    def test_stats_report_names_kernel(self, capsys):
        ex = make_arbitrary_execution(1)
        with kernels.use("python"):
            res = verify_coherence(ex)
        assert res.report.info["kernel"] == "python"
        assert "kernel=python" in obs.render(res.report)
        assert "stages: " in obs.render(res.report)
        assert "plan=" in obs.render(res.report)


class TestKernelLabel:
    """The run record names the kernel that ran, and only a run that
    uses a kernel resolves (and so probes) one."""

    def test_first_run_without_a_kernel_imports_no_numpy(self):
        import os
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.core.builder import parse_trace\n"
            "from repro.engine import verify_vmc\n"
            "r = verify_vmc(parse_trace('P0: W(x,1) R(x,1)\\nP1: R(x,1)'),"
            " certify='on')\n"
            "assert r.holds, r\n"
            "assert 'kernel' not in r.report.info, r.report.info\n"
            "assert 'numpy' not in sys.modules\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )

    def test_closure_certificate_names_its_kernel(self):
        from repro.core.builder import parse_trace
        from repro.engine import verify_vmc

        ex = parse_trace("P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)")
        with kernels.use("python"):
            res = verify_vmc(ex, certify="on")
        assert res.violated
        assert res.report.info["kernel"] == "python"

    def test_use_does_not_label_the_open_record(self):
        with obs.opened() as rec:
            with kernels.use("python"):
                pass
        assert "kernel" not in rec.info


class TestGrow:
    """``Saturation.grow``: the incremental streaming path appends
    nodes to a live closure; the result must match a from-scratch
    saturation over the union of edges and forced pairs."""

    KERNELS = ["python"] + (["numpy"] if HAVE_NUMPY else [])

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
