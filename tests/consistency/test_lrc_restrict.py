"""LRC on locked traces (Fig 6.1) and the Section 6.2 restriction."""

import pytest
from hypothesis import given, settings

from repro.consistency.lrc import lrc_holds
from repro.consistency.restrict import (
    checker_for,
    restriction_agrees_with_coherence,
)
from repro.core.builder import parse_trace
from repro.reductions.sat_to_vmc import SatToVmc
from repro.reductions.sync_wrap import wrap_with_sync
from repro.sat.enumerate_models import brute_force_satisfiable

from tests.conftest import coherent_executions, small_cnfs


class TestLrc:
    def test_wrapped_coherent_trace_is_lrc(self):
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,0)", initial={"x": 0})
        assert lrc_holds(wrap_with_sync(ex))

    def test_wrapped_incoherent_trace_is_not_lrc(self):
        ex = parse_trace(
            "P0: W(x,1) R(x,1)\nP1: R(x,1) R(x,0)", initial={"x": 0}
        )
        assert not lrc_holds(wrap_with_sync(ex))

    def test_unlocked_data_ops_rejected(self):
        ex = parse_trace("P0: W(x,1)")
        with pytest.raises(ValueError):
            lrc_holds(ex)

    def test_multi_address_goes_through_vsc(self):
        ex = parse_trace(
            "P0: W(x,1) R(y,0)\nP1: W(y,1) R(x,0)", initial={"x": 0, "y": 0}
        )
        r = lrc_holds(wrap_with_sync(ex))
        # Fully locked SB is serialized: the SB outcome becomes illegal.
        assert not r

    @given(small_cnfs(max_vars=3, max_clauses=3))
    @settings(max_examples=15, deadline=None)
    def test_figure_6_1_reduction_through_lrc(self, cnf):
        """Verifying LRC of the wrapped Figure 4.1 instance decides SAT
        — the Section 6.2 hardness-transfer, end to end."""
        red = SatToVmc(cnf)
        wrapped = wrap_with_sync(red.execution)
        expected = brute_force_satisfiable(cnf) is not None
        assert bool(lrc_holds(wrapped)) == expected


class TestRestriction:
    @pytest.mark.parametrize("model", ["SC", "TSO", "PSO", "RMO", "coherence"])
    def test_single_location_collapse_on_fixed_traces(self, model):
        traces = [
            "P0: W(x,1) R(x,1)\nP1: R(x,0) R(x,1)",
            "P0: W(x,1) R(x,1)\nP1: R(x,1) R(x,0)",  # CoRR violation
            "P0: W(x,1) W(x,2)\nP1: R(x,2) R(x,1)",  # CoWW violation
            "P0: RW(x,0,1)\nP1: RW(x,1,2)\nP2: R(x,2)",
        ]
        for text in traces:
            ex = parse_trace(text, initial={"x": 0})
            model_ok, coh_ok = restriction_agrees_with_coherence(ex, model)
            assert model_ok == coh_ok, (model, text)

    @given(coherent_executions(max_ops=8, max_procs=3))
    @settings(max_examples=30, deadline=None)
    def test_single_location_collapse_on_random_coherent(self, pair):
        execution, _ = pair
        for model in ("TSO", "PSO", "RMO"):
            model_ok, coh_ok = restriction_agrees_with_coherence(
                execution, model
            )
            assert model_ok == coh_ok, model

    def test_multi_address_rejected(self):
        ex = parse_trace("P0: W(x,1) W(y,1)")
        with pytest.raises(ValueError):
            restriction_agrees_with_coherence(ex, "SC")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            checker_for("Itanium")
