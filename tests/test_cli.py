"""The command-line interface."""

import pytest

from repro.cli import main
from repro.core.builder import parse_trace
from repro.core.serialize import save
from repro.sat.cnf import CNF
from repro.sat.dimacs import write_dimacs


@pytest.fixture
def coherent_trace_file(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("P0: W(x,1) R(x,1)\nP1: R(x,1)\n")
    return str(path)


@pytest.fixture
def violation_trace_file(tmp_path):
    ex = parse_trace(
        "P0: W(x,1) R(x,1)\nP1: R(x,1) R(x,0)", initial={"x": 0}
    )
    path = tmp_path / "bad.json"
    save(ex, path)
    return str(path)


class TestVerify:
    def test_coherent_text_trace(self, coherent_trace_file, capsys):
        assert main(["verify", coherent_trace_file]) == 0
        out = capsys.readouterr().out
        assert "holds" in out and "method" in out

    def test_violation_json_trace(self, violation_trace_file, capsys):
        assert main(["verify", violation_trace_file]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "reason" in out

    def test_witness_printed(self, coherent_trace_file, capsys):
        main(["verify", coherent_trace_file, "--witness"])
        assert "witness" in capsys.readouterr().out

    def test_sc_flag(self, tmp_path, capsys):
        path = tmp_path / "sb.txt"
        path.write_text("P0: W(x,1) R(y,init)\nP1: W(y,1) R(x,init)\n")
        assert main(["verify", str(path)]) == 0  # coherent
        assert main(["verify", str(path), "--sc"]) == 1  # not SC

    def test_model_flag(self, tmp_path):
        path = tmp_path / "sb.txt"
        path.write_text("P0: W(x,init) R(y,init)\n")
        # Unknown model -> usage error.
        assert main(["verify", str(path), "--model", "Alpha"]) == 2

    def test_tso_model(self, tmp_path, capsys):
        path = tmp_path / "sb.txt"
        path.write_text("P0: W(x,1) R(y,init)\nP1: W(y,1) R(x,init)\n")
        assert main(["verify", str(path), "--model", "tso"]) == 0
        assert "TSO" in capsys.readouterr().out.upper()

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/trace.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("this is not a trace")
        assert main(["verify", str(path)]) == 2

    def test_json_sniffed_under_any_suffix(self, tmp_path):
        ex = parse_trace("P0: W(x,1) R(x,1)\nP1: R(x,1)")
        path = tmp_path / "trace.dat"  # serialize format, no .json suffix
        save(ex, path)
        assert main(["verify", str(path)]) == 0

    def test_model_flag_honors_witness(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("P0: W(x,1) R(x,1)\nP1: R(x,1)\n")
        assert main(["verify", str(path), "--model", "sc", "--witness"]) == 0
        assert "witness" in capsys.readouterr().out

    def test_model_coherence(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("P0: W(x,1) R(x,1)\nP1: R(x,1)\n")
        assert main(["verify", str(path), "--model", "coherence"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_forced_method(self, coherent_trace_file, capsys):
        assert main(["verify", coherent_trace_file, "--method", "exact"]) == 0
        assert "method: exact" in capsys.readouterr().out

    def test_inapplicable_method_exits_2(self, coherent_trace_file, capsys):
        # Two ops on P0 -> single-op cannot apply; the error must name
        # the backends that could decide the instance instead.
        code = main(["verify", coherent_trace_file, "--method", "single-op"])
        assert code == 2
        err = capsys.readouterr().err
        assert "not applicable" in err
        assert "applicable backends" in err and "exact" in err

    def test_unknown_method_exits_2(self, coherent_trace_file, capsys):
        assert main(["verify", coherent_trace_file, "--method", "bogus"]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_jobs_flag(self, coherent_trace_file, violation_trace_file):
        assert main(["verify", coherent_trace_file, "--jobs", "4"]) == 0
        assert main(["verify", violation_trace_file, "--jobs", "4"]) == 1

    def test_stats_flag(self, coherent_trace_file, capsys):
        assert main(["verify", coherent_trace_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine:" in out and "backend" in out


class TestMalformedTraces:
    """Truncated / corrupt inputs exit 2 with a one-line diagnostic
    naming the file and the byte offset — never a traceback."""

    def test_truncated_json(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text('{"processors": 2, "histories": [')
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line
        assert str(path) in err
        assert "byte" in err and "malformed JSON" in err

    def test_corrupt_json_names_offset(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text('{"processors": 2, "histories": ###}')
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "byte 31" in err  # offset of the first '#'
        assert "line 1" in err

    def test_empty_json_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["verify", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_sniffed_json_gets_same_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "trace.dat"  # JSON-shaped, wrong suffix
        path.write_text("[1, 2,")
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "byte" in err


class TestResilienceFlags:
    def test_timeout_zero_exits_unknown(self, coherent_trace_file, capsys):
        assert main(["verify", coherent_trace_file, "--timeout", "0"]) == 3
        out = capsys.readouterr().out
        assert "UNKNOWN" in out
        assert "budget" in out

    def test_generous_timeout_still_decides(self, coherent_trace_file):
        assert main(["verify", coherent_trace_file, "--timeout", "60",
                     "--task-timeout", "30"]) == 0

    def test_negative_timeout_is_usage_error(self, coherent_trace_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", coherent_trace_file, "--timeout", "-1"])
        assert exc.value.code == 2

    def test_chaos_without_env_exits_2(
        self, coherent_trace_file, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert main(["verify", coherent_trace_file, "--chaos", "crash=1"]) == 2
        assert "REPRO_CHAOS" in capsys.readouterr().err

    def test_chaos_with_env_injects(
        self, coherent_trace_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "1")
        code = main(["verify", coherent_trace_file, "--chaos",
                     "crash=1,seed=0", "--retries", "1", "--stats"])
        assert code == 3
        out = capsys.readouterr().out
        assert "UNKNOWN" in out
        assert "crashed" in out
        assert "resilience:" in out and "quarantined" in out

    def test_chaos_recovers_with_retries(
        self, coherent_trace_file, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "1")
        code = main(["verify", coherent_trace_file, "--chaos",
                     "crash=0.4,seed=5", "--retries", "6"])
        assert code == 0

    def test_bad_chaos_spec_exits_2(
        self, coherent_trace_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "1")
        assert main(["verify", coherent_trace_file, "--chaos",
                     "explode=1"]) == 2
        assert "bad chaos field" in capsys.readouterr().err

    def test_unknown_on_violation_trace_never_masks(
        self, violation_trace_file
    ):
        # A violated trace under a generous deadline still reports 1.
        assert main(["verify", violation_trace_file, "--timeout", "60"]) == 1


class TestSimulate:
    def test_healthy_run(self, capsys):
        assert main(["simulate", "--ops", "30", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "coherence: holds" in out

    def test_trace_dump(self, tmp_path):
        out_file = tmp_path / "run.json"
        assert main(["simulate", "--ops", "20", "--out", str(out_file)]) == 0
        assert main(["verify", str(out_file)]) == 0

    def test_unknown_fault(self, capsys):
        assert main(["simulate", "--fault", "gremlins"]) == 2

    def test_fault_injection_runs(self):
        # Rate 0 fault config: still exit 0.
        code = main(
            ["simulate", "--ops", "30", "--fault", "dropped-write",
             "--fault-rate", "0.0"]
        )
        assert code == 0

    def test_jobs_and_stats(self, capsys):
        code = main(
            ["simulate", "--ops", "30", "--seed", "3", "--jobs", "2",
             "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coherence: holds" in out and "engine:" in out

    def test_directory_substrate_runs(self, capsys):
        code = main(
            ["simulate", "--substrate", "directory", "--ops", "25",
             "--processors", "4", "--seed", "3", "--delay-model",
             "uniform:1:3", "--homes", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coherence: holds" in out
        assert "traffic:" in out

    def test_directory_rejects_non_msi_protocol(self, capsys):
        code = main(
            ["simulate", "--substrate", "directory", "--protocol", "MESI"]
        )
        assert code == 2
        assert "MSI" in capsys.readouterr().err

    def test_substrate_specific_fault_site_rejected(self, capsys):
        # wb-race is a directory-only site; the bus must refuse it.
        code = main(["simulate", "--substrate", "bus", "--fault", "wb-race"])
        assert code == 2
        err = capsys.readouterr().err
        assert "wb-race" in err and "choose from" in err

    def test_directory_fault_injection_runs(self, capsys):
        code = main(
            ["simulate", "--substrate", "directory", "--ops", "25",
             "--seed", "5", "--fault", "drop-msg", "--fault-rate", "0.05"]
        )
        assert code in (0, 1)  # verdict depends on fault visibility

    def test_bad_delay_model_rejected(self, capsys):
        code = main(
            ["simulate", "--substrate", "directory", "--delay-model",
             "warp:9"]
        )
        assert code == 2


class TestCampaign:
    ARGS = [
        "campaign", "--substrates", "bus", "--sites", "dropped-write",
        "--runs-per-cell", "3", "--processors", "3", "--ops", "20",
        "--addresses", "2", "--quiet",
    ]

    def test_small_campaign_contract_ok(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "contract: OK" in out
        assert "dropped-write" in out

    def test_json_report_to_stdout(self, capsys):
        import json as json_mod

        assert main(self.ARGS + ["--json", "-"]) == 0
        blob = json_mod.loads(capsys.readouterr().out)
        assert blob["contract_ok"] is True
        assert blob["cells"][0]["site"] == "dropped-write"

    def test_json_report_to_file(self, tmp_path, capsys):
        import json as json_mod

        path = tmp_path / "report.json"
        assert main(self.ARGS + ["--json", str(path)]) == 0
        blob = json_mod.loads(path.read_text())
        assert blob["total_runs"] == 4  # 3 injected + 1 control

    def test_unknown_substrate_exits_2(self, capsys):
        assert main(["campaign", "--substrates", "hypercube"]) == 2
        assert "unknown substrate" in capsys.readouterr().err

    def test_unknown_site_exits_2(self, capsys):
        code = main(
            ["campaign", "--substrates", "bus", "--sites", "gremlins"]
        )
        assert code == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_site_unsupported_by_substrate_exits_2(self, capsys):
        code = main(
            ["campaign", "--substrates", "bus", "--sites", "wb-race"]
        )
        assert code == 2

    def test_certified_campaign_with_store(self, tmp_path, capsys):
        args = self.ARGS + [
            "--certify", "on", "--store", str(tmp_path / "store"),
        ]
        assert main(args) == 0
        assert "contract: OK" in capsys.readouterr().out
        # Warm re-run is served from the persistent store.
        assert main(args + ["--json", "-"]) == 0
        import json as json_mod

        blob = json_mod.loads(capsys.readouterr().out)
        assert blob["provenance"].get("store", 0) > 0


class TestSolve:
    def test_sat_formula(self, tmp_path, capsys):
        cnf = CNF(num_vars=2)
        cnf.add_clauses([[1, 2], [-1]])
        path = tmp_path / "f.cnf"
        write_dimacs(cnf, path)
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SAT")
        assert "v -1 2 0" in out

    def test_unsat_formula(self, tmp_path, capsys):
        cnf = CNF(num_vars=1)
        cnf.add_clauses([[1], [-1]])
        path = tmp_path / "f.cnf"
        write_dimacs(cnf, path)
        assert main(["solve", str(path)]) == 1
        assert "UNSAT" in capsys.readouterr().out

    def test_via_vmc(self, tmp_path, capsys):
        cnf = CNF(num_vars=2)
        cnf.add_clauses([[1, 2]])
        path = tmp_path / "f.cnf"
        write_dimacs(cnf, path)
        assert main(["solve", str(path), "--via-vmc"]) == 0
        assert "Figure 4.1" in capsys.readouterr().out

    def test_missing_cnf(self, capsys):
        assert main(["solve", "/does/not/exist.cnf"]) == 2


def test_litmus_command(capsys):
    assert main(["litmus"]) == 0
    out = capsys.readouterr().out
    assert "IRIW" in out and "SC" in out


# -- the streaming monitor and stdin input ------------------------------------


def _stream_bytes(violated=False, final=None):
    import io

    from repro.core.serialize_bin import dump_stream
    from repro.core.types import OpKind, Operation

    schedule = [
        Operation(OpKind.WRITE, "x", 0, 0, value_written=1),
        Operation(OpKind.READ, "x", 1, 0, value_read=7 if violated else 1),
        Operation(OpKind.READ, "x", 0, 1, value_read=1),
    ]
    buf = io.BytesIO()
    dump_stream(buf, schedule, 2, initial={"x": 0}, final=final)
    return buf.getvalue()


def _patch_stdin(monkeypatch, data: bytes):
    import io
    import sys
    import types

    monkeypatch.setattr(
        sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(data))
    )


def _patch_pipe_stdin(monkeypatch, data: bytes):
    """Like :func:`_patch_stdin`, but non-seekable — EOF is final,
    exactly like a pipe whose writer has exited."""
    import io
    import sys
    import types

    class _PipeIO(io.BytesIO):
        def seekable(self):
            return False

    monkeypatch.setattr(
        sys, "stdin", types.SimpleNamespace(buffer=_PipeIO(data))
    )


class TestMonitor:
    def test_stream_holds(self, tmp_path, capsys):
        path = tmp_path / "ok.stm"
        path.write_bytes(_stream_bytes())
        assert main(["monitor", str(path)]) == 0
        assert "holds" in capsys.readouterr().out

    def test_stream_violation_certified(self, tmp_path, capsys):
        path = tmp_path / "bad.stm"
        path.write_bytes(_stream_bytes(violated=True))
        assert main(["monitor", str(path), "--certify", "on"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED at op 1" in out
        assert "certificate:" in out

    def test_stats_and_heartbeat(self, tmp_path, capsys):
        path = tmp_path / "ok.stm"
        path.write_bytes(_stream_bytes())
        assert main(
            ["monitor", str(path), "--stats", "--heartbeat", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "holds so far" in out
        assert "ops=" in out and "peak_window=" in out

    def test_plain_trace_goes_through_greedy_merge(
        self, coherent_trace_file, violation_trace_file, capsys
    ):
        assert main(["monitor", coherent_trace_file]) == 0
        assert main(["monitor", violation_trace_file]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_stream_from_stdin(self, monkeypatch, capsys):
        _patch_stdin(monkeypatch, _stream_bytes())
        assert main(["monitor", "-"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert main(["monitor", "/does/not/exist.stm"]) == 2

    def test_truncated_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cut.stm"
        path.write_bytes(_stream_bytes()[:10])
        assert main(["monitor", str(path)]) == 2

    def test_mid_frame_truncation_decides_prefix(self, tmp_path, capsys):
        blob = _stream_bytes()
        path = tmp_path / "cut.stm"
        path.write_bytes(blob[:-4])
        assert main(["monitor", str(path)]) == 0
        assert "mid-frame" in capsys.readouterr().out

    def test_follow_pipe_writer_exits_mid_frame(self, monkeypatch, capsys):
        # --follow on a *pipe* whose writer died mid-frame: EOF is
        # final (nothing will ever arrive), so the monitor must emit a
        # byte-offset diagnostic and exit 2 like `verify` would —
        # never spin waiting for bytes that cannot come.
        _patch_pipe_stdin(monkeypatch, _stream_bytes()[:-4])
        assert main(["monitor", "-", "--follow"]) == 2
        err = capsys.readouterr().err
        assert "writer exited mid-frame" in err
        assert "at byte" in err

    def test_follow_pipe_complete_stream_exits_clean(
        self, monkeypatch, capsys
    ):
        _patch_pipe_stdin(monkeypatch, _stream_bytes())
        assert main(["monitor", "-", "--follow"]) == 0
        assert "holds" in capsys.readouterr().out


class TestStdinVerify:
    def test_json_from_stdin(self, violation_trace_file, monkeypatch, capsys):
        data = open(violation_trace_file, "rb").read()
        _patch_stdin(monkeypatch, data)
        assert main(["verify", "-"]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_text_from_stdin(self, monkeypatch, capsys):
        _patch_stdin(monkeypatch, b"P0: W(x,1) R(x,1)\nP1: R(x,1)\n")
        assert main(["verify", "-"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_binary_from_stdin(self, coherent_trace_file, monkeypatch, capsys):
        from repro.core.builder import parse_trace
        from repro.core.serialize_bin import dumps_bin

        ex = parse_trace(open(coherent_trace_file).read())
        _patch_stdin(monkeypatch, dumps_bin(ex))
        assert main(["verify", "-"]) == 0

    def test_stream_from_stdin(self, monkeypatch, capsys):
        _patch_stdin(monkeypatch, _stream_bytes())
        assert main(["verify", "-"]) == 0

    def test_garbage_from_stdin_exits_2(self, monkeypatch, capsys):
        _patch_stdin(monkeypatch, b"\xff\xfe garbage")
        assert main(["verify", "-"]) == 2
