"""The ``python -m repro`` command-line interface."""

import json
import logging
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.ir import format_module

EIR = pathlib.Path(__file__).parent.parent / "examples" / "programs" \
    / "checksum.eir"


class TestList:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "php-2012-2386" in out and "pbzip2-uaf" in out


class TestRun:
    def test_runs_eir_program(self, capsys):
        assert main(["run", str(EIR), "--stream",
                     "stdin=text:hello"]) == 0
        out = capsys.readouterr().out
        assert "exit value: 0" in out

    def test_hex_stream(self, capsys):
        assert main(["run", str(EIR), "--stream", "stdin=414200"]) == 0

    def test_file_stream(self, capsys, tmp_path):
        data = tmp_path / "input.bin"
        data.write_bytes(b"xy\x00")
        assert main(["run", str(EIR), "--stream",
                     f"stdin=@{data}"]) == 0

    def test_failure_returns_nonzero(self, capsys):
        # empty input: h stays 0 -> the program aborts
        assert main(["run", str(EIR)]) == 1
        assert "FAILURE" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["run", "/nope/missing.eir"]) == 2

    def test_bad_stream_spec(self):
        with pytest.raises(SystemExit):
            main(["run", str(EIR), "--stream", "garbage"])


#: a program whose fourth line is ``{}``
_ONE_LINE = "func main() {{\nentry:\n  %x = const 1\n  {}\n  ret 0\n}}\n"


class TestMalformedInput:
    """Malformed outside input ends in one ``error:`` line and exit 2,
    never in a traceback."""

    @pytest.mark.parametrize("line", [
        "%a = add.12 %x, 1", "%a = cmp eq.7 %x, 1", "%a = load.3 %x",
        "%a = input stdin, 3", "%a = const zz", "%a = alloca buf, zz",
        "%a = sext.0 %x", "%a = trunc.0 %x", "%a = trunc.65 %x",
        "%a = sext.200 %x"])
    def test_bad_instruction(self, capsys, tmp_path, line):
        program = tmp_path / "t.eir"
        program.write_text(_ONE_LINE.format(line))
        err = self._error(capsys, ["run", str(program)])
        assert err.startswith("error: line 4: ")

    @pytest.mark.parametrize("argv", [
        ["run", str(EIR), "--stream", "stdin=0"],
        ["run", str(EIR), "--stream", "stdin="],
        ["bench", "bash-108885", "--parallel", "0"]])
    def test_bad_option(self, capsys, argv):
        self._error(capsys, argv)

    @staticmethod
    def _error(capsys, argv) -> str:
        """The stderr of ``argv``, which must fail as malformed input."""
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's error exit
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "error:" in err.splitlines()[-1]
        return err


class TestTrace:
    def test_dumps_decoded_trace(self, capsys):
        assert main(["trace", str(EIR), "--stream",
                     "stdin=text:hi"]) == 0
        out = capsys.readouterr().out
        assert "decoded trace" in out and "chunk" in out
        assert "trace bytes" in out


class TestReproduce:
    def test_reproduces_workload(self, capsys):
        assert main(["reproduce", "bash-108885"]) == 0
        out = capsys.readouterr().out
        assert "succeeded" in out and "verified by replay: True" in out

    def test_unknown_workload(self, capsys):
        assert main(["reproduce", "no-such-bug"]) == 2

    def test_work_limit_override(self, capsys):
        assert main(["reproduce", "libpng-2004-0597",
                     "--work-limit", "400000"]) == 0

    def test_json_output(self, capsys):
        assert main(["reproduce", "nasm-2004-1287", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["success"] is True
        assert data["workload"] == "nasm-2004-1287"
        assert data["occurrences"] == len(data["iterations"])
        assert data["iterations"][-1]["status"] == "completed"
        assert data["totals"]["recorded_bytes"] >= 0
        assert data["test_case"]["streams"]
        assert "counters" in data["telemetry"]

    def test_verbose_logs_iterations(self, capsys, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            assert main(["reproduce", "nasm-2004-1287", "-v"]) == 0
        assert any("waiting for the failure" in r.message
                   for r in caplog.records)


class TestTelemetryFlag:
    def test_reproduce_writes_jsonl_with_layer_spans(self, tmp_path,
                                                     capsys):
        out = tmp_path / "tel.jsonl"
        assert main(["reproduce", "sqlite-7be932d",
                     "--telemetry", str(out)]) == 0
        from repro.telemetry import read_jsonl

        events = read_jsonl(out)
        span_names = {e["name"] for e in events if e["type"] == "span"}
        for expected in ("production.attempt", "trace.decode",
                         "symex.run", "solver.query",
                         "selection.select_key_values"):
            assert expected in span_names, expected
        assert events[-1]["type"] == "snapshot"

    def test_stats_renders_breakdown_from_log(self, tmp_path, capsys):
        out = tmp_path / "tel.jsonl"
        main(["reproduce", "sqlite-7be932d", "--telemetry", str(out)])
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Per-iteration cost breakdown" in text
        assert "completed" in text
        assert "Span timings" in text

    def test_stats_json(self, tmp_path, capsys):
        out = tmp_path / "tel.jsonl"
        main(["reproduce", "nasm-2004-1287", "--telemetry", str(out)])
        capsys.readouterr()
        assert main(["stats", str(out), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["iterations"]
        assert data["snapshot"]["counters"]["reconstruct.successes"] == 1

    def test_stats_missing_file(self, capsys):
        assert main(["stats", "/nope/missing.jsonl"]) == 2

    def test_stats_empty_file_clean_exit(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no telemetry events" in err
        assert "Traceback" not in err

    def test_stats_span_free_log_clean_exit(self, tmp_path, capsys):
        log = tmp_path / "other.jsonl"
        log.write_text('{"kind": "unrelated", "x": 1}\n')
        assert main(["stats", str(log)]) == 2
        err = capsys.readouterr().err
        assert "telemetry" in err
        assert "Traceback" not in err

    def test_stats_non_json_file_clean_exit(self, tmp_path, capsys):
        log = tmp_path / "garbage.jsonl"
        log.write_text("not json at all\nstill not\n")
        assert main(["stats", str(log)]) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestTraceOut:
    def test_reproduce_trace_out_validates(self, tmp_path, capsys):
        from repro.telemetry import validate_trace

        trace = tmp_path / "trace.json"
        assert main(["reproduce", "nasm-2004-1287",
                     "--trace-out", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert validate_trace(doc) == []
        names = {r["name"] for r in doc["traceEvents"]}
        assert "reconstruct.run" in names

    def test_trace_export_from_merged_log(self, tmp_path, capsys):
        from repro.telemetry import validate_trace

        log = tmp_path / "tel.jsonl"
        main(["reproduce", "nasm-2004-1287", "--telemetry", str(log)])
        capsys.readouterr()
        trace = tmp_path / "trace.json"
        assert main(["trace-export", str(log),
                     "-o", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert validate_trace(doc) == []

    def test_trace_export_missing_input(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace-export", "/nope/missing.jsonl",
                     "-o", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestReport:
    def test_report_subset_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.md"
        assert main(["report", "--only", "Figure 1",
                     "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "# ER evaluation report" in text
        assert "Figure 1" in text


class TestBench:
    FAST = ["objdump-2018-6323", "matrixssl-2014-1569"]

    def test_serial_bench_table(self, capsys):
        assert main(["bench", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "Batch reconstruction" in out
        assert "solver cache" in out
        for name in self.FAST:
            assert name in out

    def test_parallel_bench_writes_artifacts(self, capsys, tmp_path):
        bench = tmp_path / "BENCH_parallel.json"
        merged = tmp_path / "merged.jsonl"
        assert main(["bench", *self.FAST, "--parallel", "2",
                     "-o", str(bench),
                     "--merged-telemetry", str(merged)]) == 0
        data = json.loads(bench.read_text())
        assert data["parallelism"] == 2
        assert data["speedup"] is not None
        assert data["serial_wall_seconds"] > 0
        assert data["parallel_wall_seconds"] > 0
        assert {"hits", "misses", "hit_rate"} <= set(data["solver_cache"])
        assert len(data["parallel"]["items"]) == len(self.FAST)
        # the merged log renders through `repro stats`
        assert main(["stats", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "solver cache" in out or "Counters" in out

    def test_bench_json_output(self, capsys):
        assert main(["bench", self.FAST[0], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workloads"] == [self.FAST[0]]
        assert data["speedup"] is None        # no parallel leg requested

    def test_bench_pool_width_matrix(self, capsys, tmp_path):
        bench = tmp_path / "BENCH_parallel.json"
        assert main(["bench", *self.FAST, "--parallel", "1,2",
                     "-o", str(bench)]) == 0
        data = json.loads(bench.read_text())
        legs = data["matrix"]
        assert [leg["parallelism"] for leg in legs] == [1, 2]
        assert legs[0]["speedup"] is None      # the baseline leg
        assert legs[1]["speedup"] is not None
        for leg in legs:
            assert leg["wall_seconds"] > 0
            load = leg["worker_load"]
            assert sum(e["tasks"] for e in load.values()) == len(self.FAST)
        # the top-level summary keeps the last width (back-compat shape)
        assert data["parallelism"] == 2
        assert data["speedup"] == legs[-1]["speedup"]
        out = capsys.readouterr().out
        assert "width 1" in out and "width 2" in out

    def test_bench_bad_pool_width_spec(self):
        for spec in ("garbage", "0", "2,x", ""):
            with pytest.raises(SystemExit):
                main(["bench", self.FAST[0], "--parallel", spec])

    def test_bench_unknown_workload_fails(self, capsys):
        assert main(["bench", "no-such-workload"]) == 1
        assert "no-such-workload" in capsys.readouterr().out


class TestServe:
    def test_serve_table_output(self, capsys):
        assert main(["serve", "sqlite-7be932d", "--instances", "2"]) == 0
        captured = capsys.readouterr()
        assert "Fleet serve" in captured.out
        assert "sqlite-7be932d" in captured.out
        assert "new bucket" in captured.err  # per-bucket progress

    def test_serve_converges_to_single_site_reconstruction(self, capsys):
        assert main(["reproduce", "sqlite-7be932d", "--json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(["serve", "sqlite-7be932d", "--instances", "3",
                     "--json"]) == 0
        fleet = json.loads(capsys.readouterr().out)
        bucket = fleet["buckets"][0]
        assert bucket["streams"] == single["test_case"]["streams"]
        assert bucket["iterations"] == len(single["iterations"])
        assert fleet["succeeded"] is True

    def test_serve_writes_summary_artifact(self, capsys, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        assert main(["serve", "sqlite-7be932d", "--instances", "2",
                     "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["instances"] == 2
        assert data["buckets"][0]["signature"]["digest"]
        assert "telemetry" in data
        assert data["telemetry"]["counters"]["serve.reports"] >= 2

    def test_serve_telemetry_jsonl(self, capsys, tmp_path):
        log = tmp_path / "serve.jsonl"
        assert main(["serve", "sqlite-7be932d", "--instances", "2",
                     "--telemetry", str(log)]) == 0
        assert main(["stats", str(log)]) == 0
        out = capsys.readouterr().out
        assert "fleet serve" in out
        assert "signature bucket" in out

    def test_serve_unknown_workload(self, capsys):
        assert main(["serve", "no-such-bug"]) == 2


class TestLoopFlags:
    """The reconstruction loop is the paper's sequential one: reproduce
    and bench offer no pipelining, solver-portfolio, sharding,
    assumption-stack or simulated-wait knobs, while serve keeps its
    jittered fleet wait (virtual seconds) but no bucket concurrency or
    wall-clock timeout."""

    REMOVED = ["--pipeline", "--portfolio", "--steal", "--shards",
               "--incremental", "--no-incremental", "--ab-incremental",
               "--reoccurrence-delay"]

    @staticmethod
    def _help(capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("flag", REMOVED)
    @pytest.mark.parametrize("command", ["reproduce", "bench"])
    def test_flag_neither_listed_nor_accepted(self, capsys, command, flag):
        assert flag not in self._help(capsys, command)
        with pytest.raises(SystemExit) as exc:
            main([command, "objdump-2018-6323", flag])
        assert exc.value.code == 2

    def test_serve_offers_no_pipeline(self, capsys):
        assert "--pipeline" not in self._help(capsys, "serve")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "objdump-2018-6323", "--pipeline"])
        assert exc.value.code == 2

    def test_serve_keeps_fleet_wait(self, capsys):
        assert "--reoccurrence-delay" in self._help(capsys, "serve")
        args = build_parser().parse_args(
            ["serve", "objdump-2018-6323", "--reoccurrence-delay", "0.2"])
        assert args.reoccurrence_delay == 0.2

    @pytest.mark.parametrize("flag", ["--parallel", "--wait-timeout"])
    def test_serve_flag_removed(self, capsys, flag):
        assert flag not in self._help(capsys, "serve")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "objdump-2018-6323", flag, "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--instances", "0"), ("--reoccurrence-delay", "-1")])
    def test_serve_rejects_bad_value(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "objdump-2018-6323", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"argument {flag}: " in err.splitlines()[-1]


class TestReproduceRecoveryFlags:
    """`reproduce --mapping-loss` end to end."""

    def test_mapping_loss(self, capsys):
        assert main(["reproduce", "objdump-2018-6323",
                     "--mapping-loss", "0.085"]) == 0
        assert "succeeded" in capsys.readouterr().out


class TestRemovedSurfaces:
    """The disk cache has no command-line surface, and `stats` no
    OpenMetrics export: each old spelling is an argparse error."""

    @pytest.mark.parametrize("argv", [
        ["cache", "stats", "--cache-dir", "d"],
        ["reproduce", "bash-108885", "--cache-dir", "d"],
        ["bench", "bash-108885", "--cache-dir", "d"],
        ["serve", "bash-108885", "--cache-dir", "d"],
        ["stats", "LOG", "--openmetrics"],
    ])
    def test_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error:" in err.splitlines()[-1]


class TestEirFixture:
    def test_sample_program_roundtrips(self):
        from repro.ir import parse_module, verify_module

        module = parse_module(EIR.read_text())
        verify_module(module)
        assert format_module(module) == EIR.read_text()
