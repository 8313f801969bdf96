"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import WORKLOADS, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv: str) -> list[str]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    assert code == 0
    return lines


def run_cli_code(*argv: str) -> tuple[int, list[str]]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, lines


class TestCaptureCommand:
    def test_network_summary(self):
        lines = run_cli("capture", "--workload", "network", "--packets", "6")
        text = "\n".join(lines)
        assert "captured" in text
        assert "Elapsed time" in text
        assert "bcopy" in text

    def test_multiple_reports(self):
        lines = run_cli(
            "capture",
            "--workload",
            "network",
            "--packets",
            "4",
            "--report",
            "summary",
            "--report",
            "flame",
        )
        text = "\n".join(lines)
        assert "Elapsed time" in text
        assert "[" in text  # flame bars

    def test_gprof_and_folded(self):
        lines = run_cli(
            "capture", "--workload", "mixed", "--packets", "8",
            "--report", "gprof", "--report", "folded",
        )
        text = "\n".join(lines)
        assert "calls" in text
        assert ";" in text  # folded stacks

    def test_micro_profile_modules(self):
        lines = run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--modules", "netinet,isa/if_we",
        )
        text = "\n".join(lines)
        assert "tcp_input" in text
        assert "pmap_remove" not in text

    def test_save_and_analyze_roundtrip(self, tmp_path):
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        run_cli(
            "capture", "--workload", "network", "--packets", "5",
            "--save", str(capture_file), "--names", str(names_file),
        )
        assert capture_file.exists() and names_file.exists()
        lines = run_cli(
            "analyze", str(capture_file), "--names", str(names_file),
            "--report", "trace",
        )
        text = "\n".join(lines)
        assert "loaded" in text
        assert "-> tcp_input" in text

    def test_tty_workload(self):
        lines = run_cli("capture", "--workload", "tty", "--packets", "20")
        assert any("comintr" in line for line in lines)

    def test_snmp_workload(self):
        lines = run_cli(
            "capture", "--workload", "snmp-btree", "--packets", "5"
        )
        assert any("mib_search_btree" in line for line in lines)


class TestDesyncFooter:
    def test_capture_summary_reports_zero_desyncs(self):
        lines = run_cli("capture", "--workload", "network", "--packets", "4")
        assert "kstack desyncs = 0" in lines

    def test_analyze_summary_reports_desyncs(self, tmp_path):
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--save", str(capture_file), "--names", str(names_file),
        )
        lines = run_cli("analyze", str(capture_file), "--names", str(names_file))
        assert "kstack desyncs = 0" in lines


GOLDEN_TAGS = str(GOLDEN_DIR / "case_study.tags")


def _hostile_inputs(tmp_path) -> dict[str, tuple[str, str]]:
    """name -> (capture, names) pairs ``analyze`` cannot read."""
    empty = tmp_path / "empty.mpf"
    empty.write_bytes(b"")
    truncated = tmp_path / "truncated.mpf"
    truncated.write_bytes((GOLDEN_DIR / "figure3_network_v2.mpf").read_bytes()[:3000])
    good = str(GOLDEN_DIR / "figure3_network_v2.mpf")
    cases = {
        "missing": (str(tmp_path / "missing.mpf"), GOLDEN_TAGS),
        "empty": (str(empty), GOLDEN_TAGS),
        "truncated": (str(truncated), GOLDEN_TAGS),
        "missing-names": (good, str(tmp_path / "missing.tags")),
    }
    for mutant in ("bitflip", "countlie", "truncate"):
        path = GOLDEN_DIR / f"salvage_fuzz_{mutant}.mpf.corrupt"
        cases[f"mutant-{mutant}"] = (str(path), GOLDEN_TAGS)
    return cases


class TestAnalyzeBadInput:
    @pytest.mark.parametrize(
        "case",
        [
            "missing", "empty", "truncated", "missing-names",
            "mutant-bitflip", "mutant-countlie", "mutant-truncate",
        ],
    )
    def test_one_line_diagnostic_and_exit_2(self, case, tmp_path, capsys):
        capture, names = _hostile_inputs(tmp_path)[case]
        culprit = names if case == "missing-names" else capture
        messages = []
        for extra in ([], ["--stream"]):
            code, lines = run_cli_code("analyze", capture, "--names", names, *extra)
            err = capsys.readouterr().err
            assert code == 2
            assert lines == []
            assert err.startswith(f"analyze: {culprit}: ")
            assert err.count("\n") == 1 and "Traceback" not in err
            messages.append(err)
        assert messages[0] == messages[1]


class TestTreeCommandsBadInput:
    """``trace export`` and ``lint`` hold the same one-line, exit-2
    contract as ``analyze`` on input they cannot read."""

    @pytest.mark.parametrize(
        "command, case",
        [
            ("trace export", "truncated"),
            ("trace export", "missing"),
            ("trace export", "missing-names"),
            ("lint", "missing-names"),
        ],
    )
    def test_one_line_diagnostic_and_exit_2(self, command, case, tmp_path, capsys):
        capture, names = _hostile_inputs(tmp_path)[case]
        culprit = names if case == "missing-names" else capture
        argv = [*command.split(), capture, "--names", names]
        if command == "trace export":
            argv += ["-o", str(tmp_path / "out.trace.json")]
        code, lines = run_cli_code(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert lines == []
        assert err.startswith(f"{command}: {culprit}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out.trace.json").exists()


def test_closed_stdout_pipe_exits_one_without_traceback():
    """``repro ... | head -1``: the reader leaves early, the run ends
    with exit 1 and nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(GOLDEN_DIR.parent.parent / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "analyze",
            str(GOLDEN_DIR / "figure5_forkexec_v2.mpf"),
            "--names", GOLDEN_TAGS, "--report", "trace",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"loaded ")
    proc.stdout.close()  # far more trace than a pipe buffer is still unwritten
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_broken_pipe_on_another_sink_still_raises(monkeypatch):
    """Only a closed stdout ends quietly: a pipe the command writes
    itself (a FIFO, a socket) whose reader died still raises."""
    import repro.__main__ as cli

    def write_to_dead_pipe(args, out):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            os.write(write_end, b"record")
        finally:
            os.close(write_end)

    monkeypatch.setattr(cli, "cmd_workloads", write_to_dead_pipe)
    with pytest.raises(BrokenPipeError):
        main(["workloads"], out=lambda line: None)


def _repro(*argv: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, *stdin* fed through a pipe."""
    env = dict(os.environ, PYTHONPATH=str(GOLDEN_DIR.parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        input=stdin, capture_output=True, env=env, timeout=120,
    )


class TestPipedCapture:
    """``cat f.mpf | repro analyze /dev/stdin``: a pipe can be read only
    once, so every report mix — summary and tree, with ``--salvage`` or
    ``--strict`` — reads it once and prints what the file prints."""

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("figure3_network_v2.mpf", []),
            ("figure5_forkexec.mpf", []),
            ("salvage_fuzz_truncate.mpf.corrupt", ["--salvage"]),
            ("salvage_fuzz_countlie.mpf.corrupt", ["--salvage"]),
            ("salvage_fuzz_bitflip.mpf.corrupt", ["--salvage"]),
            ("figure3_network_v2.mpf", ["--report", "summary", "--report", "trace"]),
            (
                "salvage_fuzz_truncate.mpf.corrupt",
                ["--salvage", "--report", "summary", "--report", "trace"],
            ),
            ("figure5_forkexec_v2.mpf", ["--strict"]),
        ],
    )
    def test_pipe_prints_what_the_file_prints(self, name, extra):
        path = str(GOLDEN_DIR / name)
        argv = ["--names", GOLDEN_TAGS, *extra]
        from_file = _repro("analyze", path, *argv)
        piped = _repro(
            "analyze", "/dev/stdin", *argv,
            stdin=pathlib.Path(path).read_bytes(),
        )
        assert from_file.returncode == 0, from_file.stderr
        assert piped.returncode == 0, piped.stderr
        assert b"Traceback" not in piped.stderr
        assert piped.stdout == from_file.stdout.replace(
            path.encode(), b"/dev/stdin"
        )
        assert b"Elapsed time" in piped.stdout


class TestMpf1Warning:
    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--stream"],
            ["--report", "trace"],
            ["--report", "summary", "--report", "gprof"],
        ],
        ids=["summary", "stream", "tree", "summary+tree"],
    )
    def test_warned_exactly_once(self, extra):
        from repro.profiler.upload import CaptureMetadataWarning

        mpf1 = str(GOLDEN_DIR / "figure5_forkexec.mpf")
        with pytest.warns(CaptureMetadataWarning) as record:
            lines = run_cli("analyze", mpf1, "--names", GOLDEN_TAGS, *extra)
        assert [str(w.message).count("MPF1") for w in record] == [1]
        v2 = run_cli(
            "analyze", str(GOLDEN_DIR / "figure5_forkexec_v2.mpf"),
            "--names", GOLDEN_TAGS, *extra,
        )
        assert lines[1:] == v2[1:]  # stdout as for the MPF2 sibling


class TestOneSummaryEngine:
    """Every summary folds; only tree reports build the call tree."""

    @pytest.fixture
    def no_call_tree(self, monkeypatch):
        from repro.analysis.callstack import CallTreeRecorder

        def refuse(self, *args, **kwargs):
            raise AssertionError("call tree built")

        # Every tree is recorded by a CallTreeRecorder; no summary may
        # construct one.
        monkeypatch.setattr(CallTreeRecorder, "__init__", refuse)

    def test_summaries_never_build_the_tree(self, no_call_tree, tmp_path):
        from repro.analysis.reports import full_report
        from repro.analysis.summary import summarize_capture
        from repro.system import build_case_study

        capture_file, names_file = tmp_path / "run.mpf", tmp_path / "run.tags"
        run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--save", str(capture_file), "--names", str(names_file),
        )
        for extra in ([], ["--salvage"], ["--stream"]):
            run_cli("analyze", str(capture_file), "--names", str(names_file), *extra)
        from repro.workloads.network_recv import network_receive

        system = build_case_study()
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=2)
        )
        assert system.summarize(capture).get("tcp_input") is not None
        assert summarize_capture(capture) == system.summarize(capture)
        assert "Code path trace" not in full_report(capture, include_trace=False)

    def test_tree_reports_still_build_it(self, no_call_tree):
        with pytest.raises(AssertionError, match="call tree built"):
            main(
                [
                    "analyze", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
                    "--names", GOLDEN_TAGS, "--report", "trace",
                ],
                out=lambda _: None,
            )


class TestOneRead:
    """One fold gives every report: the capture is opened exactly once."""

    @pytest.fixture
    def opens(self, monkeypatch):
        import repro.analysis.summary as summary
        import repro.profiler.upload as upload

        calls: list[object] = []
        real = upload.open_capture_columns

        def counting(source, **kwargs):
            calls.append(source)
            return real(source, **kwargs)

        monkeypatch.setattr(upload, "open_capture_columns", counting)
        monkeypatch.setattr(summary, "open_capture_columns", counting)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{capture}", "--report", "summary", "--report", "trace",
             "--report", "gprof"],
            ["analyze", "{capture}", "--salvage", "--report", "summary",
             "--report", "trace", "--report", "gprof"],
            ["trace", "export", "{capture}", "-o", "{out}"],
        ],
        ids=["analyze", "analyze-salvage", "trace-export"],
    )
    def test_capture_opened_once(self, opens, argv, tmp_path):
        capture = str(GOLDEN_DIR / "figure3_network_v2.mpf")
        out = str(tmp_path / "trace.json")
        argv = [arg.format(capture=capture, out=out) for arg in argv]
        code, lines = run_cli_code(*argv, "--names", GOLDEN_TAGS)
        assert code == 0
        assert opens == [capture]
        if argv[0] == "analyze":
            text = "\n".join(lines)
            assert "Elapsed time" in text and "-> swtch (15 us)" in text


class TestLintCommand:
    def test_self_check_is_default_and_clean(self):
        code, lines = run_cli_code("lint")
        assert code == 0
        assert any("clean" in line for line in lines)

    def test_golden_captures_lint_clean(self):
        captures = sorted(str(p) for p in GOLDEN_DIR.glob("*.mpf"))
        assert captures, "golden captures missing from tests/golden/"
        code, _ = run_cli_code(
            "lint", *captures, "--names", str(GOLDEN_DIR / "case_study.tags")
        )
        assert code == 0

    def test_kernel_ast_pass_is_clean(self):
        code, _ = run_cli_code("lint", "--kernel-ast")
        assert code == 0

    def test_error_diagnostics_exit_one(self, tmp_path):
        bad = tmp_path / "bad.tags"
        bad.write_text("main/502\nmain/510\n")
        code, lines = run_cli_code("lint", "--names", str(bad))
        assert code == 1
        assert any("P001" in line for line in lines)

    def test_captures_without_names_exit_two(self, tmp_path):
        capture = tmp_path / "x.mpf"
        capture.write_bytes(b"MPF1\x00\x00\x00\x00")
        code, _ = run_cli_code("lint", str(capture))
        assert code == 2

    def test_json_report(self, tmp_path):
        bad = tmp_path / "bad.tags"
        bad.write_text("broken/501\n")
        code, lines = run_cli_code("lint", "--names", str(bad), "--json")
        assert code == 1
        document = json.loads("\n".join(lines))
        assert document["tool"] == "proflint"
        assert document["counts"]["error"] == 1
        assert document["diagnostics"][0]["code"] == "P003"


class TestStrictAnalyze:
    def test_clean_capture_analyzes(self, tmp_path):
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--save", str(capture_file), "--names", str(names_file),
        )
        lines = run_cli(
            "analyze", str(capture_file), "--names", str(names_file), "--strict"
        )
        text = "\n".join(lines)
        assert "clean" in text and "Elapsed time" in text

    def test_corrupt_capture_refused(self, tmp_path):
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--save", str(capture_file), "--names", str(names_file),
        )
        data = capture_file.read_bytes()
        capture_file.write_bytes(data[:-3])  # tear the last record
        code, lines = run_cli_code(
            "analyze", str(capture_file), "--names", str(names_file), "--strict"
        )
        assert code == 1
        text = "\n".join(lines)
        assert "P200" in text and "refusing to analyze" in text
        assert "Elapsed time" not in text  # analysis never ran


class TestOtherCommands:
    def test_workloads_listing(self):
        lines = run_cli("workloads")
        text = "\n".join(lines)
        for name in WORKLOADS:
            assert name in text

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["capture", "--workload", "nope"], out=lambda s: None)

    def test_analyze_requires_names(self):
        with pytest.raises(SystemExit):
            main(["analyze", "whatever.mpf"], out=lambda s: None)


def test_import_does_not_pull_networkx():
    """``pyproject.toml`` declares no runtime dependency, so the CLI must
    import without networkx; only the call-graph analysis needs it."""
    probe = "import sys, repro.__main__; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(GOLDEN_DIR.parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert result.stdout.strip() == "False"
    from repro.analysis import call_graph, subsystem_rollup

    assert callable(call_graph) and callable(subsystem_rollup)
