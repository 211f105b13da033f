"""CLI: exit codes, report schema, determinism, DOT output, injection."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dctforge import corpus
from dctforge.cli import _build_parser, main
from dctforge.engine import ExploreConfig, explore, reset_state
from dctforge.rtl import parse_rtl
from dctforge.solve import SolverLimits

from conftest import config_for


def run_cli(args):
    return main(args)


@pytest.fixture(scope="module")
def ima_path():
    return str(corpus.corpus_path("ima.snl"))


@pytest.fixture(scope="module")
def counter_path():
    return str(corpus.corpus_path("counter.snl"))


@pytest.fixture(scope="module")
def trojan_path():
    return str(corpus.corpus_path("ima_trojan.snl"))


def read_report(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def strip_timing(obj):
    return {k: v for k, v in obj.items() if k != "timing_ms"}


def test_parser_defaults_equal_library_defaults(ima_path):
    """The cap and budget flags default to the values a config built
    without them gets."""
    fields = ExploreConfig.__dataclass_fields__
    limits = SolverLimits()
    for command in ("analyze", "trojan", "stg", "oracle"):
        args = _build_parser().parse_args(
            [command, "--circuit", ima_path, "--state", "pcmSq"])
        assert args.value_cap == fields["value_cap"].default
        assert args.path_cap == fields["path_cap"].default
        assert args.conflict_limit == limits.conflict_limit
        assert args.clause_cap == limits.clause_cap


def test_analyze_ima_exit_and_counts(ima_path, tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["analyze", "--circuit", ima_path, "--state", "pcmSq",
                    "--depth", "7", "--mode", "bfs-prune",
                    "--out", str(out)])
    assert code == 2
    rep = read_report(out)
    assert rep["schema"] == 1
    assert rep["rs_count"] == 6
    assert rep["dct_count"] == 2
    assert rep["dest_count"] == 1
    assert rep["rs"] == [0, 1, 2, 3, 4, 5]
    assert rep["dct"] == [[6, 0], [7, 0]]
    for key in ("trans", "witnesses", "behaviors", "dbs", "verdict",
                "paths_explored", "paths_pruned", "timing_ms"):
        assert key in rep


def test_analyze_counter_exit_zero(counter_path, tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["analyze", "--circuit", counter_path, "--state", "cnt",
                    "--depth", "8", "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep["dct_count"] == 0
    assert rep["rs_count"] == 8


def test_analyze_depth_zero_reports_not_converged(tmp_path, caplog):
    """At --depth 0 the report says depth_converged false and the run
    warns to increase the depth: state 1 is reachable in one cycle."""
    circuit = tmp_path / "one_cycle.snl"
    circuit.write_text("circuit c\ninput a:1\noutput y:1 = r\n"
                       "reg r:1 reset 0 next a\n", encoding="utf-8")
    out = tmp_path / "r.json"
    code = run_cli(["analyze", "--circuit", str(circuit), "--state", "r",
                    "--depth", "0", "--out", str(out)])
    assert code == 2
    rep = read_report(out)
    assert rep["rs"] == [0] and rep["dct"] == [[1, 0]]
    assert rep["depth_converged"] is False
    assert "increase depth" in caplog.text


@pytest.mark.parametrize("name, state", [("ima_trojan.snl", "pcmSq"),
                                         ("counter.snl", "cnt")])
def test_final_layer_warning_once_per_analysis(name, state, tmp_path,
                                               caplog):
    """A trojan run at depth 3 explores in stage 1 and again from each
    stage-3 start, and every one of them ends with new states; the run
    warns once.  A standalone explore with a fresh config warns again."""
    path = corpus.corpus_path(name)

    def warned():
        return [r.getMessage() for r in caplog.records
                if "final layer" in r.getMessage()]

    once = ["new states appeared at the final layer 3; increase depth or "
            "use fixpoint mode"]
    with caplog.at_level("WARNING", logger="dctforge.engine"):
        run_cli(["trojan", "--circuit", str(path), "--state", state,
                 "--depth", "3", "--out", str(tmp_path / "r.json")])
        assert warned() == once
        c = corpus.load(name)
        explore(c, [reset_state(c)], config_for(c, [state], depth=3))
        assert warned() == once * 2


def test_usage_error_exit_one(ima_path, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(["analyze", "--circuit", ima_path])
    assert info.value.code == 1


def test_bad_depth_exit_one(ima_path):
    assert run_cli(["analyze", "--circuit", ima_path, "--state", "pcmSq",
                    "--depth", "soon"]) == 1


def test_missing_file_exit_one(tmp_path):
    assert run_cli(["analyze", "--circuit", str(tmp_path / "nope.snl"),
                    "--state", "x"]) == 1


def test_trojan_exit_codes(trojan_path, ima_path, counter_path, tmp_path):
    out = tmp_path / "t.json"
    assert run_cli(["trojan", "--circuit", trojan_path, "--state", "pcmSq",
                    "--depth", "7", "--out", str(out)]) == 3
    rep = read_report(out)
    assert rep["verdict"] == "TrojanDetected"
    rows = {(r["src"], r["dst"]): r for r in rep["trojan_table"]}
    assert rows[(5, 0)]["stage1"] == [1]
    assert rows[(5, 0)]["stage3"] == [1]
    assert rows[(5, 0)]["revealing"] is False
    for key in ((0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)):
        assert rows[key]["stage1"] == [0]
        assert rows[key]["stage3"] == [1]
        assert rows[key]["revealing"] is True

    assert run_cli(["trojan", "--circuit", ima_path, "--state", "pcmSq",
                    "--depth", "7", "--out", str(out)]) == 0
    assert read_report(out)["verdict"] == "Clean"

    assert run_cli(["trojan", "--circuit", counter_path, "--state", "cnt",
                    "--depth", "8", "--out", str(out)]) == 0
    assert read_report(out)["verdict"] == "NoDct"


def test_report_determinism_across_runs_and_jobs(trojan_path, tmp_path):
    reports = []
    for i in range(3):
        out = tmp_path / f"r{i}.json"
        run_cli(["trojan", "--circuit", trojan_path, "--state", "pcmSq",
                 "--depth", "7", "--out", str(out)])
        reports.append(strip_timing(read_report(out)))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("command, circuit", [("analyze", "ima.snl"),
                                              ("trojan", "ima_trojan.snl")])
def test_seed_changes_only_the_seed_field(command, circuit, tmp_path):
    """Every analysis is deterministic: --seed is copied into the report
    and changes nothing else."""
    reports = []
    for seed in ("0", "7"):
        out = tmp_path / f"{command}{seed}.json"
        run_cli([command, "--circuit", str(corpus.corpus_path(circuit)),
                 "--state", "pcmSq", "--seed", seed, "--out", str(out)])
        report = strip_timing(read_report(out))
        assert report.pop("seed") == int(seed)
        reports.append(report)
    assert reports[0] == reports[1]


_DOT_NODE = re.compile(r'^\s*(\w+)\s*\[[^\]]*\];$')
_DOT_EDGE = re.compile(r'^\s*(\w+)\s*->\s*(\w+)\s*(\[[^\]]*\])?;$')


def check_dot_grammar(text):
    """Minimal DOT digraph well-formedness check: header, node and edge
    statements with balanced attribute lists, closing brace."""
    lines = [l for l in text.splitlines() if l.strip()]
    assert re.match(r'^digraph\s+("[^"]*"|\w+)\s*{$', lines[0])
    assert lines[-1].strip() == "}"
    nodes, edges = set(), []
    for line in lines[1:-1]:
        if line.strip().startswith("rankdir"):
            continue
        m = _DOT_NODE.match(line)
        if m and "->" not in line:
            nodes.add(m.group(1))
            continue
        m = _DOT_EDGE.match(line)
        assert m, f"unparseable DOT line: {line!r}"
        edges.append((m.group(1), m.group(2), m.group(3) or ""))
    for a, b, _ in edges:
        assert a in nodes and b in nodes
    return nodes, edges


def test_stg_ima(ima_path, tmp_path):
    out = tmp_path / "g.dot"
    assert run_cli(["stg", "--circuit", ima_path, "--state", "pcmSq",
                    "--depth", "7", "--out", str(out)]) == 0
    text = out.read_text()
    nodes, edges = check_dot_grammar(text)
    assert len(nodes) == 8
    dashed = [(a, b) for a, b, attr in edges if "dashed" in attr]
    assert sorted(dashed) == [("s6", "s0"), ("s7", "s0")]
    assert text.count("fillcolor=black") == 2
    assert text.count("fillcolor=white") == 6


def test_stg_counter_no_dashed(counter_path, tmp_path):
    out = tmp_path / "g.dot"
    run_cli(["stg", "--circuit", counter_path, "--state", "cnt",
             "--depth", "8", "--out", str(out)])
    text = out.read_text()
    nodes, edges = check_dot_grammar(text)
    assert len(nodes) == 8
    assert text.count("fillcolor=white") == 8
    assert not any("dashed" in attr for _, _, attr in edges)


def test_oracle_diff_empty(ima_path, tmp_path):
    out = tmp_path / "o.json"
    assert run_cli(["oracle", "--circuit", ima_path, "--state", "pcmSq",
                    "--depth", "7", "--out", str(out)]) == 0
    rep = read_report(out)
    for section in rep["diff"].values():
        assert section == {"engine_only": [], "oracle_only": []}


def test_oracle_diff_empty_random_fsm(tmp_path):
    from dctforge.circuit import print_rtl
    from dctforge.trojanlab import gen_random_fsm
    path = tmp_path / "fsm.snl"
    path.write_text(print_rtl(gen_random_fsm(7, state_bits=3, input_bits=2,
                                             reachable_fraction=0.6,
                                             dct_count=1)))
    out = tmp_path / "o.json"
    assert run_cli(["oracle", "--circuit", str(path), "--state", "st",
                    "--depth", "8", "--out", str(out)]) == 0
    rep = read_report(out)
    for section in rep["diff"].values():
        assert section == {"engine_only": [], "oracle_only": []}


def test_oracle_too_large_exit_one(tmp_path):
    path = tmp_path / "wide.snl"
    path.write_text("circuit wide\nreg r:24 reset 0 next r\n"
                    "output y:1 = r == 24'd0\n")
    assert run_cli(["oracle", "--circuit", str(path), "--state", "r",
                    "--depth", "1"]) == 1


def test_inject_roundtrip_and_detection(ima_path, tmp_path):
    injected = tmp_path / "inj.snl"
    assert run_cli(["inject", "--circuit", ima_path, "--state", "pcmSq",
                    "--dct", "6:0,7:0", "--payload", "stuck-at:outValid:1",
                    "--out", str(injected)]) == 0
    c = parse_rtl(injected.read_text())
    assert "trojan_state" in c.register_map()
    assert run_cli(["trojan", "--circuit", str(injected), "--state", "pcmSq",
                    "--depth", "7", "--out", str(tmp_path / "t.json")]) == 3


def test_inject_empty_dct_usage_error(ima_path):
    assert run_cli(["inject", "--circuit", ima_path, "--state", "pcmSq",
                    "--dct", "", "--payload", "stuck-at:outValid:1"]) == 1


def test_inject_bad_payload(ima_path):
    assert run_cli(["inject", "--circuit", ima_path, "--state", "pcmSq",
                    "--dct", "6:0", "--payload", "leak:outValid"]) == 1


@pytest.mark.parametrize("flag,value,message", [
    ("--dct", "a:b", "edge source must be an integer, got 'a'"),
    ("--payload", "stuck-at:outValid:x",
     "payload value must be an integer, got 'x'")])
def test_inject_non_integer_exit_one(ima_path, capsys, flag, value, message):
    argv = {"--dct": "6:0", "--payload": "stuck-at:outValid:1", flag: value}
    assert run_cli(["inject", "--circuit", ima_path, "--state", "pcmSq",
                    *[x for kv in argv.items() for x in kv]]) == 1
    assert message in capsys.readouterr().err


def test_non_utf8_circuit_exit_one(tmp_path, capsys):
    path = tmp_path / "latin1.snl"
    path.write_bytes(b"circuit caf\xe9\n")
    assert run_cli(["analyze", "--circuit", str(path), "--state", "r"]) == 1
    assert "not UTF-8 text" in capsys.readouterr().err


def test_dump_cnf_writes_dimacs(ima_path, tmp_path):
    dump = tmp_path / "cnf"
    run_cli(["analyze", "--circuit", ima_path, "--state", "pcmSq",
             "--depth", "3", "--dump-cnf", str(dump),
             "--out", str(tmp_path / "r.json")])
    files = sorted(dump.iterdir())
    assert files
    first = files[0].read_text().splitlines()
    header = [l for l in first if l.startswith("p cnf ")]
    assert len(header) == 1


def test_monitor_flag_unknown_output(ima_path, capsys):
    assert run_cli(["analyze", "--circuit", ima_path, "--state", "pcmSq",
                    "--monitor", "nothere"]) == 1
    assert "no output named 'nothere'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trojan", "stg", "oracle"])
def test_monitor_flag_unknown_output_every_analysis(ima_path, capsys,
                                                    command):
    assert run_cli([command, "--circuit", ima_path, "--state", "pcmSq",
                    "--monitor", "nothere"]) == 1
    assert "no output named 'nothere'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--conflict-limit", "-1"), ("--conflict-limit", "0"),
    ("--value-cap", "-1"), ("--value-cap", "0"), ("--path-cap", "-1"),
    ("--path-cap", "0"), ("--clause-cap", "0"), ("--clause-cap", "-1")])
def test_limit_below_one_exit_one(ima_path, capsys, flag, value):
    assert run_cli(["analyze", "--circuit", ima_path, "--state", "pcmSq",
                    "--depth", "2", flag, value]) == 1
    assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trojan", "stg", "oracle"])
def test_limit_checked_by_every_analysis(ima_path, capsys, command):
    assert run_cli([command, "--circuit", ima_path, "--state", "pcmSq",
                    "--depth", "2", "--path-cap", "0"]) == 1
    assert "--path-cap must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", [",", ",,"])
def test_monitor_naming_no_output_exit_one(ima_path, capsys, value):
    assert run_cli(["analyze", "--circuit", ima_path, "--state", "pcmSq",
                    "--depth", "2", "--monitor", value]) == 1
    assert "--monitor must name at least one output" in \
        capsys.readouterr().err


def test_assume_flag(tmp_path):
    path = tmp_path / "a.snl"
    path.write_text("circuit a\ninput d:2\nreg r:2 reset 0 next d\n"
                    "output y:2 = r\n")
    out = tmp_path / "r.json"
    # The assume makes states 2 and 3 unreachable, so their edges into the
    # restricted range become don't-care transitions (exit 2).
    assert run_cli(["analyze", "--circuit", str(path), "--state", "r",
                    "--depth", "2", "--assume", "r < 2'd2",
                    "--out", str(out)]) == 2
    rep = read_report(out)
    assert rep["rs"] == [0, 1]
    assert rep["dct"] == [[2, 0], [2, 1], [3, 0], [3, 1]]


def test_assume_leading_zero_constant(counter_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--circuit", counter_path, "--state", "cnt",
                    "--depth", "8", "--assume", "cnt != 3'd007",
                    "--out", str(out)]) == 2
    rep = read_report(out)
    assert rep["rs"] == list(range(7))
    assert rep["dct"] == [[7, 0]]
    assert "Traceback" not in capsys.readouterr().err


def test_unsatisfiable_assume_warns_on_stderr(ima_path, tmp_path):
    """The report and exit code stay as they were; stderr carries the
    warning at the default log level."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("DCTFORGE_LOG", None)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dctforge.cli", "analyze", "--circuit",
         ima_path, "--state", "pcmSq", "--assume", "1'd0", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "assumptions cut every successor of the initial states: 1'd0" \
        in proc.stderr
    rep = read_report(out)
    assert rep["rs"] == [0] and rep["dct"] == []


def test_duplicate_state_register_named_once(ima_path, capsys):
    assert run_cli(["analyze", "--circuit", ima_path,
                    "--state", "pcmSq,pcmSq"]) == 1
    err = capsys.readouterr().err
    assert "duplicate name 'pcmSq'" in err
    assert "pcmSq,pcmSq" not in err


def test_duplicate_monitored_output_named_once(ima_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--circuit", ima_path, "--state", "pcmSq",
                    "--monitor", "outValid,outValid", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "duplicate name 'outValid'" in err
    assert not out.exists()


def _subcommands():
    from dctforge.cli import _build_parser
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


_VALID = {"--circuit": None, "--state": "pcmSq", "--depth": "2",
          "--dct": "6:0", "--payload": "stuck-at:outValid:1"}
_MALFORMED = ["", "x", "-1", "0", "1.5", "99999999999999999999", ",", "a:b",
              "6:0:1", "stuck-at:outValid:x", "stuck-at:nothere:1",
              "stuck-at:outValid:-1", "pcmSq,pcmSq", "pcmSq ==", "8'd300",
              "fixpoint"]


@pytest.mark.parametrize("command", ["analyze", "trojan", "stg", "oracle",
                                     "inject"])
def test_cli_flag_fuzz_no_traceback(command, ima_path, tmp_path, capsys,
                                    monkeypatch):
    """Every flag of the subcommand, one at a time, given malformed values
    (and paths that are missing, a directory or not UTF-8) on ima.snl at
    depth <= 2: the CLI exits 0-3 and never with a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.snl").write_bytes(b"circuit \xe9\n")
    (tmp_path / "file").write_text("")
    paths = ["missing.snl", "dir", "latin1.snl", "file", "file/below"]
    parser = _subcommands()[command]
    flags = [a.option_strings[-1] for a in parser._actions
             if a.option_strings and a.option_strings[-1] != "--help"]
    assert {"--circuit", "--state", "--depth"} <= set(flags)
    valid = dict(_VALID, **{"--circuit": ima_path})
    for flag in flags:
        for value in _MALFORMED + paths:
            if flag == "--depth" and value in ("99999999999999999999",
                                               "fixpoint"):
                continue  # well-formed, but deeper than this test runs
            argv = [command]
            for f, v in valid.items():
                if f in flags and f != flag:
                    argv += [f, v]
            argv += [flag, value]
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err, (argv, err)


_LIMIT_HELP = {"--value-cap": "most distinct values one enumeration",
               "--path-cap": "does not bound the path count",
               "--conflict-limit": "SAT conflict budget of one solver query",
               "--clause-cap": "most CNF clauses one encoded query"}


@pytest.mark.parametrize("command", ["analyze", "trojan", "stg", "oracle",
                                     "inject"])
def test_help_describes_each_limit(command, capsys):
    """--help explains each numeric limit; --path-cap says it bounds
    neither the path count nor what bfs reports."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, phrase in _LIMIT_HELP.items():
        metavar = flag.lstrip("-").replace("-", "_").upper()
        entry = text.split(f" {flag} {metavar} ", 1)[1].split(" --", 1)[0]
        assert phrase in entry, flag
