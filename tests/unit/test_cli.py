"""The one CLI tree (:mod:`repro.cli`): every command line CI and the
package itself run parses, usage and input errors exit 2, and the
chaos, figure and divergence verbs run end to end in this process.
"""

import asyncio
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest

from repro import systems
from repro.bench import experiments
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[2]
CI = ROOT / ".github" / "workflows" / "ci.yml"
SHELL_OPERATORS = frozenset({"|", "||", "&&", ";", ">", ">>", "<"})


def _ci_command_lines():
    """Every ``python -m repro ...`` argv in the CI workflow, with
    continuation lines joined, the redirections and pipes after it cut,
    and ``$system`` (the trace-smoke loop variable) substituted."""
    text = CI.read_text(encoding="utf-8").replace("\\\n", " ")
    argvs = []
    for line in text.splitlines():
        __, found, rest = line.partition("python -m repro ")
        if not found:
            continue
        lexer = shlex.shlex(rest.replace("$system", "carousel-fast"),
                            posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        argv = []
        for token in lexer:
            if token in SHELL_OPERATORS:
                break
            argv.append(token)
        argvs.append(argv)
    return argvs


CI_COMMANDS = _ci_command_lines()


def test_ci_runs_the_cli_verbs():
    verbs = {argv[0] for argv in CI_COMMANDS}
    assert {"lint", "protolint", "trace", "trace-basic", "trace-cpc",
            "fig5", "chaos", "perf", "conform", "cluster"} <= verbs


@pytest.mark.parametrize("argv", CI_COMMANDS, ids=" ".join)
def test_every_ci_command_line_parses(argv, tmp_path, monkeypatch):
    # `perf compare` reads its BENCH operands while parsing; in CI the
    # steps before it write them.
    for arg in argv:
        if arg.endswith(".json"):
            shutil.copy(ROOT / "BENCH_seed.json", tmp_path / arg)
    monkeypatch.chdir(tmp_path)
    args = build_parser().parse_args(argv)
    assert callable(args.func)


def _parse_spawned(argv):
    __, flag, package, *rest = argv
    assert (flag, package) == ("-m", "repro")
    return build_parser().parse_args(rest)


def test_spawned_divergence_child_command_line_parses(monkeypatch):
    from repro.analysis import divergence

    spawned = []

    def fake_run(cmd, **kwargs):
        spawned.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    divergence._spawn_child("tapir", 7, 3, "child.log", hash_seed=1,
                            plant_set_bug=True)
    args = _parse_spawned(spawned[0])
    assert (args.func.__name__, args.child, args.system, args.seed,
            args.txns, args.out, args.plant_set_bug) == (
        "cmd_divergence", True, "tapir", 7, 3, "child.log", True)


def test_spawned_serve_command_line_parses(monkeypatch):
    from repro.runtime import serve

    spawned = []

    async def fake_exec(*cmd, **kwargs):
        spawned.append(list(cmd))
        raise OSError("not spawned in a unit test")

    monkeypatch.setattr(asyncio, "create_subprocess_exec", fake_exec)
    with pytest.raises(OSError):
        asyncio.run(serve._spawn_server("layered", 5, "dc-oregon"))
    args = _parse_spawned(spawned[0])
    assert (args.func.__name__, args.system, args.seed, args.proc) == (
        "cmd_serve", "layered", 5, "dc-oregon")


@pytest.mark.parametrize("argv", [
    [],
    ["fig6", "--jobs", "0"],
    ["fig4", "--system", "tapir"],
    ["all", "--json", "all.json"],
    ["trace", "--txn-id", "0"],
    ["trace", "--system", "nope"],
    ["trace", "--system", "carousel-basic", "--slow-path"],
    ["chaos", "--seeds", "5..1"],
    ["chaos", "--system", "nope"],
    ["chaos", "--jobs", "2"],
    ["perf"],
    ["perf", "run", "--jobs", "0"],
    ["perf", "run", "--suites", "no-such-suite"],
    ["perf", "compare", "{malformed}", "{malformed}"],
    ["perf", "compare", "{missing}", "{missing}"],
    ["conform", "--systems", "nope"],
    ["serve", "--system", "tapir"],
], ids=" ".join)
def test_usage_and_input_errors_exit_2(argv, tmp_path, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"label": "x"}')
    argv = [arg.format(malformed=malformed, missing=tmp_path / "absent")
            for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err


# ----------------------------------------------------------------------
# End to end, in this process


def test_chaos_minimizes_the_planted_writeback_bug(capsys):
    assert main(["chaos", "--system", "carousel-fast", "--seeds", "0",
                 "--plant-bug", "writeback-dup"]) == 1
    out = capsys.readouterr().out
    assert "  seed 0: FAIL  " in out
    assert "minimal reproduction: seed 0, 2 of 6 nemesis events" in out
    assert "causal trace chain for txn" in out


def test_chaos_catches_the_planted_retry_removal(capsys):
    assert main(["chaos", "--system", "tapir", "--seeds", "0",
                 "--plant-bug", "retry-removed", "--no-minimize"]) == 1
    out = capsys.readouterr().out
    assert "  seed 0: FAIL  " in out and "[liveness]" in out
    assert "minimizing" not in out


def test_fig4_smoke_prints_the_ops_table(capsys):
    assert main(["fig4", "--scale", "smoke", "--no-cache"]) == 0
    out = capsys.readouterr().out
    table = out.split("Simulator work (deterministic op counters):\n")[1]
    rows = table.splitlines()
    assert rows[0].split() == ["system", "events", "cancelled", "messages"]
    for row, system in zip(rows[2:5], systems.EVALUATED):
        assert row.startswith(systems.get(system).label + " ")
    assert "[sweep] jobs=1 cache hits=0 misses=0" in out


def test_all_renders_every_table_and_figure(monkeypatch, capsys):
    """``all`` end to end, every run window shrunk well below ``smoke``
    (about 3 s instead of 40)."""
    monkeypatch.setattr(experiments, "latency_run_params", lambda scale: dict(
        duration_ms=600.0, warmup_ms=150.0, cooldown_ms=150.0,
        n_keys=2_000))
    monkeypatch.setattr(experiments, "sweep_run_params", lambda scale: dict(
        duration_ms=100.0, warmup_ms=30.0, cooldown_ms=10.0, n_keys=2_000))
    monkeypatch.setattr(experiments, "sweep_targets", lambda scale: [1000])
    assert main(["all", "--scale", "smoke", "--no-cache"]) == 0
    out = capsys.readouterr().out
    for title in ("Table 1:", "Table 2:", "Figure 2:", "Figure 3(a):",
                  "Figure 3(b):", "Figure 4:", "Figure 5:", "Figure 6:",
                  "Figure 7:", "Figure 8:"):
        assert title in out
    # Figures 5 and 6 share one sweep: three specs, run once.
    assert out.count("[sweep] jobs=1 cache hits=0 misses=0") == 4


def test_divergence_child_logs_one_run(tmp_path, capsys):
    log = tmp_path / "child.log"
    assert main(["divergence", "--child", "--out", str(log)]) == 0
    assert log.read_text().strip()
    assert main(["divergence", "--child"]) == 2
    assert "--child requires --out" in capsys.readouterr().err
