"""analysis CLI tests: exit codes, JSON schema, github format, and
detlint's suppression round-trip.

These drive :func:`repro.cli.main` exactly as ``python -m repro
lint|protolint`` does, asserting the shared exit discipline: 0 clean,
1 findings, 2 usage errors.
"""

import json
import textwrap

import pytest

from repro.cli import main

DIRTY = textwrap.dedent("""
    import time

    def now():
        return time.time()
""")


@pytest.fixture
def dirty_file(tmp_path):
    """A file with one detlint finding (DL003 wall clock)."""
    target = tmp_path / "mod.py"
    target.write_text(DIRTY)
    return target


@pytest.fixture
def clean_file(tmp_path):
    target = tmp_path / "ok.py"
    target.write_text("def add(a, b):\n    return a + b\n")
    return target


# ----------------------------------------------------------------------
# Dispatch and usage errors
# ----------------------------------------------------------------------
def test_empty_argv_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_repro_cli_routes_protolint(capsys):
    assert main(["protolint", "--list-rules"]) == 0
    rules = capsys.readouterr().out.splitlines()
    assert len(rules) == 4
    assert rules[0].startswith("PL001[dead-letter]")
    assert rules[-1].startswith("PL004[missing-reply]")


def test_repro_cli_routes_lint(capsys, clean_file):
    assert main(["lint", str(clean_file)]) == 0
    assert "clean" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Exit codes
# ----------------------------------------------------------------------
def test_lint_exit_codes(clean_file, dirty_file, capsys):
    assert main(["lint", str(clean_file)]) == 0
    assert main(["lint", str(dirty_file)]) == 1
    capsys.readouterr()


def test_protolint_exit_codes_on_tree(capsys):
    assert main(["protolint"]) == 0
    assert main(["protolint", "--plant-bug", "dead-handler"]) == 1
    capsys.readouterr()


def test_protolint_invalid_plant_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["protolint", "--plant-bug", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_protolint_drifted_plant_anchor_is_exit_2(monkeypatch, capsys):
    # Exit 1 would read as "bug caught" although nothing was planted.
    from repro.core.messages import ClientHeartbeat
    from repro.core.server import CarouselServer
    monkeypatch.delitem(CarouselServer.COORDINATOR_HANDLERS,
                        ClientHeartbeat)
    assert main(["protolint", "--plant-bug", "dead-handler"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot plant dead-handler" in captured.err
    assert "no ClientHeartbeat entry" in captured.err


# ----------------------------------------------------------------------
# JSON output schema
# ----------------------------------------------------------------------
def test_lint_json_schema(dirty_file, capsys):
    assert main(["lint", "--format", "json",
                          str(dirty_file)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "detlint"
    assert payload["errors"] + payload["warnings"] == \
        len(payload["findings"])
    finding = payload["findings"][0]
    assert set(finding) == {"code", "slug", "severity", "path", "line",
                            "col", "message"}
    assert finding["code"] == "DL003"
    assert finding["path"] == str(dirty_file)
    assert isinstance(finding["line"], int)


def test_protolint_json_schema_clean_and_planted(capsys):
    assert main(["protolint", "--format", "json"]) == 0
    clean = json.loads(capsys.readouterr().out)
    assert clean == {"tool": "protolint", "findings": [],
                     "errors": 0, "warnings": 0}
    assert main(["protolint", "--format", "json",
                          "--plant-bug", "missing-reply"]) == 1
    planted = json.loads(capsys.readouterr().out)
    assert planted["errors"] >= 1
    assert any(f["code"] == "PL004" for f in planted["findings"])


# ----------------------------------------------------------------------
# GitHub workflow-annotation format
# ----------------------------------------------------------------------
def test_lint_github_format(dirty_file, capsys):
    assert main(["lint", "--format", "github",
                          str(dirty_file)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::")
    line = out.splitlines()[0]
    assert f"file={dirty_file}" in line
    assert "title=DL003[wallclock]" in line


def test_github_format_clean_prints_nothing(clean_file, capsys):
    assert main(["lint", "--format", "github",
                          str(clean_file)]) == 0
    assert capsys.readouterr().out == ""


def test_protolint_github_format_planted(capsys):
    assert main(["protolint", "--format", "github",
                          "--plant-bug", "dead-handler"]) == 1
    out = capsys.readouterr().out
    assert "::error " in out and "title=PL001[dead-letter]" in out


# ----------------------------------------------------------------------
# Suppression round-trip through the CLI
# ----------------------------------------------------------------------
def test_lint_suppression_round_trip(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent("""
        import time

        def now():
            return time.time()  # detlint: ignore[DL003]
    """))
    assert main(["lint", str(target)]) == 0
    capsys.readouterr()
    assert main(["lint", "--keep-suppressed", str(target)]) == 1
    assert "DL003" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Catalog / docs subcommands
# ----------------------------------------------------------------------
def test_catalog_prints_all_four_protocols(capsys):
    assert main(["protolint", "--catalog"]) == 0
    out = capsys.readouterr().out
    for heading in ("#### carousel", "#### layered", "#### raft",
                    "#### tapir"):
        assert heading in out


def test_check_docs_matches_and_detects_drift(tmp_path, capsys):
    assert main(["protolint", "--check-docs"]) == 0
    capsys.readouterr()
    stale = tmp_path / "STALE.md"
    stale.write_text("<!-- protolint:catalog:begin -->\nstale\n"
                     "<!-- protolint:catalog:end -->\n")
    assert main(["protolint", "--check-docs",
                          str(stale)]) == 1
    assert "stale" in capsys.readouterr().err
    missing = tmp_path / "NOMARK.md"
    missing.write_text("nothing\n")
    assert main(["protolint", "--check-docs",
                          str(missing)]) == 2
    capsys.readouterr()
    assert main(["protolint", "--check-docs",
                          str(tmp_path / "absent.md")]) == 2
    capsys.readouterr()


def test_write_docs_regenerates_stale_section(tmp_path, capsys):
    stale = tmp_path / "DOC.md"
    stale.write_text("head\n<!-- protolint:catalog:begin -->\nstale\n"
                     "<!-- protolint:catalog:end -->\ntail\n")
    assert main(["protolint", "--write-docs", str(stale)]) == 0
    capsys.readouterr()
    assert main(["protolint", "--check-docs", str(stale)]) == 0
    text = stale.read_text()
    assert text.startswith("head\n") and text.endswith("tail\n")
    capsys.readouterr()
