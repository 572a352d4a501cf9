"""Architecture gates: :mod:`repro.systems` is the only module that knows
the systems by name, a state machine changes state only through its
checked ``_goto``, and :mod:`repro.cli` is the only module that builds a
command-line parser.

An AST walk over ``src/repro`` (reported through the analyzers' shared
:mod:`repro.analysis.findings` model) fails when any other module
compares a value against a system-name string literal or keeps its own
table of system names — the per-harness dispatchers and ``SYSTEMS``
tuples this package used to have five of — and when any code outside a
``_goto`` or an ``__init__`` stores a Raft role or a client phase,
which would bypass the ``TRANSITIONS`` check in
:func:`repro.sim.node.goto`, and when any module but ``repro/cli.py``
imports ``argparse`` — the per-package CLIs this package used to have
four of.
"""

import ast
from pathlib import Path

import repro
from repro import systems
from repro.analysis.findings import (SEVERITY_ERROR, Finding, Rule,
                                     format_findings)

SRC = Path(repro.__file__).resolve().parent
NAMES = frozenset(systems.SYSTEMS) | frozenset(systems.ALIASES)

NAME_COMPARE = Rule(
    "AR001", "system-name-compare", SEVERITY_ERROR,
    "comparison against a system-name literal outside repro.systems")
OWN_TABLE = Rule(
    "AR002", "own-systems-table", SEVERITY_ERROR,
    "a second table of system names outside repro.systems")
STATE_STORE = Rule(
    "AR003", "direct-state-store", SEVERITY_ERROR,
    "a declared state attribute stored outside _goto and __init__")
SECOND_PARSER = Rule(
    "AR004", "argparse-outside-cli", SEVERITY_ERROR,
    "an argparse import outside repro.cli")

#: Attributes holding a declared machine's state: ``RaftMember.state``
#: and ``ClientTxn.phase``.
STATE_ATTRS = frozenset({"state", "phase"})
#: Functions that may store them: the checked helper, and the initial
#: value.
STATE_WRITERS = frozenset({"_goto", "__init__"})


def _names_in(node):
    """System names appearing as string literals directly in ``node``
    (a constant, or a tuple/list/set display of constants)."""
    elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) \
        else [node]
    return [e.value for e in elts
            if isinstance(e, ast.Constant) and e.value in NAMES]


def _lint(path, source):
    findings = []

    def flag(rule, node, message):
        findings.append(Finding(rule, str(path), node.lineno,
                                node.col_offset, message))

    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.Compare):
            for operand in [node.left] + node.comparators:
                for name in _names_in(operand):
                    flag(NAME_COMPARE, node,
                         f"compares against {name!r}; ask the "
                         "repro.systems row instead")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            value = node.value
            if any(isinstance(t, ast.Name) and t.id.endswith("SYSTEMS")
                   for t in targets):
                flag(OWN_TABLE, node, "defines its own SYSTEMS")
            elif value is not None and isinstance(
                    value, (ast.Tuple, ast.List, ast.Set)) and \
                    len(_names_in(value)) > 1:
                flag(OWN_TABLE, node,
                     f"lists system names {_names_in(value)}")
    return findings


def test_only_the_table_knows_system_names():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        if path != SRC / "systems.py":
            findings += _lint(path.relative_to(SRC.parent),
                              path.read_text(encoding="utf-8"))
    assert not findings, "\n" + format_findings(findings)


def test_the_gate_catches_what_it_replaced():
    """Self-check on the shapes the deleted dispatchers had."""
    planted = (
        'SYSTEMS = ("carousel-basic", "tapir")\n'
        'def build(system):\n'
        '    if system == "tapir":\n'
        '        return 1\n'
        '    if system in ("carousel-basic", "carousel-fast"):\n'
        '        return 2\n'
        'ORDER = ["basic", "fast"]\n')
    rules = [f.rule.slug for f in _lint("planted.py", planted)]
    assert rules.count("system-name-compare") == 3
    assert rules.count("own-systems-table") == 2


def _state_stores(path, node, func=None):
    """AR003 findings under ``node``, whose enclosing function is
    ``func``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _state_stores(path, child, child.name)
            continue
        if isinstance(child, ast.Attribute) and child.attr in STATE_ATTRS \
                and isinstance(child.ctx, ast.Store) \
                and func not in STATE_WRITERS:
            yield Finding(STATE_STORE, str(path), child.lineno,
                          child.col_offset,
                          f"stores .{child.attr} in {func or 'module'}; "
                          "call the machine's _goto")
        yield from _state_stores(path, child, func)


def test_state_changes_go_through_goto():
    findings = [f for path in sorted(SRC.rglob("*.py"))
                for f in _state_stores(
                    path.relative_to(SRC.parent),
                    ast.parse(path.read_text(encoding="utf-8")))]
    assert not findings, "\n" + format_findings(findings)


def test_the_state_gate_catches_a_direct_store():
    """Self-check on the writes ``_goto`` replaced."""
    planted = (
        'class Member:\n'
        '    def __init__(self):\n'
        '        self.state = "follower"\n'
        '    def _goto(self, state):\n'
        '        self.state = state\n'
        '    def _become_leader(self):\n'
        '        self.state = "leader"\n'
        'def _complete(txn):\n'
        '    txn.phase = "done"\n'
        '    txn.phase_span = None\n')
    found = list(_state_stores("planted.py", ast.parse(planted)))
    assert [(f.rule.slug, f.line) for f in found] == [
        ("direct-state-store", 7), ("direct-state-store", 9)]


def _argparse_imports(path, source):
    """AR004 findings: every ``argparse`` import in ``source``."""
    return sorted(
        (Finding(SECOND_PARSER, str(path), node.lineno, node.col_offset,
                 "imports argparse; add a subparser to repro.cli")
         for node in ast.walk(ast.parse(source, str(path)))
         if isinstance(node, ast.Import)
         and any(alias.name == "argparse" for alias in node.names)
         or isinstance(node, ast.ImportFrom) and node.module == "argparse"),
        key=lambda finding: finding.line)


def test_only_the_cli_builds_a_parser():
    findings = [f for path in sorted(SRC.rglob("*.py"))
                if path != SRC / "cli.py"
                for f in _argparse_imports(
                    path.relative_to(SRC.parent),
                    path.read_text(encoding="utf-8"))]
    assert not findings, "\n" + format_findings(findings)


def test_the_parser_gate_catches_a_second_parser():
    """Self-check on the shapes the deleted per-package CLIs had."""
    planted = (
        'import argparse\n'
        'from argparse import ArgumentParser\n'
        'def main(argv):\n'
        '    import argparse as ap\n'
        '    return ap.ArgumentParser().parse_args(argv)\n')
    found = _argparse_imports("planted.py", planted)
    assert [(f.rule.slug, f.line) for f in found] == [
        ("argparse-outside-cli", 1), ("argparse-outside-cli", 2),
        ("argparse-outside-cli", 4)]
