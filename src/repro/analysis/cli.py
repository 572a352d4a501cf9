"""CLI for the analyzers: ``repro lint`` / ``repro protolint`` /
``repro divergence``.

Dispatched from :mod:`repro.cli` when the first argument is ``lint``,
``protolint``, or ``divergence``::

    python -m repro lint src/                 # CI gate: exit 1 on findings
    python -m repro lint --format github      # workflow-annotation lines
    python -m repro protolint                 # protocol-conformance checks
    python -m repro protolint --catalog       # message-catalog report
    python -m repro protolint --plant-bug dead-handler  # self-check
    python -m repro divergence --system basic # dual-run determinism check
    python -m repro divergence --plant-set-bug  # demo: localize a known bug

Both linters exit 0 when clean and 1 on any finding detlint does not
suppress (warnings included — suppressions, not severities, are the
exemption mechanism); usage errors, and a ``--plant-bug`` that cannot be
applied, exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.findings import (Finding, format_findings,
                                     format_github, sort_findings)

#: Docs file carrying the generated message-catalog section.
PROTOCOL_DOC = "PROTOCOL.md"


def _print_rules(rules) -> None:
    for rule in rules.values():
        print(f"{rule.code}[{rule.slug}] ({rule.severity}): "
              f"{rule.summary}")


def _emit(findings: List[Finding], fmt: str, tool: str,
          clean_message: str) -> int:
    """Render findings in the chosen format; shared lint/protolint exit
    discipline (0 clean / 1 findings)."""
    if fmt == "json":
        ordered = sort_findings(findings)
        errors = sum(1 for f in ordered if f.rule.severity == "error")
        print(json.dumps({
            "tool": tool,
            "findings": [f.to_dict() for f in ordered],
            "errors": errors,
            "warnings": len(ordered) - errors,
        }, indent=2))
    elif fmt == "github":
        rendered = format_github(findings)
        if rendered:
            print(rendered)
    else:
        print(format_findings(findings, clean_message=clean_message))
    return 1 if findings else 0


def _linter_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """The options both linters share."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--format", choices=["text", "json", "github"],
                        default="text", dest="fmt",
                        help="output format (github = workflow "
                             "annotations)")
    return parser


def _build_lint_parser() -> argparse.ArgumentParser:
    parser = _linter_parser(
        "python -m repro lint", "AST determinism linter (detlint).  Exits "
        "nonzero on any non-suppressed finding.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--keep-suppressed", action="store_true",
                        help="also report findings silenced by "
                             "'# detlint: ignore' annotations")
    return parser


def cmd_lint(argv: List[str]) -> int:
    from repro.analysis.detlint import RULES, lint_paths

    args = _build_lint_parser().parse_args(argv)
    if args.list_rules:
        _print_rules(RULES)
        return 0
    findings = lint_paths(args.paths or ["src"],
                          keep_suppressed=args.keep_suppressed)
    return _emit(findings, args.fmt, "detlint",
                 clean_message="clean: no determinism findings")


def _build_protolint_parser() -> argparse.ArgumentParser:
    parser = _linter_parser(
        "python -m repro protolint", "Protocol-conformance analyzer: the "
        "declared handler tables and contracts, checked against each other "
        "and against a traced DES corpus.  Exits nonzero on any finding.")
    parser.add_argument("--catalog", action="store_true",
                        help="print the generated message catalog "
                             "(observed sends, causes and per-transaction "
                             "counts) and exit")
    parser.add_argument("--check-docs", nargs="?", const=PROTOCOL_DOC,
                        default=None, metavar="PATH",
                        help="verify the catalog section in PATH "
                             f"(default {PROTOCOL_DOC}) matches the "
                             "corpus byte-for-byte; exit 1 on drift")
    parser.add_argument("--write-docs", nargs="?", const=PROTOCOL_DOC,
                        default=None, metavar="PATH",
                        help="regenerate the catalog section in PATH "
                             f"(default {PROTOCOL_DOC}) in place")
    parser.add_argument("--plant-bug", choices=["dead-handler",
                                                "missing-reply"],
                        default=None,
                        help="self-check: patch a known protocol bug into "
                             "the tables or handlers and lint the result "
                             "(exit 1 proves the rules fire)")
    return parser


def cmd_protolint(argv: List[str]) -> int:
    from repro.analysis import protolint

    args = _build_protolint_parser().parse_args(argv)
    if args.list_rules:
        _print_rules(protolint.RULES)
        return 0

    if args.catalog or args.check_docs or args.write_docs:
        catalog = protolint.render_catalog(protolint.corpus())
        if args.catalog:
            print(catalog, end="")
            return 0
        doc = Path(args.check_docs or args.write_docs)
        text = doc.read_text(encoding="utf-8") if doc.is_file() else ""
        current = protolint.extract_doc_catalog(text)
        if current is None:
            print(f"{doc}: no such file, or no protolint catalog markers",
                  file=sys.stderr)
            return 2
        if args.write_docs:
            doc.write_text(protolint.embed_catalog(text, catalog),
                           encoding="utf-8")
            print(f"[updated catalog section in {doc}]")
            return 0
        if current != catalog:
            print(f"{doc} catalog section is stale; regenerate with "
                  f"`python -m repro protolint --write-docs`",
                  file=sys.stderr)
            return 1
        print(f"{doc} catalog section matches the corpus")
        return 0

    try:
        findings = protolint.lint(args.plant_bug)
    except protolint.PlantError as exc:
        # Not exit 1: that would pass a self-check whose bug never landed.
        print(f"cannot plant {args.plant_bug}: {exc}", file=sys.stderr)
        return 2
    return _emit(findings, args.fmt, "protolint",
                 clean_message="clean: no protocol-conformance findings")


def _build_divergence_parser() -> argparse.ArgumentParser:
    from repro import systems

    parser = argparse.ArgumentParser(
        prog="python -m repro divergence",
        description="Run the same scenario twice under different "
                    "PYTHONHASHSEED values and localize the first "
                    "divergent kernel event.")
    parser.add_argument("--system", type=systems.canonical,
                        choices=systems.SYSTEMS, default="carousel-basic")
    parser.add_argument("--seed", type=int, default=42,
                        help="kernel seed shared by both runs")
    parser.add_argument("--txns", type=int, default=2, metavar="N",
                        help="transactions per run (default 2)")
    parser.add_argument("--hash-seeds", type=int, nargs=2,
                        default=[1, 2], metavar=("A", "B"),
                        help="PYTHONHASHSEED values for the two runs")
    parser.add_argument("--context", type=int, default=6,
                        help="common records to show before a divergence")
    parser.add_argument("--wide", action="store_true",
                        help="use the all-partitions fan-out scenario")
    parser.add_argument("--plant-set-bug", action="store_true",
                        help="reintroduce PR 1's coordinator set-iteration "
                             "bug to demonstrate localization")
    # Internal: run one digest-recorded scenario in this process.
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--digest-out", default=None,
                        help=argparse.SUPPRESS)
    return parser


def cmd_divergence(argv: List[str]) -> int:
    from repro.analysis.divergence import run_child, run_divergence

    args = _build_divergence_parser().parse_args(argv)
    if args.child:
        if args.digest_out is None:
            print("--child requires --digest-out", file=sys.stderr)
            return 2
        run_child(args.system, args.seed, args.txns, args.digest_out,
                  plant_set_bug=args.plant_set_bug, wide=args.wide)
        return 0
    report = run_divergence(
        args.system, seed=args.seed, n_txns=args.txns,
        hash_seeds=(args.hash_seeds[0], args.hash_seeds[1]),
        plant_set_bug=args.plant_set_bug,
        wide=args.wide or None, context=args.context)
    print(report.render())
    return 1 if report.diverged else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``lint``/``protolint``/``divergence``
    subcommands."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro {lint,protolint,divergence} ...",
              file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "lint":
        return cmd_lint(rest)
    if command == "protolint":
        return cmd_protolint(rest)
    if command == "divergence":
        return cmd_divergence(rest)
    print(f"unknown analysis command {command!r}", file=sys.stderr)
    return 2
