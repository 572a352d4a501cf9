"""Determinism sanitizer: static analysis plus a runtime bisector.

The whole reproduction rests on the DES being bit-for-bit deterministic
under a fixed seed (see the kernel docstring's rules: all randomness from
``kernel.random``, events ordered by ``(time, seq)``).  This package turns
those rules from review guidance into tooling:

* :mod:`repro.analysis.detlint` — an AST linter whose rules catch the
  nondeterminism bug classes this codebase has actually had (hash-ordered
  ``set`` iteration in send loops, wall-clock reads, stray RNGs, ...).
* :mod:`repro.analysis.divergence` — a dual-process harness that runs the
  same traced scenario twice under different ``PYTHONHASHSEED`` values,
  diffs the tracers' send logs (:mod:`repro.analysis.digest`), and
  localizes the *first* diverging send with its causal context.
* :mod:`repro.analysis.protolint` — protocol conformance: the declared
  ``*HANDLERS`` tables, ``Message`` subclasses and per-protocol contracts
  checked against each other, then against a traced DES corpus of the
  existing conform and chaos scenarios (unexercised types, requests whose
  deliveries never produced a declared reply).  State machines are
  checked at run time instead, against the ``TRANSITIONS`` table each
  declares beside its code (:func:`repro.sim.node.goto`).

They are exposed on the command line as ``python -m repro lint``,
``python -m repro protolint``, and ``python -m repro divergence``; CI
gates on clean lint + protolint runs plus planted-bug self-checks.
"""

from repro.analysis.detlint import RULES, Rule, lint_paths, lint_source
from repro.analysis.divergence import DivergenceReport, run_divergence
from repro.analysis.findings import (Finding, format_findings,
                                     format_github)
from repro.analysis.protolint import (MessageContract, PROTOCOLS,
                                      render_catalog)
from repro.analysis.protolint import lint as lint_protocols

__all__ = [
    "DivergenceReport",
    "Finding",
    "MessageContract",
    "PROTOCOLS",
    "RULES",
    "Rule",
    "format_findings",
    "format_github",
    "lint_paths",
    "lint_source",
    "lint_protocols",
    "render_catalog",
    "run_divergence",
]
