"""CLI verbs for the runtime subsystem.

Usage::

    python -m repro conform --systems all --seeds 0,1,2   # DES vs TCP
    python -m repro cluster --system carousel-fast --seed 0
    python -m repro serve --system carousel-fast --seed 0 --proc dc-oregon

``conform`` runs the in-process differential harness (every logical
process on one event loop, traffic over localhost TCP) for each
``(system, seed)`` pair and fails if any run diverges from the DES
oracle.  ``cluster`` spawns one OS process per datacenter via ``serve``
and applies the same differential evaluation.  ``serve`` is the child
entry point — it is driven over control frames and rarely run by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro import systems
from repro.runtime.conformance import ROUNDS, format_result, run_conformance


def cmd_conform(args) -> int:
    """In-process differential conformance over systems x seeds."""
    failures = 0
    for system in args.systems:
        for seed in args.seeds:
            result = run_conformance(system, seed, args.rounds)
            print(format_result(result))
            if not result.ok:
                failures += 1
    total = len(args.systems) * len(args.seeds)
    print(f"\nconform: {total - failures}/{total} runs conformant")
    return 1 if failures else 0


def cmd_cluster(args) -> int:
    """Multi-process localhost cluster + differential evaluation."""
    from repro.runtime.serve import run_cluster

    result = run_cluster(args.system, args.seed, args.rounds)
    print(format_result(result))
    return 0 if result.ok else 1


def cmd_serve(args) -> int:
    """One serve child (driven by ``repro cluster`` over control frames)."""
    from repro.runtime.serve import serve_async

    return asyncio.run(serve_async(args.system, args.seed, args.proc,
                                   host=args.host, port=args.port))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Runtime backends: serve real traffic, check "
                    "conformance against the DES oracle.")
    sub = parser.add_subparsers(dest="verb", required=True)

    conform = sub.add_parser(
        "conform", help="differential conformance (in-process TCP)")
    conform.add_argument("--systems", default="all",
                         type=systems.parse_systems,
                         help="comma-separated systems, or 'all'")
    conform.add_argument("--seeds", default="0,1,2",
                         type=systems.parse_seeds,
                         help="comma-separated seeds or lo..hi ranges")
    conform.add_argument("--rounds", type=int, default=ROUNDS,
                         help="transactions per run (default %(default)s)")
    conform.set_defaults(func=cmd_conform)

    cluster = sub.add_parser(
        "cluster", help="multi-process localhost cluster smoke")
    cluster.add_argument("--system", default="carousel-fast",
                         type=systems.canonical, choices=systems.SYSTEMS)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--rounds", type=int, default=ROUNDS)
    cluster.set_defaults(func=cmd_cluster)

    serve = sub.add_parser(
        "serve", help="one logical process of a deployment")
    serve.add_argument("--system", required=True,
                       type=systems.canonical, choices=systems.SYSTEMS)
    serve.add_argument("--seed", type=int, required=True)
    serve.add_argument("--proc", required=True,
                       help="logical process name, e.g. dc-oregon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default: ephemeral)")
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``serve``/``cluster``/``conform`` verbs."""
    if argv is None:  # pragma: no cover - module CLI
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
