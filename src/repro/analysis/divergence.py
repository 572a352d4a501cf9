"""Dual-run divergence bisector: find the first nondeterministic event.

"Seed 42 gave a different p99 this run" is the worst kind of bug report:
within one process every run looks deterministic, because hash-order bugs
only show across *process boundaries* (``PYTHONHASHSEED`` re-randomizes
``str`` hashing per process).  This module turns that afternoon of printf
into one command:

1. Run the same scenario twice, in two fresh child processes, with two
   different ``PYTHONHASHSEED`` values but the same kernel seed.
2. Each child records a compact :mod:`~repro.analysis.digest` stream of
   kernel events and message sends.
3. Diff the streams and report the **first** diverging record, with the
   trailing common records and the divergent message's causal chain
   (reconstructed from the :mod:`repro.trace` parent links carried in the
   digest).

``--plant-set-bug`` installs a deliberately buggy coordinator writeback
loop — the exact set-iteration bug class PR 1 fixed by hand — so the
bisector's localization can be demonstrated (and is e2e-tested) against a
known ground truth.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.digest import DigestRecorder, parse_send_fields

#: Child run timeout (real seconds); trace scenarios finish in ~1 s.
_CHILD_TIMEOUT_S = 300


@dataclass
class DivergenceReport:
    """Outcome of one dual-run comparison."""

    system: str
    seed: int
    n_txns: int
    hash_seeds: Tuple[int, int]
    n_records: Tuple[int, int]
    diverged: bool
    #: Index of the first differing record (``None`` when identical).
    first_index: Optional[int] = None
    record_a: Optional[str] = None
    record_b: Optional[str] = None
    #: Trailing common records before the divergence, oldest first.
    context: List[str] = field(default_factory=list)
    #: Causal message chain of the divergent record in run A, root first.
    causal_chain: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable report: verdict, first divergence, causal chain."""
        head = (f"divergence check: system={self.system} seed={self.seed} "
                f"txns={self.n_txns} PYTHONHASHSEED="
                f"{self.hash_seeds[0]} vs {self.hash_seeds[1]}\n"
                f"  run A: {self.n_records[0]} digest records; "
                f"run B: {self.n_records[1]}")
        if not self.diverged:
            return head + "\n  no divergence: digest streams identical"
        lines = [head, f"  DIVERGENCE at record {self.first_index}:",
                 f"    A: {self.record_a}",
                 f"    B: {self.record_b}"]
        if self.context:
            lines.append(f"  last {len(self.context)} common records:")
            lines.extend(f"    {rec}" for rec in self.context)
        if self.causal_chain:
            lines.append("  causal chain (run A, root first):")
            lines.extend(f"    {rec}" for rec in self.causal_chain)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Child side: one scenario run, digest written to a file
# ----------------------------------------------------------------------
def run_child(system: str, seed: int, n_txns: int, out_path: str,
              plant_set_bug: bool = False, wide: bool = False) -> None:
    """Run one digest-recorded scenario in *this* process.

    Invoked by the parent through ``python -m repro divergence --child``
    so that each run gets a fresh interpreter (and hash seed).
    """
    if plant_set_bug:
        _plant_set_iteration_bug()
    digest = DigestRecorder()
    if wide or plant_set_bug:
        _run_wide_scenario(system, seed, n_txns, digest)
    else:
        from repro.trace.harness import run_traced
        run_traced(system, seed=seed, n_txns=n_txns, digest_sink=digest)
    digest.write(out_path)


def _run_wide_scenario(system: str, seed: int, n_txns: int,
                       digest: DigestRecorder) -> None:
    """A transaction touching *every* partition (widest possible fan-out,
    so ordering bugs in coordinator loops have the most room to show)."""
    from repro import systems
    from repro.bench.cluster import DeploymentSpec
    from repro.trace.tracer import Tracer
    from repro.txn import TransactionSpec

    cluster = systems.build(
        system, DeploymentSpec(seed=seed, jitter_fraction=0.0))
    cluster.kernel.digest = digest
    tracer = Tracer(cluster.kernel)
    cluster.run(500)  # settle bootstrap

    keys: List[str] = []
    covered: set = set()  # membership only; iteration never escapes
    for i in range(5000):
        key = f"wide{i}"
        pid = cluster.ring.partition_for(key)
        if pid not in covered:
            covered.add(pid)
            keys.append(key)
        if len(covered) == len(cluster.partition_ids):
            break
    cluster.populate({k: "v0" for k in keys})

    client = cluster.client(cluster.client_dcs()[0])
    for i in range(n_txns):
        spec = TransactionSpec(
            read_keys=tuple(keys), write_keys=tuple(keys),
            compute_writes=lambda r: {k: f"w{i}" for k in r},
            txn_type="wide")
        done: List[Any] = []
        client.submit(spec, done.append)
        deadline = cluster.kernel.now + 30_000
        while not done and cluster.kernel.now < deadline:
            cluster.run(50)
        if not done:
            raise RuntimeError(f"wide transaction {i + 1} stalled")
    cluster.run(2_000)  # drain writebacks
    tracer.detach()


def _plant_set_iteration_bug() -> None:
    """Reintroduce PR 1's coordinator writeback bug: fan out over the raw
    ``set`` instead of ``sorted(...)``.  Fixture for the bisector's e2e
    test and the ``--plant-set-bug`` demo; never active otherwise."""
    from repro.core import coordinator as coord_mod
    from repro.core.coordinator import COMMIT, CoordinatorComponent
    from repro.core.messages import Writeback

    def buggy_send_writebacks(self, state):
        outstanding = set(state.participants) - state.writeback_acks
        if not outstanding:
            self._finish(state)
            return
        # The unsorted fan-out below is the planted divergence.
        # detlint: ignore[set-iter-send]
        for pid in outstanding:
            sets = state.participants[pid]
            writes = {k: state.writes[k] for k in sets.write_keys
                      if k in state.writes} \
                if state.decision == COMMIT else {}
            leader = self.server.directory.lookup(pid).leader
            self._send(leader, Writeback(
                tid=state.tid, partition_id=pid,
                decision=state.decision, writes=writes))
        self._cancel_timer(state, "writeback_timer")
        state.writeback_timer = self.server.set_timer(
            self.config.retry_policy.base_ms, self._retry_writebacks, state)

    coord_mod._ORIGINAL_SEND_WRITEBACKS = \
        CoordinatorComponent._send_writebacks
    CoordinatorComponent._send_writebacks = buggy_send_writebacks


# ----------------------------------------------------------------------
# Parent side: spawn two children, diff their digests
# ----------------------------------------------------------------------
def _child_env(hash_seed: int) -> Dict[str, str]:
    import repro
    src_dir = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(src_dir) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_child(system: str, seed: int, n_txns: int, out_path: str,
                 hash_seed: int, plant_set_bug: bool,
                 wide: bool) -> None:
    cmd = [sys.executable, "-m", "repro", "divergence", "--child",
           "--system", system, "--seed", str(seed),
           "--txns", str(n_txns), "--digest-out", out_path]
    if plant_set_bug:
        cmd.append("--plant-set-bug")
    if wide:
        cmd.append("--wide")
    proc = subprocess.run(cmd, env=_child_env(hash_seed),
                          capture_output=True, text=True,
                          timeout=_CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"divergence child (PYTHONHASHSEED={hash_seed}) failed with "
            f"code {proc.returncode}:\n{proc.stderr[-2000:]}")


def _causal_chain(records: Sequence[str], index: int,
                  max_depth: int = 10) -> List[str]:
    """The parent-link chain of the divergent record (or of the nearest
    preceding send), reconstructed from digest ``msg=``/``parent=``
    fields.  Root first."""
    by_msg_id: Dict[str, str] = {}
    for rec in records[:index + 1]:
        fields = parse_send_fields(rec)
        msg_id = fields.get("msg")
        if msg_id and msg_id != "None":
            by_msg_id[msg_id] = rec
    start = None
    for i in range(min(index, len(records) - 1), -1, -1):
        if records[i].startswith("S "):
            start = records[i]
            break
    if start is None:
        return []
    chain = [start]
    fields = parse_send_fields(start)
    parent = fields.get("parent")
    while parent and parent != "None" and len(chain) < max_depth:
        rec = by_msg_id.get(parent)
        if rec is None:
            break
        chain.append(rec)
        parent = parse_send_fields(rec).get("parent")
    chain.reverse()
    return chain


def compare_digests(a: Sequence[str], b: Sequence[str],
                    context: int = 6) -> Tuple[Optional[int],
                                               List[str]]:
    """First index where ``a`` and ``b`` differ (``None`` if identical),
    plus up to ``context`` trailing common records before it."""
    shared = min(len(a), len(b))
    first: Optional[int] = None
    for i in range(shared):
        if a[i] != b[i]:
            first = i
            break
    if first is None:
        if len(a) == len(b):
            return None, []
        first = shared
    return first, list(a[max(0, first - context):first])


def run_divergence(system: str = "basic", seed: int = 42,
                   n_txns: int = 2,
                   hash_seeds: Tuple[int, int] = (1, 2),
                   plant_set_bug: bool = False,
                   wide: Optional[bool] = None,
                   context: int = 6) -> DivergenceReport:
    """Run the scenario twice under different ``PYTHONHASHSEED`` values
    and localize the first divergent digest record (if any)."""
    if wide is None:
        wide = plant_set_bug
    with tempfile.TemporaryDirectory(prefix="repro-divergence-") as tmp:
        paths = []
        for hs in hash_seeds:
            out = str(Path(tmp) / f"digest-{hs}.txt")
            _spawn_child(system, seed, n_txns, out, hs,
                         plant_set_bug, wide)
            paths.append(out)
        run_a = DigestRecorder.read(paths[0])
        run_b = DigestRecorder.read(paths[1])

    first, ctx = compare_digests(run_a, run_b, context=context)
    report = DivergenceReport(
        system=system, seed=seed, n_txns=n_txns,
        hash_seeds=(hash_seeds[0], hash_seeds[1]),
        n_records=(len(run_a), len(run_b)),
        diverged=first is not None, first_index=first, context=ctx)
    if first is not None:
        report.record_a = run_a[first] if first < len(run_a) else \
            "<stream ended>"
        report.record_b = run_b[first] if first < len(run_b) else \
            "<stream ended>"
        report.causal_chain = _causal_chain(run_a, first)
    return report
