"""Multi-process localhost deployments: ``repro serve`` / ``repro cluster``.

``serve`` runs **one** logical process of a deployment — ``dc-<name>``
hosting that datacenter's servers — in its own OS process: it binds a
TCP listener, prints ``READY <proc> <port>`` on stdout, builds its share
of the cluster, and then follows the driver's control frames
(:mod:`repro.runtime.harness`): ``CtlPeers`` installs the address table,
``CtlSnapshotRequest`` returns the replicated state, ``CtlShutdown``
exits.

``cluster`` is the driver: it spawns one ``serve`` child per datacenter,
collects their ports from stdout, distributes the address table, runs
the seeded sequential workload from local clients, gathers snapshots —
and then replays the identical plan through the DES backend and applies
the full differential evaluation (:mod:`repro.runtime.conformance`), so
the multi-process smoke is held to the same oracle as the in-process
harness.
"""

# Spawning children and speaking TCP is this module's purpose; detlint's
# wall-clock allowlist covers `runtime/` (see analysis/detlint.py).

from __future__ import annotations

import asyncio
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.runtime.aio import AioRuntime
from repro.runtime.conformance import (
    CONFORM_TIMING,
    ConformanceOptions,
    ConformanceResult,
    build_conformance_plan,
    drive_plan_async,
    evaluate,
    run_des_side,
)
from repro.runtime.harness import (
    CtlPeers,
    CtlShutdown,
    CtlSnapshotRequest,
    CtlSnapshotReply,
    merge_snapshots,
    snapshot_cluster,
)
from repro.sim.topology import ec2_five_regions

#: Wall-clock bound on a child reaching READY / answering a snapshot.
CHILD_TIMEOUT_S = 30.0


async def serve_async(system: str, seed: int, proc: str,
                      host: str = "127.0.0.1", port: int = 0) -> int:
    """Run one logical process until the driver says shutdown."""
    loop = asyncio.get_running_loop()
    topology = ec2_five_regions()
    runtime = AioRuntime(proc, seed, topology, loop, host=host)
    if port:
        runtime.network.port = port
    shutdown = asyncio.Event()
    holder: Dict[str, Any] = {"cluster": None}

    def _on_control(ctl: Any) -> None:
        if isinstance(ctl, CtlPeers):
            runtime.network.set_addresses(
                {p: tuple(addr) for p, addr in ctl.addresses.items()})
        elif isinstance(ctl, CtlSnapshotRequest):
            snapshot = snapshot_cluster(system, holder["cluster"])
            runtime.network.send_control(
                ctl.reply_to, CtlSnapshotReply(proc=proc, snapshot=snapshot))
        elif isinstance(ctl, CtlShutdown):
            shutdown.set()

    runtime.network.control_handler = _on_control
    bound = await runtime.start()
    holder["cluster"] = systems.build(
        system, DeploymentSpec(seed=seed, topology=topology),
        CONFORM_TIMING, runtime)
    print(f"READY {proc} {bound}", flush=True)
    await shutdown.wait()
    await runtime.close()
    return 0


async def _spawn_server(system: str, seed: int, proc: str
                        ) -> Tuple[asyncio.subprocess.Process, int]:
    """Start one ``repro serve`` child and wait for its READY line."""
    child = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro", "serve",
        "--system", system, "--seed", str(seed), "--proc", proc,
        stdout=asyncio.subprocess.PIPE, env=dict(os.environ))
    while True:
        line = await asyncio.wait_for(child.stdout.readline(),
                                      timeout=CHILD_TIMEOUT_S)
        if not line:
            raise RuntimeError(f"serve child {proc} exited before READY")
        text = line.decode("utf-8", "replace").strip()
        if text.startswith("READY "):
            __, got_proc, got_port = text.split()
            if got_proc != proc:  # pragma: no cover - defensive
                raise RuntimeError(f"child announced {got_proc!r}, "
                                   f"expected {proc!r}")
            return child, int(got_port)


async def cluster_async(system: str, seed: int,
                        opts: Optional[ConformanceOptions] = None,
                        differential: bool = True
                        ) -> ConformanceResult:
    """Drive a multi-process localhost cluster through the seeded plan.

    With ``differential`` (the default) the identical plan is also run
    through the DES backend and the full conformance evaluation applies;
    without it, only the asyncio-side liveness/oracle checks run (the
    DES fields of the result stay empty).
    """
    opts = opts or ConformanceOptions()
    loop = asyncio.get_running_loop()
    topology = ec2_five_regions()
    keys = [f"wk{i}" for i in range(opts.n_keys)]
    plan = build_conformance_plan(seed, opts,
                                  len(topology.datacenters), keys)

    runtime = AioRuntime("driver", seed, topology, loop)
    procs = [f"dc-{dc}" for dc in topology.datacenters]
    snapshots: Dict[str, dict] = {}
    snapshots_done = asyncio.Event()

    def _on_control(ctl: Any) -> None:
        if isinstance(ctl, CtlSnapshotReply):
            snapshots[ctl.proc] = ctl.snapshot
            if len(snapshots) == len(procs):
                snapshots_done.set()

    runtime.network.control_handler = _on_control
    port = await runtime.start()
    children: List[asyncio.subprocess.Process] = []
    try:
        table: Dict[str, Tuple[str, int]] = {"driver": ("127.0.0.1", port)}
        for proc in procs:
            child, child_port = await _spawn_server(system, seed, proc)
            children.append(child)
            table[proc] = ("127.0.0.1", child_port)
        runtime.network.set_addresses(table)
        for proc in procs:
            runtime.network.send_control(proc, CtlPeers(addresses=table))

        driver = systems.build(
            system, DeploymentSpec(seed=seed, topology=topology),
            CONFORM_TIMING, runtime)
        await asyncio.sleep(opts.settle_s)
        results, violations = await drive_plan_async(driver, plan, opts)
        await asyncio.sleep(opts.drain_s)

        for proc in procs:
            runtime.network.send_control(proc, CtlSnapshotRequest())
        await asyncio.wait_for(snapshots_done.wait(),
                               timeout=CHILD_TIMEOUT_S)
        merged = merge_snapshots(
            [snapshot_cluster(system, driver)]
            + [snapshots[proc] for proc in procs])

        for proc in procs:
            runtime.network.send_control(proc, CtlShutdown())
        for child in children:
            await asyncio.wait_for(child.wait(), timeout=CHILD_TIMEOUT_S)
        children = []

        if differential:
            des_cluster, des_results, des_snapshot, des_violations = \
                run_des_side(system, seed, opts, plan)
            return evaluate(system, seed, plan, keys,
                            des_cluster, des_results, des_snapshot,
                            driver, results, merged,
                            des_violations + violations)
        result = ConformanceResult(
            system=system, seed=seed, rounds=len(plan),
            committed=sum(1 for _, r in results if r.committed),
            aborted=sum(1 for _, r in results if not r.committed),
            counts_aio=dict(merged["sent_by_type"]),
            violations=violations)
        return result
    finally:
        for child in children:  # only on failure paths
            try:
                child.kill()
            except ProcessLookupError:  # pragma: no cover
                pass
        await runtime.close()


def run_cluster(system: str, seed: int,
                opts: Optional[ConformanceOptions] = None,
                differential: bool = True) -> ConformanceResult:
    """Synchronous wrapper around :func:`cluster_async`."""
    return asyncio.run(cluster_async(system, seed, opts=opts,
                                     differential=differential))
