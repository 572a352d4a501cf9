"""Multi-process localhost deployments: ``repro serve`` / ``repro cluster``.

``serve`` runs **one** logical process of a deployment — ``dc-<name>``
hosting that datacenter's servers — in its own OS process: it binds a
TCP listener, prints ``READY <proc> <port>`` on stdout, builds its share
of the cluster, and then follows the driver's control frames
(:mod:`repro.runtime.harness`): ``CtlPeers`` installs the address table,
``CtlSnapshotRequest`` returns the replicated state, ``CtlShutdown``
exits.

``cluster`` is the driver: it spawns one ``serve`` child per datacenter,
collects their ports from stdout, distributes the address table, and
runs the conformance scenario through :func:`repro.scenario.run_async`
— the same driver and judge as every other run — with its clients local
and the children's snapshots gathered over control frames.  It then runs
the identical scenario on the DES and compares the two runs
(:mod:`repro.runtime.conformance`), so the multi-process smoke is held to
the same oracle as the in-process harness.
"""

# Spawning children and speaking TCP is this module's purpose; detlint's
# wall-clock allowlist covers `runtime/` (see analysis/detlint.py).

from __future__ import annotations

import asyncio
import os
import sys
from typing import Any, Dict, List, Tuple

from repro import systems
from repro.runtime.aio import DRIVER_PROC, AioRuntime, proc_for
from repro.runtime.conformance import (
    ROUNDS,
    ConformanceResult,
    compare,
    conform_scenario,
)
from repro.runtime.harness import (
    CtlPeers,
    CtlShutdown,
    CtlSnapshotRequest,
    CtlSnapshotReply,
    snapshot_cluster,
)
from repro.scenario import AIO, DES, run, run_async

#: Wall-clock bound on a child reaching READY / answering a snapshot.
CHILD_TIMEOUT_S = 30.0


async def serve_async(system: str, seed: int, proc: str,
                      host: str = "127.0.0.1", port: int = 0) -> int:
    """Run one logical process of the conformance scenario's deployment
    until the driver says shutdown."""
    scenario = conform_scenario(system, seed, runtime=AIO)
    loop = asyncio.get_running_loop()
    runtime = AioRuntime(proc, seed, scenario.deployment.topology, loop,
                         host=host)
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
    holder["cluster"] = systems.build(system, scenario.deployment,
                                      scenario.timing, runtime)
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


async def cluster_async(system: str, seed: int, rounds: int = ROUNDS
                        ) -> ConformanceResult:
    """Drive a multi-process localhost cluster through the seeded
    conformance scenario, then run the same scenario on the DES and
    compare the two runs."""
    scenario = conform_scenario(system, seed, rounds, AIO)
    loop = asyncio.get_running_loop()
    topology = scenario.deployment.topology
    runtime = AioRuntime(DRIVER_PROC, seed, topology, loop)
    procs = [proc_for("server", dc) for dc in topology.datacenters]
    snapshots: Dict[str, dict] = {}
    snapshots_done = asyncio.Event()

    def _on_control(ctl: Any) -> None:
        if isinstance(ctl, CtlSnapshotReply):
            snapshots[ctl.proc] = ctl.snapshot
            if len(snapshots) == len(procs):
                snapshots_done.set()

    async def gather() -> List[dict]:
        for proc in procs:
            runtime.network.send_control(proc, CtlSnapshotRequest())
        await asyncio.wait_for(snapshots_done.wait(),
                               timeout=CHILD_TIMEOUT_S)
        return [snapshots[proc] for proc in procs]

    runtime.network.control_handler = _on_control
    port = await runtime.start()
    children: List[asyncio.subprocess.Process] = []
    try:
        table: Dict[str, Tuple[str, int]] = {
            DRIVER_PROC: ("127.0.0.1", port)}
        for proc in procs:
            child, child_port = await _spawn_server(system, seed, proc)
            children.append(child)
            table[proc] = ("127.0.0.1", child_port)
        runtime.network.set_addresses(table)
        for proc in procs:
            runtime.network.send_control(proc, CtlPeers(addresses=table))

        aio = await run_async(scenario, [runtime], gather)

        for proc in procs:
            runtime.network.send_control(proc, CtlShutdown())
        for child in children:
            await asyncio.wait_for(child.wait(), timeout=CHILD_TIMEOUT_S)
        children = []
    finally:
        for child in children:  # only on failure paths
            try:
                child.kill()
            except ProcessLookupError:  # pragma: no cover
                pass
        await runtime.close()
    des = run(conform_scenario(system, seed, rounds, DES))
    return compare(des, aio)


def run_cluster(system: str, seed: int,
                rounds: int = ROUNDS) -> ConformanceResult:
    """Synchronous wrapper around :func:`cluster_async`."""
    return asyncio.run(cluster_async(system, seed, rounds))
