"""Executable run kinds: how a :class:`~repro.sweep.spec.RunSpec`
becomes a result.

Each kind supplies an ``execute`` function mapping the spec's decoded
parameters to a run in a **fresh deterministic kernel** — workers never
share simulator state, so a record depends only on its spec — plus, for
cacheable kinds, a JSON codec for the record.  Kinds without a codec
(perf repetitions, whose wall-clock rates must be measured fresh) always
execute.

Built-in kinds
    ``figure``        one experiment curve point -> ``RunRecord``
    ``perf-suite``    one repetition of a perf suite -> ``SuiteResult``

Imports of the heavy consumer modules happen inside the execute
functions so this module stays cheap to import in worker processes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional


class Kind(NamedTuple):
    """One executable run recipe (codec optional)."""

    execute: Callable[[Dict[str, Any]], Any]
    encode: Optional[Callable[[Any], Any]] = None
    decode: Optional[Callable[[Any], Any]] = None


#: Registry of run kinds, by name.
KINDS: Dict[str, Kind] = {}


def register_kind(name: str, execute: Callable[[Dict[str, Any]], Any],
                  encode: Optional[Callable[[Any], Any]] = None,
                  decode: Optional[Callable[[Any], Any]] = None) -> None:
    """Register (or replace) a run kind.  ``encode``/``decode`` must be
    given together; a kind without them is never cached."""
    if (encode is None) != (decode is None):
        raise ValueError("encode and decode must be given together")
    KINDS[name] = Kind(execute=execute, encode=encode, decode=decode)


def execute_spec(spec) -> Any:
    """Run one spec in this process and return its record."""
    kind = KINDS.get(spec.kind)
    if kind is None:
        raise ValueError(f"unknown run kind {spec.kind!r}")
    return kind.execute(spec.params())


# ----------------------------------------------------------------------
# figure: one experiment curve point


def _execute_figure(params: Dict[str, Any]) -> Any:
    from repro.bench.runner import run_workload
    from repro.sim.topology import Topology

    params = dict(params)
    topology = Topology.from_json(params.pop("topology"))
    return run_workload(topology=topology, **params).record()


def _encode_figure(record) -> Any:
    return record.to_json()


def _decode_figure(doc) -> Any:
    from repro.bench.runner import RunRecord

    return RunRecord.from_json(doc)


def figure_spec(system: str, workload: str, target_tps: float,
                topology, seed: int, label: str = "", **run_params):
    """Spec for one ``run_workload`` curve point.  ``run_params`` takes
    the remaining keyword arguments of
    :func:`repro.bench.runner.run_workload` verbatim."""
    from repro.sweep.spec import RunSpec

    params = dict(run_params)
    params.update(system=system, workload=workload,
                  target_tps=float(target_tps),
                  topology=topology.to_json(), seed=int(seed))
    return RunSpec.make("figure", params,
                        label=label or f"{system}@{target_tps:g}tps")


# ----------------------------------------------------------------------
# perf-suite: one repetition of a benchmark suite


def _execute_perf_suite(params: Dict[str, Any]) -> Any:
    from repro.perf.suites import run_suite_rep

    return run_suite_rep(params["name"], params["scale"])


def perf_suite_spec(name: str, scale: str, rep: int = 0):
    """Spec for one repetition of one perf suite.  ``rep`` only
    distinguishes otherwise-identical repetitions; the suite itself is
    deterministic, the wall clock is not."""
    from repro.sweep.spec import RunSpec

    return RunSpec.make("perf-suite",
                        {"name": name, "scale": scale, "rep": int(rep)},
                        label=f"{name}#{rep}")


register_kind("figure", _execute_figure, _encode_figure, _decode_figure)
register_kind("perf-suite", _execute_perf_suite)
