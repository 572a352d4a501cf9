"""Carousel: low-latency transaction processing for globally-distributed
data — a complete Python reproduction of the SIGMOD 2018 paper.

Public API overview
-------------------

Transactions and results:
    :class:`repro.txn.TransactionSpec` (the 2FI model),
    :class:`repro.txn.TxnResult`, :class:`repro.txn.TID`.

Carousel:
    :class:`repro.core.CarouselClient`, :class:`repro.core.CarouselServer`,
    :class:`repro.core.CarouselConfig` (modes ``BASIC`` / ``FAST``).

Baseline:
    :class:`repro.tapir.TapirClient`, :class:`repro.tapir.TapirReplica`,
    :class:`repro.tapir.TapirConfig`.

Deployments and experiments:
    :func:`repro.systems.build` (any system in :data:`repro.systems.SYSTEMS`
    by name) over :class:`repro.bench.CarouselCluster`,
    :class:`repro.bench.LayeredCluster`, :class:`repro.bench.TapirCluster`
    and :class:`repro.bench.DeploymentSpec`;
    :mod:`repro.bench.experiments`, and the ``python -m repro`` command line.

Substrates:
    :mod:`repro.sim` (deterministic discrete-event simulator),
    :mod:`repro.raft`, :mod:`repro.store`, :mod:`repro.workloads`.
"""

from repro.txn import (
    REASON_CLIENT_ABORT,
    REASON_COMMITTED,
    REASON_CONFLICT,
    REASON_FAILURE,
    REASON_STALE_READ,
    REASON_TIMEOUT,
    TID,
    TransactionSpec,
    TxnResult,
)

__version__ = "1.0.0"

__all__ = [
    "TID",
    "TransactionSpec",
    "TxnResult",
    "REASON_COMMITTED",
    "REASON_CLIENT_ABORT",
    "REASON_CONFLICT",
    "REASON_STALE_READ",
    "REASON_FAILURE",
    "REASON_TIMEOUT",
    "__version__",
]
