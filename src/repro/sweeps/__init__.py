"""Sweep orchestration: the execution layer between the simulator and the
figures.

Every experiment of the reproduction — Figures 2 and 3, the §4 software
comparison, the ablations — is a *sweep*: a list of independent simulation
points.  This package turns those sweeps into cached, resumable, parallel
runs:

* :mod:`repro.sweeps.spec` — :class:`SweepPointSpec`, a frozen, picklable,
  hashable description of one point, :func:`evaluate_spec`, the single
  evaluation path every workload kind shares, and :func:`shard_specs`, the
  deterministic content-addressed partitioner behind multi-host sharding;
* :mod:`repro.sweeps.store` — :class:`ResultStore`, a content-addressed
  JSONL + index store keyed by a stable hash of spec + code-version salt,
  plus :func:`merge_stores`, which combines per-shard stores conflict-free
  and tracks completion through per-store ``manifest.json`` files;
* :mod:`repro.sweeps.scheduler` — :func:`run_sweep`, chunked process-pool
  dispatch with per-point checkpointing, deterministic ordering, a resume
  path that completes a partially finished sweep from the store, and a
  ``shard=(index, count)`` restriction for splitting a sweep across hosts.

* :mod:`repro.sweeps.coordinator` / :mod:`repro.sweeps.worker` — the fleet
  layer: :class:`Coordinator`, a long-lived service owning a spec universe
  (shard leases, owed-point re-queue, crash-safe journal, continuously
  merged store) behind a JSON-over-HTTP front end
  (:class:`CoordinatorServer`), and :func:`run_worker`/:class:`WorkerClient`,
  the worker loop that drains leases through :func:`evaluate_spec`.

The experiment drivers in :mod:`repro.experiments` build specs and route
through :func:`run_sweep`; ``repro-spam sweep`` exposes the same machinery
on the command line (including ``--shard I/N``, ``sweep merge`` and the
fleet verbs ``sweep serve | work | lease | submit | status``).
``docs/sweeps.md`` documents the store layout, the hashing contract, the
resume semantics, the sharding workflow and the fleet-coordination
protocol.
"""

from .coordinator import (
    Coordinator,
    CoordinatorServer,
    CoordinatorState,
    CoordinatorStatus,
    IngestReport,
    Lease,
    LeaseError,
)
from .scheduler import SweepOutcome, resolve_workers, run_sweep
from .spec import (
    SweepPointResult,
    SweepPointSpec,
    WORKLOAD_KINDS,
    build_network_and_routing,
    clear_skeleton_cache,
    evaluate_spec,
    parse_shard,
    run_software_multicast_once,
    shard_specs,
    spec_from_dict,
)
from .store import (
    DEFAULT_STORE_DIR,
    STORE_SCHEMA_VERSION,
    ManifestStatus,
    MergeReport,
    ResultStore,
    default_code_salt,
    merge_stores,
    result_row,
    spec_key,
)
from .worker import WORKER_FAULTS, WorkerClient, WorkerReport, run_worker

__all__ = [
    "SweepPointSpec",
    "SweepPointResult",
    "WORKLOAD_KINDS",
    "evaluate_spec",
    "spec_from_dict",
    "shard_specs",
    "parse_shard",
    "build_network_and_routing",
    "clear_skeleton_cache",
    "run_software_multicast_once",
    "ResultStore",
    "ManifestStatus",
    "MergeReport",
    "merge_stores",
    "spec_key",
    "default_code_salt",
    "DEFAULT_STORE_DIR",
    "STORE_SCHEMA_VERSION",
    "run_sweep",
    "SweepOutcome",
    "resolve_workers",
    "result_row",
    "Coordinator",
    "CoordinatorServer",
    "CoordinatorState",
    "CoordinatorStatus",
    "IngestReport",
    "Lease",
    "LeaseError",
    "WorkerClient",
    "WorkerReport",
    "run_worker",
    "WORKER_FAULTS",
]
