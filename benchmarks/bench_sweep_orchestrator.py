"""Benchmark harness for the sweep orchestration subsystem.

Measures the two costs the `repro.sweeps` layer trades between:

* **cold** — a Figure-3 style sweep computed from scratch through
  :func:`repro.sweeps.run_sweep` with a fresh content-addressed store
  (simulation dominates; the store adds per-point checkpoint appends);
* **warm** — the identical sweep re-run against the populated store
  (pure index lookups + JSONL reads; no simulator involvement).

Asserts the subsystem's contract along the way: the warm run computes
nothing, returns bit-identical latencies, and is at least 10x faster than
the cold run (the acceptance floor; in practice it is orders of magnitude).
A third harness measures the per-process skeleton cache on a
replication-heavy sweep.

Every gate times its own runs with :func:`time.perf_counter`, so it holds
under ``--benchmark-disable`` too (pytest-benchmark records no stats then).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.common import current_scale
from repro.experiments.figure3 import Figure3Config, figure3_specs
from repro.sweeps import ResultStore, SweepPointSpec, clear_skeleton_cache, run_sweep


def _timed(run):
    """``(result, seconds)`` of one call of ``run``."""
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


@pytest.mark.benchmark(group="sweeps")
def test_sweep_cold_vs_warm_cache(benchmark, record_result, tmp_path):
    config = Figure3Config(
        network_size=64,
        multicast_degrees=(8, 16),
        arrival_rates_per_us=(0.005, 0.02),
        scale=current_scale(),
    )
    specs = figure3_specs(config)
    store_dir = tmp_path / "sweep-cache"

    t0 = time.perf_counter()
    cold = run_sweep(specs, store=ResultStore(store_dir))
    cold_seconds = time.perf_counter() - t0

    warm, warm_seconds = benchmark.pedantic(
        lambda: _timed(lambda: run_sweep(specs, store=ResultStore(store_dir))),
        rounds=1,
        iterations=1,
    )

    assert warm.computed == 0 and warm.cache_hits == len(specs)
    assert [r.latencies_us for r in warm.results] == [
        r.latencies_us for r in cold.results
    ], "warm-cache results must be bit-identical to the cold run"
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    assert speedup >= 10.0, f"warm cache only {speedup:.1f}x faster than cold"

    record_result(
        "sweep_orchestrator_cache",
        "Sweep orchestrator — cold compute vs warm content-addressed cache\n"
        f"points={len(specs)}, scale={config.resolved_scale().name}\n"
        f"cold: {cold_seconds:.3f} s ({cold.summary()})\n"
        f"warm: {warm_seconds:.6f} s ({warm.summary()})\n"
        f"speedup: {speedup:.0f}x",
    )


@pytest.mark.benchmark(group="sweeps")
def test_skeleton_cache_replication_throughput(benchmark, record_result):
    """Cached skeleton vs a fresh build per point, replication-heavy.

    Many Monte-Carlo replications of one Figure-3 style mixed-traffic point
    on a single 192-switch topology, each differing only in its workload and
    selection seeds.  The stateful ``"random"`` selection is built fresh for
    every point either way; the cached path builds the network and SPAM
    skeleton once, the fresh path (cache cleared before every point) once
    per replication.

    Asserts bit-identical results and a >= 2x floor (3.2-4x measured on a
    2-core x86-64 Linux host; the skeleton build is about 0.07 s of each
    fresh replication).
    """
    replications = 12
    specs = [
        SweepPointSpec(
            workload_kind="mixed",
            network_size=192,
            topology_seed=7,
            message_length_flits=16,
            workload_params=(
                ("rate_per_us", 0.02),
                ("multicast_destinations", 8),
                ("num_messages", 4),
                ("multicast_fraction", 0.25),
                ("arrival", "poisson"),
            ),
            workload_seed=100 + i,
            selection="random",
            selection_seed=i,
            label="replication",
            x=float(i),
        )
        for i in range(replications)
    ]

    clear_skeleton_cache()
    fresh, fresh_seconds = _timed(
        lambda: run_sweep(specs, store=None, progress=lambda *_: clear_skeleton_cache())
    )
    clear_skeleton_cache()
    cached, cached_seconds = benchmark.pedantic(
        lambda: _timed(lambda: run_sweep(specs, store=None)), rounds=1, iterations=1
    )

    assert cached.results == fresh.results, (
        "cached-skeleton replications must be bit-identical to fresh builds"
    )
    assert cached.computed == replications and cached.cache_hits == 0
    speedup = fresh_seconds / cached_seconds
    assert speedup >= 2.0, f"skeleton cache only {speedup:.1f}x faster than fresh builds"

    record_result(
        "sweep_orchestrator_skeleton_cache",
        "Sweep orchestrator — per-process skeleton cache vs a fresh build "
        "per point\n"
        f"replications={replications}, network_size=192, selection=random\n"
        f"fresh:  {fresh_seconds:.3f} s "
        f"({replications / fresh_seconds:.1f} replications/s)\n"
        f"cached: {cached_seconds:.3f} s "
        f"({replications / cached_seconds:.1f} replications/s)\n"
        f"speedup: {speedup:.1f}x",
    )
