"""Tests for replication batches: many sweep points on one network skeleton.

A batch here is a set of Monte-Carlo replications that share
``(network_size, topology_seed, root_strategy)``, the three fields that fully
determine the network, the BFS spanning tree, the channel labelling and the
ancestry.  Every process builds that skeleton once, in the skeleton cache of
:mod:`repro.sweeps.spec`, and each point routes through its own
``with_selection`` clone of it.  These tests pin the cache's contract:

* a cached skeleton routes bit-identically to a fresh
  :func:`build_network_and_routing` for every selection strategy, with the
  same tree metrics;
* evaluation results do not depend on whether the cache is warm, nor on the
  order points are evaluated in — the stateful ``"random"`` selection is
  seeded fresh per point, so no RNG state leaks through the shared skeleton;
* the same holds through :func:`run_sweep`, sequentially and over a real
  process pool, with per-point checkpointing into the store.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.sweeps.spec as spec_module
from repro.core.selection import SELECTION_CLASSES
from repro.errors import ZeroDeliveryError
from repro.spanning.roots import ROOT_STRATEGIES
from repro.sweeps import (
    ResultStore,
    SweepPointSpec,
    build_network_and_routing,
    clear_skeleton_cache,
    evaluate_spec,
    run_sweep,
)


def _spec(kind: str, params, *, topology_seed=3, network_size=16, **kwargs):
    defaults = dict(
        workload_kind=kind,
        network_size=network_size,
        topology_seed=topology_seed,
        message_length_flits=16,
        workload_params=tuple(params),
        workload_seed=5,
        x=1.0,
    )
    defaults.update(kwargs)
    return SweepPointSpec(**defaults)


#: One representative spec per workload kind, all sharing a skeleton.
KIND_SPECS = [
    _spec("single-multicast", (("num_destinations", 4), ("samples", 2))),
    _spec(
        "mixed",
        (
            ("rate_per_us", 0.01),
            ("multicast_destinations", 4),
            ("num_messages", 6),
            ("multicast_fraction", 0.25),
            ("arrival", "poisson"),
        ),
    ),
    _spec(
        "software-comparison",
        (("num_destinations", 4), ("samples", 2), ("execute_software", 1)),
    ),
    _spec("partitioned-multicast", (("num_destinations", 8), ("groups", 2))),
]

#: Stateful-selection replications: same skeleton, per-replication RNG seeds.
#: Contended mixed traffic, so the selection's choices move the latencies
#: (an idle-network multicast's latency does not depend on them).
RANDOM_SPECS = [
    _spec(
        "mixed",
        (
            ("rate_per_us", 0.05),
            ("multicast_destinations", 4),
            ("num_messages", 20),
            ("multicast_fraction", 0.25),
            ("arrival", "poisson"),
        ),
        workload_seed=10 + i,
        selection="random",
        selection_seed=i,
        x=float(i),
    )
    for i in range(4)
]


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_skeleton_cache()
    yield
    clear_skeleton_cache()


def _fresh(spec: SweepPointSpec):
    """``evaluate_spec`` with the skeleton cache cleared first."""
    clear_skeleton_cache()
    return evaluate_spec(spec)


def _routing_fingerprint(routing) -> tuple:
    """Everything a routing decision reads: network, tree, labelling and
    ancestry, plus the selection's choice on every processor pair."""
    network = routing.network
    processors = network.processors()
    return (
        [(c.src, c.dst, c.cid) for c in network.channels()],
        [network.label(n) for n in network.nodes()],
        routing.tree.root,
        routing.tree.tree_edges(),
        [routing.labeling.label(c) for c in network.channels()],
        type(routing.selection),
        [
            [c.cid for c in routing.unicast_route(src, dst)]
            for src in processors
            for dst in processors
            if src != dst
        ],
    )


class TestSkeletonCache:
    @pytest.mark.parametrize("selection", sorted(SELECTION_CLASSES))
    def test_cached_and_fresh_builds_bit_identical(self, selection):
        spec = replace(KIND_SPECS[0], selection=selection, selection_seed=7)
        fresh = build_network_and_routing(
            spec.network_size, spec.topology_seed, spec.root_strategy, selection, 7
        )
        spec_module._network_and_routing(spec)  # warm the cache
        network, cached = spec_module._network_and_routing(spec)
        assert network is cached.network
        assert _routing_fingerprint(cached) == _routing_fingerprint(fresh[1])

    @pytest.mark.parametrize("root_strategy", sorted(ROOT_STRATEGIES))
    def test_tree_metrics_unchanged(self, root_strategy):
        spec = replace(KIND_SPECS[0], root_strategy=root_strategy)
        _, fresh = build_network_and_routing(16, 3, root_strategy)
        _, cached = spec_module._network_and_routing(spec)
        assert spec_module._tree_metrics(cached) == spec_module._tree_metrics(fresh)

    def test_cached_routing_is_never_the_skeleton(self):
        _, skeleton = spec_module._skeleton(16, 3, "center")
        for spec in (KIND_SPECS[0], RANDOM_SPECS[0]):
            _, routing = spec_module._network_and_routing(spec)
            assert routing is not skeleton
            assert routing.ancestry is skeleton.ancestry

    def test_skeleton_built_once_per_process(self, monkeypatch):
        calls = []
        real = spec_module.lattice_irregular_network

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(spec_module, "lattice_irregular_network", counting)
        for spec in KIND_SPECS + RANDOM_SPECS:
            evaluate_spec(spec)
        assert len(calls) == 1


class TestBatchedDifferential:
    def test_bit_identical_across_all_workload_kinds(self):
        specs = KIND_SPECS + RANDOM_SPECS
        fresh = [_fresh(spec) for spec in specs]
        clear_skeleton_cache()
        assert [evaluate_spec(spec) for spec in specs] == fresh

    def test_stateless_selection_routing_reused_within_batch(self):
        """Replications on a stateless selection share one routing object."""
        specs = [replace(KIND_SPECS[0], workload_seed=seed) for seed in (5, 6)]
        first = spec_module._network_and_routing(specs[0])
        assert spec_module._network_and_routing(specs[1]) == first
        assert [evaluate_spec(spec) for spec in specs] == [_fresh(s) for s in specs]

    def test_random_selection_not_contaminated_by_batch_neighbours(self):
        """A stateful selection's RNG must not leak between replications:
        the orders A, B, A and B, A, B give identical per-spec results, with
        the cache cleared before each order and then warm."""
        a, b = RANDOM_SPECS[:2]
        alone = {a: _fresh(a), b: _fresh(b)}
        # The selection seed must matter, or a leak could not show.
        reseeded = _fresh(replace(a, selection_seed=b.selection_seed))
        assert reseeded.latencies_us != alone[a].latencies_us
        for order in ((a, b, a), (b, a, b)):
            for warm in (False, True):
                if not warm:
                    clear_skeleton_cache()
                assert [evaluate_spec(spec) for spec in order] == [
                    alone[spec] for spec in order
                ]

    def test_foreign_spec_gets_its_own_skeleton(self):
        """A spec on another network is never served a cached skeleton of a
        different key, and does not disturb the batch around it."""
        good = KIND_SPECS[0]
        foreign = replace(KIND_SPECS[1], topology_seed=4)
        expected = [_fresh(good), _fresh(foreign)]
        clear_skeleton_cache()
        assert [evaluate_spec(s) for s in (good, foreign, good)] == expected + expected[:1]
        own, _ = spec_module._network_and_routing(foreign)
        assert own is not spec_module._network_and_routing(good)[0]


class TestBatchedRunSweep:
    def test_sequential_cached_matches_fresh(self, tmp_path):
        specs = KIND_SPECS + RANDOM_SPECS
        fresh = [_fresh(spec) for spec in specs]
        clear_skeleton_cache()
        outcome = run_sweep(specs, store=ResultStore(tmp_path / "cache"))
        assert outcome.results == fresh
        assert (outcome.cache_hits, outcome.computed) == (0, len(specs))
        # Every replication landed under its own spec key.
        reopened = ResultStore(tmp_path / "cache")
        assert all(spec in reopened for spec in specs)

    @pytest.mark.slow
    def test_pool_cached_matches_fresh(self, tmp_path):
        specs = KIND_SPECS + RANDOM_SPECS
        fresh = [_fresh(spec) for spec in specs]
        pooled = run_sweep(
            specs, store=ResultStore(tmp_path / "cache"), workers=2, chunk_size=3
        )
        assert pooled.results == fresh
        assert all(spec in ResultStore(tmp_path / "cache") for spec in specs)

    def test_resume_half_stored_batch(self, tmp_path):
        """A half-stored replication batch computes exactly the missing half
        and returns the same rows."""
        specs = KIND_SPECS + RANDOM_SPECS
        base = run_sweep(specs, store=ResultStore(tmp_path / "full"))
        half = len(specs) // 2
        store = ResultStore(tmp_path / "half")
        store.put_many(base.results[:half])
        store.flush_index()
        resumed = run_sweep(specs, store=ResultStore(tmp_path / "half"))
        assert (resumed.cache_hits, resumed.computed) == (half, len(specs) - half)
        assert resumed.results == base.results

    def test_mid_batch_failure_checkpoints_earlier_replications(
        self, tmp_path, monkeypatch
    ):
        """Sequential run: replications evaluated before a failure are
        already in the store when the error surfaces."""
        real_run_latencies = spec_module._run_latencies

        def poisoned(network, routing, workload, config, from_creation, telemetry=None):
            if workload.seed == 99:
                return []
            return real_run_latencies(
                network, routing, workload, config, from_creation, telemetry
            )

        monkeypatch.setattr(spec_module, "_run_latencies", poisoned)
        good = KIND_SPECS[0]
        bad = replace(good, workload_seed=99)
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(ZeroDeliveryError):
            run_sweep([good, bad], store=store)
        assert ResultStore(tmp_path / "cache").get(good) is not None

    def test_pool_telemetry_tracks(self):
        """Pool telemetry lands under ``chunk{i}`` tracks with one
        per-replication evaluate span each."""
        from repro.obs import Telemetry

        telemetry = Telemetry(track="test")
        run_sweep(
            RANDOM_SPECS, store=None, workers=2, chunk_size=2, telemetry=telemetry
        )
        payload = telemetry.to_payload()
        tracks = {span["track"] for span in payload["spans"]}
        assert any(track.startswith("chunk0") for track in tracks)
        evaluate_spans = [
            span for span in payload["spans"]
            if span["name"] == "sweep.point.evaluate"
        ]
        assert len(evaluate_spans) == len(RANDOM_SPECS)
