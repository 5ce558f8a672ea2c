"""One cold-process workload run, launched by ``perfbench/run.py``.

The process does what a user's shell command does -- start the interpreter,
``import repro.cli``, build the network and SPAM routing, simulate, write
the sweep store and render the figure table -- and writes a JSON report to
``--out``: timestamps on the host's monotonic clock (shared by every
process on Linux, so the launcher can subtract its own launch time), the
result fingerprint and the exact simulation counts.

Phases:

``cold``     compute every point into the (empty) store at ``--store``;
``warm``     re-run the same sweep against the filled store (all cache hits);
``engines``  re-run the points in-process under three engine modes (full
             fast path, sync-only coalescing, reference) and time each
             ``WormholeSimulator.run``; used by the traced run only.

``--trace`` wraps the public call of every layer in a span (name, start,
end, parent) kept in memory and written out with the report, and passes a
``repro.obs.Telemetry`` through the existing ``telemetry=`` parameter.
``--calibrate`` runs ``calibrate.loop`` at the start, after the import,
after every sweep point and at the end, and reports each run's timestamps.
"""

import time

T_MAIN = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402

#: Counters read off every ``WormholeSimulator`` after its ``run()``; all are
#: deterministic for a given input.
ENGINE_COUNTERS = (
    "coalesced_ticks",
    "coalesced_stagger_ticks",
    "coalesced_bubble_ticks",
    "coalesce_snapshots",
    "coalesce_batches",
    "coalesce_verify_failures",
)

#: ``SimulationConfig`` overrides of the three engine modes the ``engines``
#: phase compares: what coalescing buys, and what stagger/bubble modes add.
ENGINE_MODES = {
    "full": (),
    "sync_only": (
        ("coalesce_stagger", False),
        ("coalesce_bubbles", False),
        ("coalesce_multi_period", False),
    ),
    "reference": (("fast_path", False),),
}


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def open(self, name):
        if not self.enabled:
            return None
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        if span is not None:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def wrap(self, owner, attr, name):
        """Replace ``owner.attr`` by a wrapper recording one span per call."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            bound = getattr(owner, attr)

            def traced_classmethod(*args, **kwargs):
                return self.call(name, bound, *args, **kwargs)

            setattr(owner, attr, staticmethod(traced_classmethod))
            return

        def traced(*args, **kwargs):
            return self.call(name, raw, *args, **kwargs)

        setattr(owner, attr, traced)


class Calibration:
    """Timestamps of the ``calibrate.loop`` runs made between the program's
    calls; a disabled calibration runs nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.loops = []

    def run(self):
        if self.enabled:
            start = time.perf_counter()
            calibrate.loop()
            self.loops.append([start, time.perf_counter()])

    def after_each(self, owner, attr):
        """Run the loop after every call of ``owner.attr``."""
        if not self.enabled:
            return
        raw = getattr(owner, attr)

        def calibrated(*args, **kwargs):
            result = raw(*args, **kwargs)
            self.run()
            return result

        setattr(owner, attr, calibrated)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig3_paper_churn", "fig3_stream_poisson", "replicate_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=["cold", "warm", "engines"], required=True)
    parser.add_argument("--store", help="result store of the cold and warm phases")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    return parser.parse_args(argv)


#: The network every workload runs on (the CLI's default ``--seed``).  The
#: benchmark seed varies the traffic, or the selection on ``replicate_sweep``:
#: across topology seeds the work of one figure varies by more than half,
#: which would drown any change.
TOPOLOGY_SEED = 7
#: ``Figure3Config``'s default workload seed minus the default benchmark
#: seed, so that with seed 7 the first rate gets the CLI's traffic draw.
WORKLOAD_SEED_OFFSET = 16
#: Workload-seed distance between the traffic draws of a figure's rates.
RATE_SEED_STRIDE = 1000


def fig3_config(workload, seed):
    from repro.experiments.common import SCALES, ExperimentScale
    from repro.experiments.figure3 import Figure3Config

    if workload == "fig3_paper_churn":
        # ``repro --scale paper figure3 --network-size 128 --degrees 16
        # --rates 0.04``: one point, so that a run fits several cold samples.
        return Figure3Config(
            network_size=128,
            multicast_degrees=(16,),
            arrival_rates_per_us=(0.04,),
            arrival="negative-binomial",
            scale=SCALES["paper"],
            topology_seed=TOPOLOGY_SEED,
            workload_seed=seed + WORKLOAD_SEED_OFFSET,
        )
    # Same figure, Poisson arrivals and 512-flit worms at default-scale counts.
    default = SCALES["default"]
    return Figure3Config(
        network_size=128,
        multicast_degrees=(16,),
        arrival_rates_per_us=(0.005, 0.02, 0.04),
        arrival="poisson",
        scale=ExperimentScale(
            "default-512f",
            message_length_flits=512,
            samples_per_point=default.samples_per_point,
            messages_per_rate_point=default.messages_per_rate_point,
        ),
        topology_seed=TOPOLOGY_SEED,
        workload_seed=seed + WORKLOAD_SEED_OFFSET,
    )


def replicate_specs(seed, sim_overrides=()):
    """16 Monte-Carlo replications of one small mixed point.  The stateful
    ``random`` selection makes every replication rebuild the network and
    SPAM structures.  The seed moves the selection seeds only: with 4
    messages a replication, a new traffic draw changes the flit-hops of the
    sweep by up to a third."""
    from repro.sweeps import SweepPointSpec

    return [
        SweepPointSpec(
            workload_kind="mixed",
            network_size=192,
            topology_seed=TOPOLOGY_SEED,
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
            selection_seed=1000 * seed + i,
            sim_overrides=sim_overrides,
            label="replication",
            x=float(i),
        )
        for i in range(16)
    ]


def workload_specs(workload, seed, sim_overrides=()):
    from dataclasses import replace

    from repro.experiments.figure3 import figure3_specs

    if workload == "replicate_sweep":
        return replicate_specs(seed, sim_overrides)
    specs = figure3_specs(replace(fig3_config(workload, seed), sim_overrides=sim_overrides))
    # ``figure3_specs`` gives every rate the same traffic draw, so the work of
    # the whole figure moved with one draw's multicast count (flit-hops by
    # +-10 % across seeds); a draw per rate averages over three.  The first
    # rate keeps the CLI's draw.
    return [replace(spec, workload_seed=spec.workload_seed + RATE_SEED_STRIDE * index)
            for index, spec in enumerate(specs)]


def fingerprint(results):
    """SHA-256 of every point's latencies at full precision (JSON floats
    round-trip exactly)."""
    payload = json.dumps([list(r.latencies_us) for r in results])
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def install_engine_hooks(report, tracer):
    """Record the first simulator construction (the end of set-up), and the
    exact counts and duration of every engine run: a few attribute and clock
    reads per run, untraced."""
    from repro.simulator.engine import WormholeSimulator

    init = WormholeSimulator.__init__
    run = WormholeSimulator.run
    report["engine_runs"] = []

    def hooked_init(self, *args, **kwargs):
        if report["t_setup"] is None:
            report["t_setup"] = time.perf_counter()
        init(self, *args, **kwargs)

    def hooked_run(self, *args, **kwargs):
        start = time.perf_counter()
        stats = run(self, *args, **kwargs)
        end = time.perf_counter()
        entry = {
            "flit_hops": stats.flit_hops,
            "messages_submitted": stats.messages_submitted,
            "messages_completed": stats.messages_completed,
            "run_s": end - start,
        }
        entry.update({name: getattr(self, name) for name in ENGINE_COUNTERS})
        report["engine_runs"].append(entry)
        return stats

    WormholeSimulator.__init__ = hooked_init
    WormholeSimulator.run = hooked_run
    if tracer.enabled:
        tracer.wrap(WormholeSimulator, "__init__", "simulator.init")
        tracer.wrap(WormholeSimulator, "run", "simulator.run")


def install_layer_spans(tracer):
    """Span every layer's public call, as the sweep layer reaches it."""
    import repro.sweeps.scheduler as scheduler
    import repro.sweeps.spec as spec
    from repro.core.spam import SpamRouting
    from repro.simulator.stats import SimulationStats
    from repro.sweeps.store import ResultStore
    from repro.traffic.workload import Workload

    tracer.wrap(spec, "lattice_irregular_network", "topology.generate")
    tracer.wrap(SpamRouting, "build", "core.build")
    tracer.wrap(spec, "mixed_traffic_workload", "traffic.generate")
    tracer.wrap(spec, "make_arrival_process", "traffic.generate")
    tracer.wrap(Workload, "submit_to", "traffic.submit")
    tracer.wrap(SimulationStats, "latencies_us", "stats.latencies")
    tracer.wrap(scheduler, "evaluate_spec", "sweeps.evaluate")
    tracer.wrap(ResultStore, "record_expected", "store.append")
    tracer.wrap(ResultStore, "put_many", "store.append")
    tracer.wrap(ResultStore, "flush_index", "store.append")
    tracer.wrap(ResultStore, "get", "store.read")


def run_sweep_phase(args, report, tracer, telemetry):
    from repro.analysis.report import series_side_by_side
    from repro.analysis.stats import summarize_samples
    from repro.experiments.figure3 import figure3_result_from_points
    from repro.sweeps import ResultStore, run_sweep

    specs = workload_specs(args.workload, args.seed)
    store = ResultStore(args.store)
    outcome = tracer.call(
        "sweeps.run", run_sweep, specs, store=store, workers=1, telemetry=telemetry
    )
    span = tracer.open("analysis.render")
    if args.workload == "replicate_sweep":
        summary = summarize_samples([point.mean_us for point in outcome.results])
        text = f"replications: {summary}"
    else:
        config = fig3_config(args.workload, args.seed)
        text = series_side_by_side(figure3_result_from_points(config, outcome.results))
    print(text)
    tracer.close(span)
    report["points"] = len(outcome.results)
    report["computed"] = outcome.computed
    report["cache_hits"] = outcome.cache_hits
    report["fingerprint"] = fingerprint(outcome.results)


def run_engines_phase(args, report):
    """Evaluate every point once per engine mode, the modes interleaved
    point by point so that drift in host speed spreads over all of them;
    each run is tagged with its mode in ``engine_runs`` and each mode's
    fingerprint recorded."""
    from repro.sweeps import evaluate_spec

    specs = {mode: workload_specs(args.workload, args.seed, overrides)
             for mode, overrides in ENGINE_MODES.items()}
    results = {mode: [] for mode in ENGINE_MODES}
    for index in range(len(specs["full"])):
        for mode in ENGINE_MODES:
            results[mode].append(evaluate_spec(specs[mode][index]))
            report["engine_runs"][-1]["mode"] = mode
    report["modes"] = {mode: fingerprint(points) for mode, points in results.items()}


def main(argv=None):
    args = parse_args(argv)
    tracer = Tracer(args.trace)
    calibration = Calibration(args.calibrate)
    calibration.run()
    report = {"t_main": T_MAIN, "t_setup": None}
    span = tracer.open("import.repro")
    if span is not None:
        # The import span starts at interpreter entry, before the tracer existed.
        span["start"] = T_MAIN
    import repro.cli  # noqa: F401  -- the import every shell command pays

    tracer.close(span)
    calibration.run()
    from repro.sweeps.store import default_code_salt

    report["code_salt"] = default_code_salt()
    telemetry = None
    if tracer.enabled:
        from repro.obs import Telemetry

        telemetry = Telemetry(track="bench")
        install_layer_spans(tracer)
    install_engine_hooks(report, tracer)
    import repro.sweeps.scheduler as scheduler

    calibration.after_each(scheduler, "evaluate_spec")
    if args.phase == "engines":
        run_engines_phase(args, report)
    else:
        run_sweep_phase(args, report, tracer, telemetry)
    if telemetry is not None:
        report["probe_s"] = sum(
            dist["total"]
            for name, dist in telemetry.values.items()
            if name.startswith("engine.probe.") and name.endswith("_ns")
        ) / 1e9
    report["spans"] = tracer.spans
    calibration.run()
    report["calibration_loops"] = calibration.loops
    report["t_end"] = time.perf_counter()
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
