"""The repository benchmark: wall time to regenerate a figure from a cold shell.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3_paper_churn [--seed 7] \
        [--seconds 60] [--trace 0|1]
    python3 perfbench/run.py --workload all        # every declared workload

Every measured run is one fresh ``python3 perfbench/child.py`` process, so
interpreter start-up, ``import repro`` and the layers under test all land in
the number a user waits for.  The loop is closed -- one client, one process
at a time, ``REPRO_SWEEP_WORKERS`` unset -- and repeats a cold run (fresh
result store) and warm re-runs (every point a cache hit) until
``--seconds`` are used, then reports medians.  The timed runs' times are
scaled to a reference host speed by a calibration loop run inside each
child between the program's calls (see ``calibrate.py``).  ``--trace 1``
makes a separate traced run and reports per-layer numbers instead, unscaled.

Every run's output is checked: the full-precision latency fingerprint and
exact simulation counts against ``goldens.json`` where the seed has one,
against the first run of this invocation otherwise, and warm results against
cold ones.  The model is checked against its own goldens only; the
repository holds no measurement of the paper's hardware, so the simulated
latencies are unvalidated and no error figure is given.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every run was correct and every metric is a positive finite
number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import selftest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
GOLDENS = BENCH_DIR / "goldens.json"
WORK_DIR = ROOT / ".perfbench"

#: The workloads ``BENCHMARK.json`` declares.
WORKLOADS = ("fig3_stream_poisson", "replicate_sweep")
#: Runnable by name but not declared: too unsteady on a noisy 2-core host
#: for the benchmark's bounds (see README.md).
EXTRA_WORKLOADS = ("fig3_paper_churn",)
DEFAULT_SEED = 7
#: Hard limit on one invocation; children are killed when it runs out.
INVOCATION_LIMIT_S = 170.0
#: Timed rounds made even if ``--seconds`` is short.
MIN_ROUNDS = 2
#: Warm re-runs per round: they are cheap, and import time is noisy.
WARM_PER_ROUND = 2

END_TO_END = {
    "wall_s": "s",
    "warm_wall_s": "s",
    "setup_s": "s",
    "flit_hops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = ("import", "topology", "core", "traffic", "simulator", "stats",
          "sweeps", "store", "analysis")

PER_LAYER = {
    "import.repro_s": "s",
    "import.scipy_stats_s": "s",
    "topology.generate_s": "s",
    "topology.calls": "count",
    "core.build_s": "s",
    "core.calls": "count",
    "traffic.generate_s": "s",
    "simulator.run_s": "s",
    "simulator.flit_hops": "count",
    "simulator.hops_per_s": "1/s",
    "simulator.core_hops_per_s": "1/s",
    "simulator.sync_only_hops_per_s": "1/s",
    "simulator.fast_path_speedup": "ratio",
    "simulator.stagger_bubble_gain": "ratio",
    "simulator.probe_s": "s",
    "simulator.coalesced_ticks": "count",
    "simulator.coalesce_snapshots": "count",
    "simulator.coalesce_batches": "count",
    "simulator.coalesce_verify_failures": "count",
    "simulator.probe_yield": "ratio",
    "stats.latencies_s": "s",
    "sweeps.run_s": "s",
    "sweeps.evaluate_s": "s",
    "sweeps.overhead_s": "s",
    "sweeps.points_computed": "count",
    "sweeps.cache_hits": "count",
    "store.append_s": "s",
    "store.rows": "count",
    "store.bytes": "B",
    "store.read_s": "s",
    "analysis.render_s": "s",
    "process.residual_s": "s",
    "obs.tracing_overhead_s": "s",
    "trace.wall_s": "s",
    "import.warm_share": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "process.residual_share": "ratio",
}

#: Per-layer values that may legitimately be zero or negative (a workload
#: that never reaches the layer, or overhead below the noise).
MAY_BE_ZERO = {
    "import.scipy_stats_s", "simulator.coalesced_ticks",
    "simulator.coalesce_snapshots", "simulator.coalesce_batches",
    "simulator.coalesce_verify_failures", "simulator.probe_yield",
    "simulator.probe_s", "sweeps.overhead_s", "obs.tracing_overhead_s",
}


class BenchError(Exception):
    """A run that cannot produce a trustworthy number."""


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(seed: int, code_salt: str) -> dict:
    def version(module: str) -> str:
        try:
            return __import__(module).__version__
        except ImportError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(),
        "code_salt": code_salt,
        "workload_seed": seed,
        "validation": "checked against the benchmark's own goldens; "
                      "unvalidated against the paper's hardware (no error figure)",
    }


def git_sha() -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """Starts one child at a time and kills it when the invocation's hard
    limit runs out."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.count = 0
        self.code_salt = "unavailable"

    def run(self, phase: str, store: Path | None = None, trace: bool = False,
            calibrated: bool = False) -> dict:
        self.count += 1
        stem = WORK_DIR / f"{self.workload}-{self.seed}-{self.count}-{phase}"
        out = stem.with_suffix(".json")
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [str(CHILD), "--workload", self.workload, "--seed", str(self.seed),
                "--phase", phase, "--out", str(out)]
        if store is not None:
            cmd += ["--store", str(store)]
        if trace:
            cmd.append("--trace")
        if calibrated:
            cmd.append("--calibrate")
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("invocation time limit reached")
        with open(stem.with_suffix(".stdout"), "wb") as stdout, \
                open(stem.with_suffix(".stderr"), "wb") as stderr:
            launched = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                    stdout=stdout, stderr=stderr)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            exited = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = stem.with_suffix(".stderr").read_text(errors="replace")[-2000:]
            raise BenchError(f"{phase} run exited {proc.returncode}:\n{tail}")
        report = json.loads(out.read_text())
        report["wall_s"] = exited - launched
        report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        report["importtime"] = stem.with_suffix(".stderr").read_text() if trace else ""
        if not launched < report["t_main"] < report["t_end"] < exited:
            raise BenchError("child timestamps are not on the launcher's clock")
        report["setup_s"] = (report["t_setup"] - launched
                             if report["t_setup"] is not None else None)
        if calibrated:
            loops = report["calibration_loops"]
            if not loops:
                raise BenchError("calibrated run recorded no calibration loops")
            report["scaled_wall_s"] = calibrate.scaled_seconds(loops, launched, exited)
            if report["t_setup"] is not None:
                report["scaled_setup_s"] = calibrate.scaled_seconds(
                    loops, launched, report["t_setup"])
        self.code_salt = report["code_salt"]
        return report


def fresh_store(name: str) -> Path:
    path = WORK_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    return path


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def counts(report: dict) -> dict:
    """The exact counts of a run, summed over its simulations."""
    runs = report["engine_runs"]
    keys = [key for key in (runs[0] if runs else ()) if key not in ("run_s", "mode")]
    return {"engine_runs": len(runs), **{key: sum(run[key] for run in runs) for key in keys}}


def outcome_signature(report: dict) -> dict:
    """Everything that must repeat exactly in every cold run of one input."""
    return {"fingerprint": report["fingerprint"], "points": report["points"],
            **counts(report)}


def check_cold(report: dict) -> None:
    if report["computed"] != report["points"] or report["cache_hits"] != 0:
        raise BenchError(f"cold run reused the store: {report['computed']} computed, "
                         f"{report['cache_hits']} hits of {report['points']}")
    for run in report["engine_runs"]:
        if run["messages_completed"] != run["messages_submitted"]:
            raise BenchError("a simulation ended with undelivered messages")
    if report["setup_s"] is None:
        raise BenchError("cold run never constructed a simulator")


def check_warm(warm: dict, cold: dict) -> None:
    if warm["computed"] != 0 or warm["cache_hits"] != warm["points"]:
        raise BenchError(f"warm run computed {warm['computed']} of {warm['points']} points")
    if warm["engine_runs"]:
        raise BenchError("warm run started a simulation")
    if warm["fingerprint"] != cold["fingerprint"]:
        raise BenchError("warm results differ from the cold results")


class Gate:
    """Compares each cold run's signature with the golden of its seed, or
    with the first run of this invocation when the seed has no golden."""

    def __init__(self, workload: str, seed: int):
        goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
        self.expected = goldens.get(workload, {}).get(str(seed))
        self.source = "golden" if self.expected is not None else "first run"

    def check(self, report: dict) -> None:
        signature = outcome_signature(report)
        if self.expected is None:
            self.expected = signature
        elif signature != self.expected:
            diff = {k: (self.expected.get(k), v) for k, v in signature.items()
                    if self.expected.get(k) != v}
            raise BenchError(f"output differs from the {self.source}: {diff}")


# ----------------------------------------------------------------------
# Timed runs
# ----------------------------------------------------------------------
def timed(launcher: Launcher, seconds: float, log) -> tuple[dict, int, int]:
    """Rounds of one cold run into a fresh store and ``WARM_PER_ROUND``
    warm re-runs against it, until ``seconds`` would be exceeded; every
    metric is the median of its samples, the times at reference speed."""
    gate = Gate(launcher.workload, launcher.seed)
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        attempted += 1
        try:
            store = fresh_store(f"{launcher.workload}-store")
            cold = launcher.run("cold", store, calibrated=True)
            check_cold(cold)
            gate.check(cold)
            warms = [launcher.run("warm", store, calibrated=True)
                     for _ in range(WARM_PER_ROUND)]
            for warm in warms:
                check_warm(warm, cold)
        except BenchError as exc:
            failed += 1
            log(f"round {attempted} failed: {exc}")
            if time.perf_counter() - start > seconds or failed >= 3:
                break
            continue
        rounds += 1
        hops = counts(cold)["flit_hops"]
        samples["wall_s"].append(cold["scaled_wall_s"])
        samples["warm_wall_s"] += [warm["scaled_wall_s"] for warm in warms]
        samples["setup_s"].append(cold["scaled_setup_s"])
        samples["flit_hops_per_s"].append(hops / cold["scaled_wall_s"])
        samples["peak_rss_mb"].append(cold["peak_rss_mb"])
        log(f"round {attempted}: wall {cold['wall_s']:.3f} s ({cold['scaled_wall_s']:.3f} "
            "at reference speed), warm " + ", ".join(
                f"{warm['wall_s']:.3f} ({warm['scaled_wall_s']:.3f})" for warm in warms)
            + f" s, setup {cold['setup_s']:.3f} ({cold['scaled_setup_s']:.3f}) s, "
            f"{hops} flit-hops")
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + (time.perf_counter() - round_start) > seconds:
            break
    if not rounds:
        raise BenchError("no round completed")
    log(f"{rounds} timed rounds; correctness reference: {gate.source}")
    return {name: statistics.median(values) for name, values in samples.items()}, attempted, failed


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def self_times(spans: list[dict], wall_s: float) -> tuple[dict, float]:
    """Per-layer self time (span minus its children) and the residual the
    spans leave uncovered in ``wall_s``."""
    if not spans:
        raise BenchError("traced run recorded no spans")
    child_total = [0.0] * len(spans)
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            raise BenchError(f"span {span['name']} never closed")
        if span["parent"] is not None:
            child_total[span["parent"]] += span["end"] - span["start"]
    layers = dict.fromkeys(LAYERS, 0.0)
    top_level = 0.0
    for span, children in zip(spans, child_total):
        duration = span["end"] - span["start"]
        own = duration - children
        if own < -1e-6:
            raise BenchError(f"children of span {span['name']} outlast it")
        layer = span["name"].split(".")[0]
        if layer not in layers:
            raise BenchError(f"span {span['name']} names no known layer")
        layers[layer] += own
        if span["parent"] is None:
            top_level += duration
    residual = wall_s - top_level
    if residual < 0:
        raise BenchError("spans cover more than the traced wall time")
    return layers, residual


def span_total(report: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in report["spans"] if s["name"] == name)


def span_calls(report: dict, name: str) -> int:
    return sum(1 for s in report["spans"] if s["name"] == name)


def import_seconds(importtime: str, package: str) -> float:
    """Time spent executing ``package``'s own modules while importing, from
    ``python -X importtime`` (the sum of their self times)."""
    total_us = 0
    for line in importtime.splitlines():
        match = re.match(r"import time:\s*(\d+) \|\s*\d+ \|\s*(\S+)\s*$", line)
        if match and match.group(2).split(".")[0] == package:
            total_us += int(match.group(1))
    return total_us / 1e6


def traced(launcher: Launcher, log) -> tuple[dict, int, int]:
    """One untraced cold run (the baseline of the tracing overhead), a traced
    cold and warm run, and an ``engines`` run; per-layer metrics from them."""
    workload, seed = launcher.workload, launcher.seed
    gate = Gate(workload, seed)
    store = fresh_store(f"{workload}-store")
    plain = launcher.run("cold", store)
    check_cold(plain)
    gate.check(plain)
    store = fresh_store(f"{workload}-traced-store")
    cold = launcher.run("cold", store, trace=True)
    check_cold(cold)
    gate.check(cold)
    warm = launcher.run("warm", store, trace=True)
    check_warm(warm, cold)
    engines = launcher.run("engines")
    for mode, mode_fingerprint in engines["modes"].items():
        if mode_fingerprint != cold["fingerprint"]:
            raise BenchError(f"engine mode {mode} changes the results")

    wall = cold["wall_s"]
    layers, residual = self_times(cold["spans"], wall)
    totals = counts(cold)
    mode_s = {mode: sum(r["run_s"] for r in engines["engine_runs"] if r["mode"] == mode)
              for mode in engines["modes"]}
    hops = totals["flit_hops"]
    run_s = span_total(cold, "sweeps.run")
    evaluate_s = span_total(cold, "sweeps.evaluate")
    rows = Path(store, "results.jsonl")
    metrics = {
        "import.repro_s": span_total(cold, "import.repro"),
        "import.scipy_stats_s": import_seconds(cold["importtime"], "scipy"),
        "topology.generate_s": span_total(cold, "topology.generate"),
        "topology.calls": span_calls(cold, "topology.generate"),
        "core.build_s": span_total(cold, "core.build"),
        "core.calls": span_calls(cold, "core.build"),
        "traffic.generate_s": span_total(cold, "traffic.generate"),
        "simulator.run_s": span_total(cold, "simulator.run"),
        "simulator.flit_hops": hops,
        "simulator.hops_per_s": hops / mode_s["full"],
        "simulator.core_hops_per_s": hops / mode_s["reference"],
        "simulator.sync_only_hops_per_s": hops / mode_s["sync_only"],
        "simulator.fast_path_speedup": mode_s["reference"] / mode_s["full"],
        "simulator.stagger_bubble_gain": mode_s["sync_only"] / mode_s["full"],
        "simulator.probe_s": cold["probe_s"],
        "simulator.coalesced_ticks": totals["coalesced_ticks"],
        "simulator.coalesce_snapshots": totals["coalesce_snapshots"],
        "simulator.coalesce_batches": totals["coalesce_batches"],
        "simulator.coalesce_verify_failures": totals["coalesce_verify_failures"],
        "simulator.probe_yield": (totals["coalesce_batches"] / totals["coalesce_snapshots"]
                                  if totals["coalesce_snapshots"] else 0.0),
        "stats.latencies_s": span_total(cold, "stats.latencies"),
        "sweeps.run_s": run_s,
        "sweeps.evaluate_s": evaluate_s,
        "sweeps.overhead_s": run_s - evaluate_s,
        "sweeps.points_computed": cold["computed"],
        "sweeps.cache_hits": warm["cache_hits"],
        "store.append_s": span_total(cold, "store.append"),
        "store.rows": rows.read_bytes().count(b"\n") if rows.exists() else 0,
        "store.bytes": rows.stat().st_size if rows.exists() else 0,
        "store.read_s": span_total(warm, "store.read"),
        "analysis.render_s": span_total(cold, "analysis.render"),
        "process.residual_s": residual,
        "obs.tracing_overhead_s": wall - plain["wall_s"],
        "trace.wall_s": wall,
        "import.warm_share": span_total(warm, "import.repro") / warm["wall_s"],
        **{f"{layer}.self_share": layers[layer] / wall for layer in LAYERS},
        "process.residual_share": residual / wall,
    }
    write_trace(workload, seed, {"plain": plain, "cold": cold, "warm": warm, "engines": engines})
    log(f"traced wall {wall:.3f} s (untraced {plain['wall_s']:.3f} s); "
        f"layer self times + residual = {sum(layers.values()) + residual:.6f} s")
    return metrics, 4, 0


def write_trace(workload: str, seed: int, runs: dict) -> None:
    """The traced run's spans, one run id per child process."""
    spans = []
    for phase, report in runs.items():
        run_id = f"{workload}-{seed}-{phase}"
        spans += [dict(span, run=run_id) for span in report.get("spans", ())]
    path = WORK_DIR / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def validate(metrics: dict, declared: dict) -> None:
    """Refuse any result that could make a gate pass vacuously: a declared
    metric that is missing, not a finite number, or not positive (zero is
    allowed only for the per-layer values listed in ``MAY_BE_ZERO``)."""
    for name in declared:
        if name not in metrics:
            raise BenchError(f"metric {name} is missing")
        value = metrics[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise BenchError(f"metric {name} is not a finite number: {value!r}")
        if value <= 0 and name not in MAY_BE_ZERO:
            raise BenchError(f"metric {name} is {value!r}; it must be positive")
    extra = set(metrics) - set(declared)
    if extra:
        raise BenchError(f"undeclared metrics {sorted(extra)}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units
                    if name in metrics},
    })


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> int:
    def log(message: str) -> None:
        print(f"[{workload}] {message}", flush=True)

    units = PER_LAYER if trace else END_TO_END
    launcher = Launcher(workload, seed, deadline)
    attempted, failed, metrics = 1, 1, {}
    try:
        if trace:
            metrics, attempted, failed = traced(launcher, log)
        else:
            metrics, attempted, failed = timed(launcher, seconds, log)
        validate(metrics, units)
    except BenchError as exc:
        log(f"FAILED: {exc}")
        failed = max(failed, 1)
    correct = failed == 0
    for name, unit in units.items():
        if name in metrics:
            log(f"{name} = {metrics[name]:.6g} {unit}")
    log(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")
    host = provenance(seed, launcher.code_salt)
    print(json.dumps({"provenance": host}), flush=True)
    line = result_line(correct, attempted, failed, metrics, units)
    results = WORK_DIR / f"results-{workload}-{seed}-trace{int(trace)}.json"
    results.write_text(json.dumps({"workload": workload, "provenance": host,
                                   "result": json.loads(line)}, indent=2) + "\n")
    print(line, flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    selftest.check(sys.modules[__name__])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro package under src/ next to the benchmark", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    # One CPU for the launcher and every child: a child the scheduler moves
    # between the CPUs of a shared host ran up to twice as unsteady.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Compile once so no timed run pays for bytecode, as no repeat user does,
    # and import once so no timed run pays for a cold page cache.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
                   cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=120)
    subprocess.run([sys.executable, "-c", "import repro.cli"],
                   cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=120)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        deadline = started + INVOCATION_LIMIT_S
        status |= run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        started = time.perf_counter()
    return status


if __name__ == "__main__":
    sys.exit(main())
