"""Tests for the command-line interface and the parallel sweep runner."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.parallel import (
    SweepPointSpec,
    evaluate_point,
    parallel_figure2_points,
    run_points,
)


class TestCli:
    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_topology_command(self, capsys, tmp_path):
        rc = main(["topology", "--switches", "12", "--seed", "3",
                   "--save", str(tmp_path / "net.json")])
        assert rc == 0
        output = capsys.readouterr().out
        assert "spanning tree root" in output
        assert (tmp_path / "net.json").exists()

    def test_figure2_command(self, capsys):
        rc = main(["--scale", "smoke", "figure2", "--network-sizes", "16"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "destinations" in output
        assert "16-switch network" in output

    def test_figure3_command(self, capsys):
        rc = main([
            "--scale", "smoke", "figure3", "--network-size", "16",
            "--degrees", "4", "--rates", "0.01",
        ])
        assert rc == 0
        output = capsys.readouterr().out
        assert "4 destinations" in output

    def test_compare_command_bound_only(self, capsys):
        rc = main([
            "--scale", "smoke", "compare", "--network-size", "16",
            "--destinations", "8", "--bound-only",
        ])
        assert rc == 0
        output = capsys.readouterr().out
        assert "speedup" in output

    @pytest.mark.parametrize("verb", ["summarize", "validate"])
    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_obs_unreadable_snapshot_is_a_one_line_error(
        self, capsys, tmp_path, verb, content
    ):
        path = tmp_path / "snapshot.json"
        if content is not None:
            path.write_text(content)
        assert main(["obs", verb, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"obs: cannot read {path}")

    @pytest.mark.parametrize("argv", [
        ["sweep", "figure2", "--export", "{missing}/out.json"],
        ["sweep", "figure3", "--export", "{missing}/out.json"],
        ["sweep", "compare", "--export", "{tmp}"],
        ["figure2", "--telemetry", "{file}/obs.json"],
        ["figure3", "--telemetry", "{file}/obs.json"],
        ["compare", "--telemetry", "{file}/obs.json"],
        ["sweep", "figure3", "--telemetry", "{file}/nested/obs.json"],
        ["sweep", "serve", "--telemetry", "{file}/obs.json"],
        ["sweep", "merge", "--into", "{tmp}/merged", "{missing}"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_misuse_is_a_one_line_error_before_any_work(self, tmp_path, argv):
        """A bad output destination or merge source ends in exit 2 and one
        stderr line, and fails before the sweep computes anything."""
        (tmp_path / "file").write_text("")
        paths = {"tmp": tmp_path, "missing": tmp_path / "missing",
                 "file": tmp_path / "file"}
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--scale", "smoke",
             *(arg.format(**paths) for arg in argv)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            timeout=60,
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert completed.stderr.count("\n") == 1
        assert "Traceback" not in completed.stderr

    def test_verify_command(self, capsys):
        rc = main(["verify", "--switches", "16", "--rounds", "1"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "VERIFICATION PASSED" in output

    def test_hotspot_command(self, capsys):
        rc = main(["hotspot", "--switches", "16", "--destinations", "2", "8",
                   "--samples", "20"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "P(LCA is root)" in output


class TestParallelSweeps:
    def test_spec_builder(self):
        specs = parallel_figure2_points(16, [1, 4, 8], samples=2, message_length_flits=16)
        assert len(specs) == 3
        assert all(spec.workload_kind == "single-multicast" for spec in specs)
        assert [spec.x for spec in specs] == [1.0, 4.0, 8.0]

    def test_evaluate_point_single_multicast(self):
        spec = SweepPointSpec(
            workload_kind="single-multicast",
            network_size=16,
            topology_seed=3,
            message_length_flits=16,
            workload_params=(("num_destinations", 4), ("samples", 2)),
            workload_seed=5,
            x=4.0,
        )
        result = evaluate_point(spec)
        assert len(result.latencies_us) == 2
        assert result.mean_us > 10.0
        assert result.spec is spec

    def test_evaluate_point_mixed(self):
        spec = SweepPointSpec(
            workload_kind="mixed",
            network_size=16,
            topology_seed=3,
            message_length_flits=16,
            workload_params=(
                ("rate_per_us", 0.02),
                ("multicast_destinations", 4),
                ("num_messages", 10),
            ),
            workload_seed=5,
            x=0.02,
        )
        result = evaluate_point(spec)
        assert len(result.latencies_us) == 10

    def test_unknown_kind_rejected(self):
        spec = SweepPointSpec(
            workload_kind="bogus",
            network_size=16,
            topology_seed=3,
            message_length_flits=16,
            workload_params=(),
            workload_seed=5,
        )
        with pytest.raises(ValueError):
            evaluate_point(spec)

    def test_run_points_sequential_matches_parallel_api(self):
        specs = parallel_figure2_points(16, [1, 4], samples=1, message_length_flits=16)
        sequential = run_points(specs, parallel=False)
        assert [r.spec.x for r in sequential] == [1.0, 4.0]
        assert all(r.mean_us > 10.0 for r in sequential)

    @pytest.mark.slow
    def test_run_points_with_process_pool(self):
        specs = parallel_figure2_points(16, [1, 4], samples=1, message_length_flits=16)
        results = run_points(specs, parallel=True, max_workers=2)
        assert len(results) == 2
        assert all(r.latencies_us for r in results)
