"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.strategies import ThreadingDesign


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_figure_commands_registered(self):
        parser = build_parser()
        for command in (
            "table1", "table4", "table6", "table7",
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fig10", "fig15", "fig16", "fig19", "fig20",
            "fig21", "fig22", "project", "fleet",
        ):
            args = {
                "project": [command, "--alpha", "0.1", "--n", "10", "--a", "2"],
                "fleet": [command, "--speedups", "web=1.1"],
            }.get(command, [command])
            parsed = parser.parse_args(args)
            assert parsed.command == command


class TestStaticCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Skylake" in output

    def test_table5_and_params_print_the_same_glossary(self, capsys):
        from repro.paperdata.table5 import TABLE5_PARAMETERS

        assert main(["table5"]) == 0
        output = capsys.readouterr().out
        assert main(["params"]) == 0
        assert capsys.readouterr().out == output
        title, *rows = output.splitlines()
        assert title == "Table 5: Accelerometer model parameters"
        # Two lines per parameter: symbol, units and description, then
        # the API field the symbol maps to.
        assert len(rows) == 2 * len(TABLE5_PARAMETERS)
        for parameter, row, field in zip(
            TABLE5_PARAMETERS, rows[::2], rows[1::2]
        ):
            assert row.split()[0] == parameter.symbol
            assert f"[{parameter.units:6s}]" in row
            assert row.endswith(parameter.description)
            assert field.split("-> ", 1)[1] == parameter.api_field

    def test_table4(self, capsys):
        main(["table4"])
        output = capsys.readouterr().out
        assert "orchestration" in output.lower()

    def test_fig20(self, capsys):
        main(["fig20"])
        output = capsys.readouterr().out
        assert "compression" in output
        assert "13.6" in output  # on-chip ours

    def test_fig15(self, capsys):
        main(["fig15"])
        output = capsys.readouterr().out
        assert "cache1" in output
        assert "marker" in output

    def test_fig19_markers(self, capsys):
        main(["fig19"])
        output = capsys.readouterr().out
        assert "off-chip-sync" in output

    def test_fig21_and_fig22(self, capsys):
        main(["fig21"])
        main(["fig22"])
        output = capsys.readouterr().out
        assert "breakeven" in output


class TestProjectCommand:
    def test_project_prints_speedup(self, capsys):
        main([
            "project", "--alpha", "0.15", "--n", "15008", "--a", "5",
            "--c", "2.3e9", "--design", "sync", "--placement", "on-chip",
        ])
        output = capsys.readouterr().out
        assert "13.64" in output

    def test_fleet_command(self, capsys):
        main(["fleet", "--speedups", "web=1.1,cache1=1.14"])
        output = capsys.readouterr().out
        assert "capacity gain" in output


class TestAnalysisCommands:
    SCENARIO_ARGS = ["--alpha", "0.15", "--n", "9629", "--a", "27",
                     "--c", "2.3e9", "--l", "2300"]

    def test_bounds(self, capsys):
        main(["bounds", *self.SCENARIO_ARGS, "--cb", "5.62"])
        output = capsys.readouterr().out
        assert "binding constraint" in output
        assert "g_breakeven: 425.0" in output

    def test_bounds_without_cb_skips_landmarks(self, capsys):
        main(["bounds", *self.SCENARIO_ARGS])
        output = capsys.readouterr().out
        assert "g_breakeven" not in output

    def test_sensitivity(self, capsys):
        main(["sensitivity", *self.SCENARIO_ARGS])
        output = capsys.readouterr().out
        assert "alpha" in output
        assert "most sensitive overhead: L" in output

    def test_batch(self, capsys):
        main([
            "batch", "--alpha", "0.52", "--n", "1000", "--a", "1",
            "--c", "2.5e9", "--o0", "250000", "--o1", "12500",
            "--design", "async-distinct-thread", "--placement", "remote",
        ])
        output = capsys.readouterr().out
        assert "minimum profitable batch size" in output

    def test_workloads(self, capsys):
        main(["workloads"])
        output = capsys.readouterr().out
        assert "cache1" in output
        assert "encryption" in output

    def test_demand_risk(self, capsys):
        main(["demand-risk", "--growths", "0.5,1.0,2.0"])
        output = capsys.readouterr().out
        assert "stranded" in output
        assert output.count("\n") >= 4

    def test_capacity(self, capsys):
        main([
            "capacity", "--n", "9629", "--service-cycles", "800",
            "--c", "2.3e9", "--q-budget", "200",
        ])
        output = capsys.readouterr().out
        assert "engines per host" in output


class TestSimulationCommands:
    """Characterization-backed commands run end to end on a service
    subset (kept small for test runtime)."""

    def test_fig9_subset(self, capsys):
        main(["fig9", "--services", "cache2"])
        output = capsys.readouterr().out
        assert "cache2" in output

    def test_fig1_subset(self, capsys):
        main(["fig1", "--services", "cache2"])
        output = capsys.readouterr().out
        assert "orchestration" in output

    def test_table6(self, capsys):
        main(["table6"])
        output = capsys.readouterr().out
        assert "aes-ni" in output
        assert "inference" in output


class TestEveryOffloadDesign:
    """simulate and resilience run every threading design they offer
    (their --design choices are these values)."""

    DESIGNS = [design.value for design in ThreadingDesign]

    @pytest.mark.parametrize("design", DESIGNS)
    def test_simulate(self, capsys, design):
        assert main(["simulate", "--design", design, "--seed", "2020"]) == 0
        assert f"design:            {design}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("design", DESIGNS)
    def test_resilience(self, capsys, design):
        assert main(["resilience", "--no-cache", "--design", design]) == 0
        assert "over 9 cells" in capsys.readouterr().out


class TestSharedDeviceCommands:
    def test_simulate_shared_device(self, capsys):
        assert main([
            "simulate", "--shared-device", "--tenants", "2",
            "--batch-size", "4", "--drop", "0.1",
        ]) == 0
        output = capsys.readouterr().out
        assert "async (shared device)" in output
        assert "doorbell batch:    4" in output
        assert "doorbell attempts" in output
        assert "device utilization" in output

    def test_contention_writes_json_report(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "contention.json"
        assert main([
            "contention", "--tenants", "1,2",
            "--output", str(report_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "erosion" in output
        payload = json.loads(report_path.read_text())
        assert payload["study"] == "shared-device-contention"
        assert [row["tenants"] for row in payload["rows"]] == [1, 2]


class TestSimulateFaultFlags:
    """Every parsed fault flag reaches the simulated policy."""

    BASE = ["simulate", "--drop", "0.3", "--design", "async"]

    def _run(self, capsys, *extra):
        assert main([*self.BASE, *extra]) == 0
        return capsys.readouterr().out

    def test_no_fallback_loses_instead_of_falling_back(self, capsys):
        assert "fallbacks:         0\n" not in self._run(capsys)
        assert "fallbacks:         0\n" in self._run(capsys, "--no-fallback")

    def test_spike_flags_change_the_output(self, capsys):
        healthy = self._run(capsys)
        spiky = self._run(capsys, "--spike", "0.3", "--spike-cycles", "5000")
        assert spiky != healthy


class TestTraceCommand:
    """The observability CLI surface: `trace` plus the --trace-out /
    --metrics-out flags on simulate."""

    def test_trace_writes_every_artifact(self, capsys, tmp_path):
        import json

        assert main([
            "trace", "--service", "cache1", "--requests", "20",
            "--windows", "8", "--output", str(tmp_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "critical-path attribution" in output
        trace = json.loads((tmp_path / "cache1-trace.json").read_text())
        assert trace["traceEvents"]
        spans = json.loads((tmp_path / "cache1-spans.json").read_text())
        assert spans["resourceSpans"]
        metrics = json.loads((tmp_path / "cache1-metrics.json").read_text())
        assert metrics["schema"] == "repro-windowed-metrics-v1"
        assert len(metrics["windows"]) == 8
        assert (tmp_path / "cache1-profile.folded").read_text().strip()
        assert (tmp_path / "cache1-windows.svg").read_text().startswith("<svg")

    def test_simulate_trace_out_flags(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "cell.json"
        metrics_path = tmp_path / "cell-metrics.json"
        assert main([
            "simulate", "--drop", "0.2", "--timeout", "2000",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "fault-recovery cost" in output
        payload = json.loads(trace_path.read_text())
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert {"M", "X"} <= phases
        metrics = json.loads(metrics_path.read_text())
        assert metrics["schema"] == "repro-windowed-metrics-v1"
        assert sum(w["fault_drops"] for w in metrics["windows"]) > 0
