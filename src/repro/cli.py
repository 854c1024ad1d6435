"""Command-line interface: regenerate any paper table or figure.

Usage (installed as ``accelerometer``, also ``python -m repro``)::

    accelerometer fig9                # functionality breakdown, all services
    accelerometer fig8                # Cache1 leaf IPC across generations
    accelerometer table6              # the three validation case studies
    accelerometer fig20               # Table-7 / Fig-20 projections
    accelerometer project --alpha 0.15 --a 5 --design sync ...
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .core import Placement, ThreadingDesign, project
from .errors import ParameterError, ReproError


def _print(text: str) -> None:
    print(text)


def _parse_list(flag: str, text: str, convert: Callable[[str], float]) -> list:
    """The comma-separated values of *flag*, each through *convert*; a
    malformed item is a one-line :class:`ParameterError` naming *flag*."""
    values = []
    for item in text.split(","):
        try:
            values.append(convert(item))
        except ValueError:
            raise ParameterError(
                f"{flag}: malformed item {item!r} in {text!r}") from None
    return values


def _runtime_kwargs(args: argparse.Namespace) -> dict:
    """Map the shared --workers/--no-cache flags onto the batch
    executor's keyword arguments.  Caching defaults ON for the CLI (the
    runs it issues are exact repeats across figure commands); pass
    --no-cache to force fresh simulation."""
    return {
        "workers": getattr(args, "workers", 1),
        "cache": not getattr(args, "no_cache", False),
    }


def _runtime_context(args: argparse.Namespace, label: str):
    """Like :func:`_runtime_kwargs`, but for commands that report what
    the runtime actually did: resolves the cache up-front (so hit/miss
    counters are readable afterwards), attaches a fresh
    :class:`BatchReport`, and builds a
    :class:`~repro.observability.RuntimeTelemetry` when --telemetry-out
    was given.  Returns ``(executor_kwargs, report, store, telemetry)``.
    """
    from .runtime.batch import BatchReport
    from .runtime.cache import resolve_cache

    store = resolve_cache(not getattr(args, "no_cache", False))
    report = BatchReport()
    telemetry = None
    if getattr(args, "telemetry_out", ""):
        from .observability import RuntimeTelemetry

        telemetry = RuntimeTelemetry(label=label)
    kwargs = {
        "workers": getattr(args, "workers", 1),
        "cache": store,
        "report": report,
        "telemetry": telemetry,
    }
    return kwargs, report, store, telemetry


def _print_batch_report(report, store) -> None:
    """Surface the executor's accounting (write-only until now)."""
    if report.total == 0:
        return
    line = (
        f"batch: {report.total} specs — {report.executed} executed, "
        f"{report.cache_hits} cache hits, "
        f"{report.deduplicated} deduplicated"
    )
    if report.pool_fallbacks:
        line += (f", {report.pool_fallbacks} rerun serially after a "
                 "worker died")
    if report.simulated_nothing:
        line += " (served entirely from cache)"
    _print(line)
    if store is not None:
        _print(f"cache: {store.hits} hits / {store.misses} misses "
               f"({len(store)} entries on disk)")


def _finish_telemetry(args: argparse.Namespace, telemetry) -> None:
    if telemetry is None:
        return
    from .observability import write_json_artifact

    _print(f"wrote {write_json_artifact(telemetry.payload(), args.telemetry_out)}")


# ---------------------------------------------------------------------------
# Figure commands.
# ---------------------------------------------------------------------------


def _cmd_table1(args: argparse.Namespace) -> None:
    from .paperdata import PLATFORMS

    _print("Table 1: CPU platform attributes")
    for name, spec in PLATFORMS.items():
        cores = " or ".join(str(c) for c in spec.cores_per_socket)
        llc = " or ".join(f"{m:g}" for m in spec.llc_mib)
        _print(
            f"  {name}: {spec.microarchitecture}, {cores} cores/socket, "
            f"SMT {spec.smt}, L2 {spec.l2_kib} KiB, LLC {llc} MiB"
        )


def _cmd_table4(args: argparse.Namespace) -> None:
    from .paperdata import FINDINGS

    _print("Table 4: findings and acceleration opportunities")
    for finding in FINDINGS:
        _print(f"  - {finding.finding} (Sec. {', '.join(finding.sections)})")
        _print(f"      => {finding.opportunity}")
    if getattr(args, "measured", False):
        from .characterization import characterize_all, findings_report

        services = args.services.split(",") if args.services else None
        runs = characterize_all(
            services, seed=args.seed, **_runtime_kwargs(args)
        )
        _print("")
        _print(findings_report(runs))


def _characterize_services(args: argparse.Namespace):
    from .characterization import characterize_all

    services = args.services.split(",") if args.services else None
    return characterize_all(services, seed=args.seed, **_runtime_kwargs(args))


def _cmd_fig1(args: argparse.Namespace) -> None:
    from .characterization import fig1_orchestration_split
    from .profiling import render_table

    runs = _characterize_services(args)
    rows = {name: fig1_orchestration_split(run) for name, run in runs.items()}
    _print(render_table(rows, ["application_logic", "orchestration"],
                        title="Fig. 1: application logic vs orchestration (% cycles)"))


def _cmd_fig2(args: argparse.Namespace) -> None:
    from .characterization import fig2_leaf_breakdown, fig2_reference_rows
    from .paperdata.categories import LeafCategory
    from .profiling import render_table

    runs = _characterize_services(args)
    rows = {name: fig2_leaf_breakdown(run) for name, run in runs.items()}
    if not args.services:
        rows.update(fig2_reference_rows())
    _print(render_table(rows, list(LeafCategory),
                        title="Fig. 2: leaf-category cycle breakdown (%)"))


def _cmd_fig3(args: argparse.Namespace) -> None:
    from .characterization import fig3_memory_breakdown
    from .profiling import render_table

    runs = _characterize_services(args)
    rows = {name: fig3_memory_breakdown(run) for name, run in runs.items()}
    _print(render_table(rows, ["copy", "free", "alloc", "move", "set", "compare"],
                        title="Fig. 3: memory leaf breakdown (% of memory cycles)"))


def _cmd_fig4(args: argparse.Namespace) -> None:
    from .characterization import fig4_copy_origins
    from .profiling import render_table

    runs = _characterize_services(args)
    rows = {name: fig4_copy_origins(run) for name, run in runs.items()}
    _print(render_table(rows, ["io", "io_prepost", "serialization", "application_logic"],
                        title="Fig. 4: memory-copy origins (% of copy cycles)"))


def _cmd_sub_breakdown(args: argparse.Namespace) -> None:
    """fig5, fig6 and fig7: the figure is the command's name."""
    from .characterization import (
        fig5_kernel_breakdown,
        fig6_sync_breakdown,
        fig7_clib_breakdown,
    )
    from .profiling import render_table

    producers = {
        "fig5": (fig5_kernel_breakdown, "Fig. 5: kernel leaf breakdown (%)"),
        "fig6": (fig6_sync_breakdown, "Fig. 6: synchronization breakdown (%)"),
        "fig7": (fig7_clib_breakdown, "Fig. 7: C-library breakdown (%)"),
    }
    produce, title = producers[args.command]
    runs = _characterize_services(args)
    rows = {name: produce(run) for name, run in runs.items()}
    columns: List[str] = []
    for breakdown in rows.values():
        for key in breakdown:
            if key not in columns:
                columns.append(key)
    _print(render_table(rows, columns, title=title))


def _cmd_fig8(args: argparse.Namespace) -> None:
    from .characterization import (
        characterize_across_generations,
        fig10_functionality_ipc,
        fig8_leaf_ipc,
    )

    runs = characterize_across_generations(
        seed=args.seed, **_runtime_kwargs(args)
    )
    _print("Fig. 8: Cache1 per-core IPC per leaf category")
    for category, by_gen in fig8_leaf_ipc(runs).items():
        cells = "  ".join(f"{gen}={ipc:.2f}" for gen, ipc in by_gen.items())
        _print(f"  {category.value:16s} {cells}")
    _print("Fig. 10: Cache1 per-core IPC per functionality")
    for category, by_gen in fig10_functionality_ipc(runs).items():
        cells = "  ".join(f"{gen}={ipc:.2f}" for gen, ipc in by_gen.items())
        _print(f"  {category.value:24s} {cells}")


def _cmd_fig9(args: argparse.Namespace) -> None:
    from .characterization import fig9_functionality_breakdown
    from .paperdata.categories import FunctionalityCategory
    from .profiling import render_table

    runs = _characterize_services(args)
    rows = {name: fig9_functionality_breakdown(run) for name, run in runs.items()}
    _print(render_table(rows, list(FunctionalityCategory),
                        title="Fig. 9: functionality cycle breakdown (%)"))


def _print_cdf(figure) -> None:
    from .units import format_bytes

    for service, series in figure.series.items():
        _print(f"  {service}:")
        for label, cumulative in series:
            _print(f"    {label:>12s}  {cumulative:5.3f}")
    for marker, value in figure.markers.items():
        _print(f"  marker {marker}: {format_bytes(value)}")


def _cmd_fig15(args: argparse.Namespace) -> None:
    from .characterization import fig15_encryption_cdf

    _print("Fig. 15: CDF of bytes encrypted (Cache1)")
    _print_cdf(fig15_encryption_cdf())


def _cmd_fig19(args: argparse.Namespace) -> None:
    from .characterization import fig19_compression_cdf

    _print("Fig. 19: CDF of bytes compressed (Feed1, Cache1)")
    _print_cdf(fig19_compression_cdf())


def _cmd_fig21(args: argparse.Namespace) -> None:
    from .characterization import fig21_copy_cdf

    _print("Fig. 21: CDF of memory-copy sizes")
    _print_cdf(fig21_copy_cdf())


def _cmd_fig22(args: argparse.Namespace) -> None:
    from .characterization import fig22_allocation_cdf

    _print("Fig. 22: CDF of allocation sizes")
    _print_cdf(fig22_allocation_cdf())


def _cmd_table6(args: argparse.Namespace) -> None:
    from .validation import run_all_case_studies

    _print("Table 6: case-study validation (model vs simulated A/B)")
    _print(f"{'study':12s} {'model':>8s} {'simulated':>10s} "
           f"{'paper est':>10s} {'paper real':>11s} {'|m-s|':>7s}")
    for name, outcome in run_all_case_studies(**_runtime_kwargs(args)).items():
        _print(
            f"{name:12s} {outcome.model_speedup_pct:7.2f}% "
            f"{outcome.simulated_speedup_pct:9.2f}% "
            f"{outcome.paper_estimated_pct:9.2f}% "
            f"{outcome.paper_real_pct:10.2f}% "
            f"{outcome.model_vs_simulation_error:6.2f}pp"
        )


def _cmd_fig20(args: argparse.Namespace) -> None:
    from .application import fig20_comparison

    _print("Fig. 20 / Table 7: projected speedups (ours vs paper, %)")
    for overhead, rows in fig20_comparison().items():
        _print(f"  {overhead}:")
        for strategy, (ours, paper) in rows.items():
            paper_text = f"{paper:6.2f}" if paper is not None else "   n/a"
            _print(f"    {strategy:18s} ours {ours:6.2f}   paper {paper_text}")


def _cmd_fig16(args: argparse.Namespace) -> None:
    from .paperdata.categories import FunctionalityCategory
    from .validation import functionality_shift, simulate_all_case_studies

    titles = {
        "aes-ni": "fig16 (Cache1 + AES-NI)",
        "encryption": "fig17 (Cache3 + encryption device)",
        "inference": "fig18 (Ads1 + remote inference)",
    }
    results = simulate_all_case_studies(**_runtime_kwargs(args))
    for name, result in results.items():
        title = titles.get(name, name)
        shift = functionality_shift(result)
        _print(f"{title}: freed {shift.freed_cycle_fraction * 100:.1f}% of cycles")
        baseline = shift.baseline_shares_pct()
        accelerated = shift.accelerated_shares_pct()
        for category in FunctionalityCategory:
            before = baseline.get(category, 0.0)
            after = accelerated.get(category, 0.0)
            if before > 0.05 or after > 0.05:
                _print(f"    {category.value:26s} {before:5.1f}% -> {after:5.1f}%")


def _cmd_project(args: argparse.Namespace) -> None:
    result = project(
        total_cycles=args.c,
        kernel_fraction=args.alpha,
        offloads_per_unit=args.n,
        peak_speedup=args.a,
        design=ThreadingDesign(args.design),
        placement=Placement(args.placement),
        dispatch_cycles=args.o0,
        interface_cycles=args.l,
        queue_cycles=args.q,
        thread_switch_cycles=args.o1,
    )
    _print(f"speedup:           {result.speedup_percent:8.2f}%")
    _print(f"latency reduction: {result.latency_reduction_percent:8.2f}%")
    _print(f"ideal (Amdahl):    {(result.ideal_speedup - 1) * 100:8.2f}%")


def _build_project_scenario(args: argparse.Namespace):
    from .core import (
        AcceleratorSpec,
        KernelProfile,
        OffloadCosts,
        OffloadScenario,
    )

    return OffloadScenario(
        kernel=KernelProfile(
            total_cycles=args.c,
            kernel_fraction=args.alpha,
            offloads_per_unit=args.n,
            cycles_per_byte=args.cb,
        ),
        accelerator=AcceleratorSpec(args.a, Placement(args.placement)),
        costs=OffloadCosts(
            dispatch_cycles=args.o0,
            interface_cycles=args.l,
            queue_cycles=args.q,
            thread_switch_cycles=args.o1,
        ),
        design=ThreadingDesign(args.design),
    )


def _cmd_bounds(args: argparse.Namespace) -> None:
    from .core import bound_report

    _print(bound_report(_build_project_scenario(args)))


def _cmd_sensitivity(args: argparse.Namespace) -> None:
    from .core import sensitivity

    report = sensitivity(_build_project_scenario(args))
    _print(f"speedup: {(report.speedup - 1) * 100:.2f}%")
    _print("elasticities d(log S)/d(log p), largest first:")
    for name, value in report.ranked():
        _print(f"  {name:6s} {value:+8.4f}")
    _print(f"most sensitive overhead: {report.most_sensitive_overhead()}")


def _cmd_batch(args: argparse.Namespace) -> None:
    from .core import BatchingPolicy, min_profitable_batch_size, project_batched

    scenario = _build_project_scenario(args)
    minimum = min_profitable_batch_size(scenario)
    if minimum is None:
        _print("no batch size yields speedup > 1 for this scenario")
        return
    _print(f"minimum profitable batch size: {minimum}")
    for size in sorted({1, minimum, 2 * minimum, 8 * minimum}):
        projection = project_batched(scenario, BatchingPolicy(size))
        _print(
            f"  B={size:6d}  speedup {projection.result.speedup_percent:7.2f}%"
            f"  assembly wait {projection.assembly_wait_cycles:12.0f} cycles"
        )


def _cmd_capacity(args: argparse.Namespace) -> None:
    from .fleet import plan_capacity

    plan = plan_capacity(
        offload_rate=args.n,
        service_cycles=args.service_cycles,
        total_cycles=args.c,
        queue_budget_cycles=args.q_budget,
        max_utilization=args.max_util,
    )
    _print(f"engines per host:   {plan.engines}")
    _print(f"utilization:        {plan.utilization * 100:.1f}%")
    _print(f"expected Q:         {plan.expected_queue_cycles:.0f} cycles/offload")


def _cmd_workloads(args: argparse.Namespace) -> None:
    from .workloads import all_workloads

    _print(f"{'service':9s} {'req cycles':>11s} {'kernels':>40s}")
    for name, workload in all_workloads().items():
        kernels = ", ".join(
            f"{k}(n={int(v.offloads_per_unit):,})"
            for k, v in workload.kernels.items()
        )
        _print(f"{name:9s} {workload.request_cycles:11,.0f} {kernels:>40s}")


def _cmd_demand_risk(args: argparse.Namespace) -> None:
    from .fleet import DemandScenario, demand_risk_sweep

    forecast = DemandScenario(mean_rate=args.mean_rate)
    growths = _parse_list("--growths", args.growths, float)
    _print(f"{'realized growth':>15s} {'mean util':>10s} "
           f"{'stranded':>9s} {'shortfall h':>12s}")
    for growth, outcome in demand_risk_sweep(
        forecast, growths, args.service_cycles
    ):
        _print(
            f"{growth:15.2f} {outcome.mean_utilization * 100:9.1f}% "
            f"{outcome.stranded_fraction * 100:8.1f}% "
            f"{outcome.shortfall_hours:12d}"
        )


def _cmd_params(args: argparse.Namespace) -> None:
    from .paperdata.table5 import TABLE5_PARAMETERS

    _print("Table 5: Accelerometer model parameters")
    for parameter in TABLE5_PARAMETERS:
        _print(f"  {parameter.symbol:6s} [{parameter.units:6s}] "
               f"{parameter.description}")
        _print(f"         -> {parameter.api_field}")


def _cmd_export_data(args: argparse.Namespace) -> None:
    from .characterization import characterize_across_generations, characterize_all
    from .export import export_figure_data

    runtime = _runtime_kwargs(args)
    services = args.services.split(",") if args.services else None
    runs = characterize_all(services, seed=args.seed,
                            requests_target=args.requests, **runtime)
    generation_runs = None
    if not args.skip_ipc:
        generation_runs = characterize_across_generations(
            seed=args.seed, requests_target=args.requests, **runtime
        )
    for name, path in export_figure_data(args.output, runs,
                                         generation_runs).items():
        _print(f"wrote {path}")


def _cmd_validate_matrix(args: argparse.Namespace) -> None:
    from .validation import validation_matrix

    kwargs, report, store, telemetry = _runtime_context(
        args, label="validate-matrix"
    )
    summary = validation_matrix(**kwargs)
    _print(f"{'design':24s} {'alpha':>6s} {'L':>7s} {'model':>8s} "
           f"{'sim':>8s} {'|err|':>7s}")
    for cell in summary.cells:
        _print(
            f"{cell.design.value:24s} {cell.alpha:6.2f} "
            f"{cell.interface_cycles:7.0f} {cell.model_speedup_pct:7.2f}% "
            f"{cell.simulated_speedup_pct:7.2f}% {cell.error_pp:6.2f}pp"
        )
    _print(f"max error {summary.max_error_pp:.2f} pp, "
           f"mean {summary.mean_error_pp:.2f} pp over {len(summary.cells)} cells")
    _print_batch_report(report, store)
    _finish_telemetry(args, telemetry)


def _cmd_characterize(args: argparse.Namespace) -> None:
    from .characterization import characterize_all, fig9_functionality_breakdown

    kwargs, report, store, telemetry = _runtime_context(
        args, label="characterize"
    )
    services = args.services.split(",") if args.services else None
    runs = characterize_all(
        services, seed=args.seed, requests_target=args.requests, **kwargs
    )
    _print(f"{'service':9s} {'events':>10s}  top functionality shares")
    for name, run in runs.items():
        shares = fig9_functionality_breakdown(run)
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        detail = ", ".join(f"{cat.value} {pct:.1f}%" for cat, pct in top)
        _print(f"{name:9s} {run.simulation.events_processed:10,d}  {detail}")
    _print_batch_report(report, store)
    _finish_telemetry(args, telemetry)


def _cmd_telemetry(args: argparse.Namespace) -> None:
    from .observability import (
        chrome_payload,
        load_runtime_telemetry,
        summarize_runtime_telemetry,
        trace_data_from_payload,
        write_json_artifact,
        write_otlp_spans,
    )

    payload = load_runtime_telemetry(args.artifact)
    _print(summarize_runtime_telemetry(payload))
    if args.otlp_out or args.chrome_out:
        trace = trace_data_from_payload(payload)
        if args.otlp_out:
            _print(f"wrote {write_otlp_spans(trace, args.otlp_out)}")
        if args.chrome_out:
            path = write_json_artifact(chrome_payload(trace), args.chrome_out)
            _print(f"wrote {path}")


def _cmd_oversubscription(args: argparse.Namespace) -> None:
    from .application import oversubscription_study, saturation_level

    points = oversubscription_study(**_runtime_kwargs(args))
    _print(f"{'threads/core':>12s} {'throughput':>12s} {'mean lat':>10s} "
           f"{'p99 lat':>10s}")
    for point in points:
        _print(
            f"{point.threads_per_core:12d} "
            f"{point.throughput_per_mcycle:10.1f}/M "
            f"{point.mean_latency_cycles:10.0f} "
            f"{point.p99_latency_cycles:10.0f}"
        )
    _print(f"throughput saturates at {saturation_level(points)} threads/core")


def _cmd_render(args: argparse.Namespace) -> None:
    from .characterization import characterize_across_generations, characterize_all
    from .viz import render_all

    runtime = _runtime_kwargs(args)
    services = args.services.split(",") if args.services else None
    runs = characterize_all(services, seed=args.seed,
                            requests_target=args.requests, **runtime)
    generation_runs = None
    if not args.skip_ipc:
        generation_runs = characterize_across_generations(
            seed=args.seed, requests_target=args.requests, **runtime
        )
    written = render_all(args.output, runs, generation_runs)
    for name, path in written.items():
        _print(f"wrote {path}")


def _cmd_evaluate(args: argparse.Namespace) -> None:
    from .config import load_scenarios
    from .core import Accelerometer

    model = Accelerometer()
    _print(f"{'scenario':24s} {'speedup':>9s} {'latency':>9s}")
    for name, scenario in load_scenarios(args.config):
        result = model.evaluate(scenario)
        _print(
            f"{name:24s} {result.speedup_percent:8.2f}% "
            f"{result.latency_reduction_percent:8.2f}%"
        )


def _cmd_example_config(args: argparse.Namespace) -> None:
    from .config import dump_example

    dump_example(args.output)
    _print(f"wrote example configuration to {args.output}")


def _cmd_recommend(args: argparse.Namespace) -> None:
    from .application import quantify_recommendations

    services = args.services.split(",") if args.services else ["cache1"]
    for service in services:
        _print(f"{service}:")
        options = quantify_recommendations(service)
        for key, rec in sorted(
            options.items(), key=lambda kv: -kv[1].projected_speedup_pct
        ):
            _print(
                f"  {key:20s} {rec.projected_speedup_pct:6.2f}%  "
                f"({rec.mechanism})"
            )


def _cmd_report(args: argparse.Namespace) -> None:
    from .reports import generate_report

    text = generate_report(seed=args.seed, requests_target=args.requests,
                           **_runtime_kwargs(args))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        _print(f"wrote {args.output}")
    else:
        _print(text)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import run_lint

    return run_lint(args)


def _lint_arguments(parser: argparse.ArgumentParser) -> None:
    """lint's arguments live with the analyzer, imported only for lint."""
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(parser)


def _fault_policy_from_args(args: argparse.Namespace):
    from .faults import FaultPolicy

    return FaultPolicy(
        drop_probability=args.drop,
        spike_probability=args.spike,
        spike_cycles=args.spike_cycles,
        timeout_cycles=args.timeout,
        max_retries=args.retries,
        backoff_base_cycles=args.backoff,
        backoff_multiplier=args.backoff_multiplier,
        fallback_to_cpu=not args.no_fallback,
    )


def _export_traced_cell(args: argparse.Namespace, policy, design) -> None:
    """Shared --trace-out/--metrics-out handling for simulate/resilience:
    re-run the accelerated cell with a span tracer (same seed, same fault
    stream -- tracing changes nothing simulated) and export artifacts."""
    from .application.resilience import traced_resilience_run
    from .observability import (
        attribute_requests,
        export_chrome_trace,
        fault_cost_cycles,
        metrics_payload,
        write_json_artifact,
    )

    summary = traced_resilience_run(
        design=design,
        alpha=getattr(args, "alpha", 0.3),
        accel_speedup=getattr(args, "a", 8.0),
        seed=args.seed,
        **dataclasses.asdict(policy),
    )
    if args.trace_out:
        path = export_chrome_trace(summary.metrics, args.trace_out, summary.trace)
        _print(f"wrote {path}")
    if args.metrics_out:
        horizon = summary.config.window_cycles
        payload = metrics_payload(
            summary.metrics, horizon / 20.0, horizon, trace=summary.trace
        )
        _print(f"wrote {write_json_artifact(payload, args.metrics_out)}")
    attributions = attribute_requests(summary.trace)
    fault_cycles = sum(fault_cost_cycles(a) for a in attributions)
    total_latency = sum(a.latency for a in attributions)
    if total_latency > 0:
        _print(f"fault-recovery cost: {fault_cycles:,.0f} cycles "
               f"({fault_cycles / total_latency * 100:.1f}% of latency)")


#: simulate's shared-device-only flags and their defaults.
_SHARED_DEVICE_FLAGS = (
    ("--tenants", "tenants", 2),
    ("--tenant-weight", "tenant_weight", 1.0),
    ("--batch-size", "batch_size", 1),
)


def _reject_ignored_simulate_flags(args: argparse.Namespace) -> None:
    """simulate runs a private-device cell or a shared-device point;
    refuse a flag the chosen one would silently ignore."""
    if args.shared_device:
        for flag, value in (("--trace-out", args.trace_out),
                            ("--metrics-out", args.metrics_out)):
            if value:
                raise ParameterError(
                    f"{flag} is not supported with --shared-device")
        return
    for flag, name, default in _SHARED_DEVICE_FLAGS:
        if getattr(args, name) != default:
            raise ParameterError(f"{flag} requires --shared-device")


def _cmd_simulate_shared(args: argparse.Namespace) -> None:
    from .application.shared_device import run_shared_device_point

    policy = _fault_policy_from_args(args)
    point = run_shared_device_point(
        tenants=args.tenants,
        weight=args.tenant_weight,
        batch_size=args.batch_size,
        alpha=args.alpha,
        accel_speedup=args.a,
        seed=args.seed,
        **dataclasses.asdict(policy),
    )
    _print("design:            async (shared device)")
    _print(f"tenants:           {point.tenants} "
           f"(tenant-0 weight {point.weight:g})")
    _print(f"doorbell batch:    {point.batch_size}")
    _print(f"model speedup:     {point.model_speedup_pct:8.2f}%")
    _print(f"simulated speedup: {point.simulated_speedup_pct:8.2f}%")
    _print(f"model-vs-sim error:{point.error_pct:8.2f}%")
    _print(f"doorbell attempts: {point.attempts}")
    _print(f"doorbell drops:    {point.drops}")
    _print(f"device utilization:{point.device_utilization * 100:8.2f}%")


def _cmd_simulate(args: argparse.Namespace) -> None:
    from .application.resilience import run_resilience_point

    _reject_ignored_simulate_flags(args)
    if args.shared_device:
        _cmd_simulate_shared(args)
        return
    policy = _fault_policy_from_args(args)
    point = run_resilience_point(
        design=ThreadingDesign(args.design),
        alpha=args.alpha,
        accel_speedup=args.a,
        seed=args.seed,
        **dataclasses.asdict(policy),
    )
    _print(f"design:            {point.design.value}")
    _print(f"model speedup:     {point.model_speedup_pct:8.2f}%")
    _print(f"simulated speedup: {point.simulated_speedup_pct:8.2f}%")
    _print(f"model-vs-sim error:{point.error_pct:8.2f}%")
    _print(f"retries:           {point.retries}")
    _print(f"fallbacks:         {point.fallbacks}")
    _print(f"goodput fraction:  {point.goodput_fraction * 100:8.2f}%")
    if args.trace_out or args.metrics_out:
        _export_traced_cell(args, policy, ThreadingDesign(args.design))


def _cmd_resilience(args: argparse.Namespace) -> None:
    from .application.resilience import ads1_resilience_sweep, resilience_grid

    drops = _parse_list("--drops", args.drops, float)
    timeouts = _parse_list("--timeouts", args.timeouts, float)
    kwargs, report, store, telemetry = _runtime_context(
        args, label="resilience"
    )
    grid = resilience_grid(
        drop_probabilities=drops,
        timeout_cycles=timeouts,
        design=ThreadingDesign(args.design),
        seed=args.seed,
        **kwargs,
    )
    _print("Degraded-mode validation grid (simulated A/B vs closed form)")
    _print(f"{'drop':>6s} {'timeout':>9s} {'model':>8s} {'sim':>8s} "
           f"{'|err|':>7s} {'retries':>8s} {'fallbacks':>9s}")
    for point in grid.points:
        _print(
            f"{point.drop_probability:6.2f} {point.timeout_cycles:9.0f} "
            f"{point.model_speedup_pct:7.2f}% {point.simulated_speedup_pct:7.2f}% "
            f"{point.error_pct:6.2f}% {point.retries:8d} {point.fallbacks:9d}"
        )
    _print(f"max error {grid.max_error_pct:.2f}%, "
           f"mean {grid.mean_error_pct:.2f}% over {len(grid.points)} cells")
    _print_batch_report(report, store)
    _finish_telemetry(args, telemetry)
    _print("")
    _print("Ads1 remote-inference speedup erosion (model)")
    _print(f"{'drop':>6s} {'timeout':>11s} {'speedup':>9s} {'erosion':>9s}")
    for ads1 in ads1_resilience_sweep():
        _print(
            f"{ads1.drop_probability:6.2f} {ads1.timeout_cycles:11.0f} "
            f"{ads1.degraded_speedup_pct:8.2f}% {ads1.erosion_pp:8.2f}pp"
        )
    if args.trace_out or args.metrics_out:
        from .faults import FaultPolicy

        # Trace the worst-agreement cell: that is the one worth eyeballing.
        worst = grid.worst_point()
        _print("")
        _print(f"tracing worst cell: drop={worst.drop_probability:g} "
               f"timeout={worst.timeout_cycles:g}")
        policy = FaultPolicy(
            drop_probability=worst.drop_probability,
            timeout_cycles=worst.timeout_cycles,
            max_retries=worst.max_retries,
        )
        _export_traced_cell(args, policy, worst.design)


def _cmd_contention(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from .application.shared_device import (
        contention_case_study,
        contention_report,
    )

    tenant_counts = _parse_list("--tenants", args.tenants, int)
    rows = contention_case_study(
        tenant_counts=tenant_counts,
        accel_speedup=args.a,
        seed=args.seed,
    )
    _print("Shared-device contention (speedup erosion vs tenant count)")
    _print(f"{'tenants':>7s} {'private':>9s} {'shared':>9s} {'erosion':>9s} "
           f"{'util':>6s} {'queue':>10s}")
    for row in rows:
        _print(
            f"{row.tenants:7d} {row.private_speedup:8.4f}x "
            f"{row.shared_speedup:8.4f}x {row.erosion_pct:8.2f}% "
            f"{row.device_utilization:6.3f} {row.mean_queue_cycles:10.1f}"
        )
    if args.output:
        payload = json.dumps(contention_report(rows), indent=2,
                             sort_keys=True)
        path = Path(args.output)
        path.write_text(payload + "\n")
        _print(f"wrote {path}")


def _cmd_trace(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .characterization import characterize
    from .observability import (
        attribute_requests,
        attribution_totals,
        export_chrome_trace,
        metrics_payload,
        write_folded_stacks,
        write_json_artifact,
        write_otlp_spans,
    )
    from .viz import timeline_chart

    if args.windows < 1:
        raise ParameterError(f"--windows must be >= 1, got {args.windows}")
    run = characterize(
        args.service, seed=args.seed, requests_target=args.requests,
        num_cores=args.cores, trace=True,
    )
    summary = run.simulation
    trace = summary.trace
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    horizon = summary.config.window_cycles
    window = horizon / args.windows
    payload = metrics_payload(summary.metrics, window, horizon, trace=trace)

    written = [
        export_chrome_trace(
            summary.metrics, out / f"{args.service}-trace.json", trace
        ),
        write_otlp_spans(trace, out / f"{args.service}-spans.json"),
        write_json_artifact(payload, out / f"{args.service}-metrics.json"),
        write_folded_stacks(trace, out / f"{args.service}-profile.folded"),
    ]
    # The SVG plots the artifact's own windows: one bucketing pass.
    svg_path = out / f"{args.service}-windows.svg"
    svg_path.write_text(timeline_chart(
        {
            name: [point[name] for point in payload["windows"]]
            for name in ("arrivals", "completions", "goodput")
        },
        title=f"{args.service}: requests per window",
        y_label="requests/window",
    ))
    written.append(svg_path)
    for path in written:
        _print(f"wrote {path}")

    attributions = attribute_requests(trace)
    totals = attribution_totals(attributions)
    total_latency = sum(a.latency for a in attributions)
    _print("")
    _print(f"critical-path attribution over {len(attributions)} requests "
           f"({len(trace.spans)} spans):")
    for name, cycles in sorted(totals.items(), key=lambda kv: -kv[1]):
        if cycles > 0:
            _print(f"  {name:32s} {cycles:14.0f} cycles "
                   f"({cycles / total_latency * 100:5.1f}% of latency)")


def _cmd_fleet(args: argparse.Namespace) -> None:
    from .fleet import default_fleet, fleet_projection

    speedups = {}
    for item in args.speedups.split(","):
        service, _, value = item.partition("=")
        try:
            speedups[service.strip()] = float(value)
        except ValueError:
            raise ParameterError(
                f"--speedups: malformed pair {item!r}, expected "
                "SERVICE=SPEEDUP") from None
    projection = fleet_projection(default_fleet(args.servers), speedups)
    _print(f"fleet capacity gain: {projection.capacity_gain_percent:.2f}%")
    _print(f"servers freed:       {projection.servers_freed:,.0f} "
           f"of {projection.composition.total_servers:,.0f}")


# ---------------------------------------------------------------------------
# The command table.
# ---------------------------------------------------------------------------


def _arg(*flags: str, **kwargs) -> Callable[[argparse.ArgumentParser], object]:
    """One argument, added to a command's parser when that parser is built."""
    return lambda parser: parser.add_argument(*flags, **kwargs)


class Command(NamedTuple):
    """A subcommand: its handler, its one-line help, and the arguments of
    its parser in help order (shared groups spliced in as tuples)."""

    func: Callable[[argparse.Namespace], Optional[int]]
    help: str
    arguments: Tuple[Callable[[argparse.ArgumentParser], object], ...] = ()


_SEED = (_arg("--seed", type=int, default=2020),)
_SEED0 = (_arg("--seed", type=int, default=0),)  # the fault and sharing studies
_SERVICES = (_arg("--services", default="",
                  help="comma-separated service subset (default: all seven)"),)
_REQUESTS = (_arg("--requests", type=int, default=200,
                  help="requests per core per characterization run"),)
_RUNTIME = (
    _arg("--workers", type=int, default=1,
         help="worker processes for independent simulation runs (default 1)"),
    _arg("--no-cache", action="store_true",
         help="bypass the on-disk result cache and re-simulate"),
)
_TELEMETRY = (_arg(
    "--telemetry-out", default="",
    help="record runtime self-telemetry (batch/task/stage spans, cache and "
    "pool stats) and write the repro-runtime-telemetry-v1 JSON artifact to "
    "this path",
),)
_DESIGN = (_arg("--design", default="sync",
                choices=[d.value for d in ThreadingDesign]),)
_SCENARIO = (
    _arg("--c", type=float, default=2.0e9, help="total host cycles C"),
    _arg("--alpha", type=float, required=True, help="kernel fraction"),
    _arg("--n", type=float, required=True, help="offloads per unit"),
    _arg("--a", type=float, required=True, help="peak speedup A"),
    _arg("--o0", type=float, default=0.0, help="dispatch cycles"),
    _arg("--l", type=float, default=0.0, help="interface cycles L"),
    _arg("--q", type=float, default=0.0, help="queue cycles Q"),
    _arg("--o1", type=float, default=0.0, help="thread switch cycles"),
    _arg("--cb", type=float, default=None, help="cycles per byte Cb"),
    *_DESIGN,
    _arg("--placement", default="off-chip",
         choices=[pl.value for pl in Placement]),
)
_FAULTS = (
    _arg("--drop", type=float, default=0.0,
         help="per-attempt offload drop probability"),
    _arg("--spike", type=float, default=0.0,
         help="per-attempt latency-spike probability"),
    _arg("--spike-cycles", type=float, default=0.0,
         help="extra response delay per latency spike"),
    _arg("--timeout", type=float, default=0.0,
         help="cycles before a dropped offload is declared failed"),
    _arg("--retries", type=int, default=2,
         help="re-dispatch attempts before falling back (default 2)"),
    _arg("--backoff", type=float, default=0.0,
         help="base backoff cycles before the first retry"),
    _arg("--backoff-multiplier", type=float, default=2.0,
         help="exponential backoff growth factor (default 2)"),
    _arg("--no-fallback", action="store_true",
         help="drop exhausted offloads instead of re-running them on the "
         "host CPU"),
)
_TRACE_OUT = (
    _arg("--trace-out", default="",
         help="write a Chrome/Perfetto trace of the (traced) accelerated run "
         "to this path"),
    _arg("--metrics-out", default="",
         help="write windowed time-series metrics JSON to this path"),
)
_CHARACTERIZES = _SEED + _SERVICES + _RUNTIME
_SIMULATES = _SEED + _RUNTIME

#: Every subcommand, in ``--help`` order.
COMMANDS: Dict[str, Command] = {
    "table1": Command(_cmd_table1, "CPU platform attributes", _SEED),
    "table5": Command(_cmd_params, "model parameter glossary", _SEED),
    "params": Command(_cmd_params, "alias of table5", _SEED),
    "table4": Command(_cmd_table4, "findings summary", _CHARACTERIZES + (
        _arg("--measured", action="store_true",
             help="also re-derive the findings from simulated "
             "characterization"),
    )),
    "fig1": Command(_cmd_fig1, "app logic vs orchestration", _CHARACTERIZES),
    "fig2": Command(_cmd_fig2, "leaf breakdown", _CHARACTERIZES),
    "fig3": Command(_cmd_fig3, "memory leaf breakdown", _CHARACTERIZES),
    "fig4": Command(_cmd_fig4, "memory copy origins", _CHARACTERIZES),
    "fig5": Command(_cmd_sub_breakdown, "kernel breakdown", _CHARACTERIZES),
    "fig6": Command(_cmd_sub_breakdown, "sync breakdown", _CHARACTERIZES),
    "fig7": Command(_cmd_sub_breakdown, "C-library breakdown",
                    _CHARACTERIZES),
    "fig8": Command(_cmd_fig8, "IPC scaling (also prints fig10)", _SIMULATES),
    "fig9": Command(_cmd_fig9, "functionality breakdown", _CHARACTERIZES),
    "fig10": Command(_cmd_fig8, "IPC scaling (alias of fig8)", _SIMULATES),
    "fig15": Command(_cmd_fig15, "encryption granularity CDF", _SEED),
    "fig16": Command(_cmd_fig16, "case-study breakdown shifts (figs 16-18)",
                     _SIMULATES),
    "fig17": Command(_cmd_fig16, "alias of fig16", _SIMULATES),
    "fig18": Command(_cmd_fig16, "alias of fig16", _SIMULATES),
    "fig19": Command(_cmd_fig19, "compression granularity CDF", _SEED),
    "fig21": Command(_cmd_fig21, "memory-copy granularity CDF", _SEED),
    "fig22": Command(_cmd_fig22, "allocation granularity CDF", _SEED),
    "table6": Command(_cmd_table6, "case-study validation", _SIMULATES),
    "fig20": Command(_cmd_fig20, "projection table (Table 7)", _SEED),
    "table7": Command(_cmd_fig20, "alias of fig20", _SEED),
    "project": Command(_cmd_project, "evaluate a custom scenario", _SCENARIO),
    "bounds": Command(_cmd_bounds,
                      "performance-bound decomposition for a scenario",
                      _SCENARIO),
    "sensitivity": Command(_cmd_sensitivity,
                           "parameter elasticities for a scenario", _SCENARIO),
    "batch": Command(_cmd_batch, "batch-size analysis for a scenario",
                     _SCENARIO),
    "capacity": Command(
        _cmd_capacity, "accelerator engines needed for an offload load", (
            _arg("--n", type=float, required=True, help="offloads per unit"),
            _arg("--service-cycles", type=float, required=True,
                 help="accelerator service time per offload"),
            _arg("--c", type=float, default=2.0e9, help="cycles per unit"),
            _arg("--q-budget", type=float, default=None,
                 help="max mean queue delay in cycles"),
            _arg("--max-util", type=float, default=0.6),
        )),
    "workloads": Command(_cmd_workloads,
                         "list the calibrated service workloads"),
    "demand-risk": Command(
        _cmd_demand_risk,
        "accelerator-investment risk across realized-demand scenarios", (
            _arg("--mean-rate", type=float, default=100_000.0),
            _arg("--service-cycles", type=float, default=10_000.0),
            _arg("--growths", default="0.4,0.7,1.0,1.5,2.5"),
        )),
    "export-data": Command(
        _cmd_export_data,
        "export figure data (published + measured) as CSV", (
            _arg("--output", default="data"),
            *_SEED,
            _arg("--requests", type=int, default=200),
            _arg("--services", default=""),
            _arg("--skip-ipc", action="store_true"),
            *_RUNTIME,
        )),
    "validate-matrix": Command(
        _cmd_validate_matrix,
        "sim-vs-model error grid across designs and parameters",
        _RUNTIME + _TELEMETRY),
    "characterize": Command(
        _cmd_characterize,
        "characterize services through the batch executor and report what "
        "the runtime actually did (batch report, cache counters)",
        _SEED + _SERVICES + _REQUESTS + _RUNTIME + _TELEMETRY),
    "telemetry": Command(
        _cmd_telemetry,
        "summarize a repro-runtime-telemetry-v1 artifact (batches, cache "
        "outcomes, stragglers, critical chain); optionally export the "
        "runtime span tree", (
            _arg("artifact",
                 help="path to a JSON artifact written by --telemetry-out"),
            _arg("--otlp-out", default="",
                 help="export the runtime spans as OTLP JSON to this path"),
            _arg("--chrome-out", default="",
                 help="export the runtime spans as a Chrome traceEvents "
                 "JSON to this path"),
        )),
    "oversubscription": Command(
        _cmd_oversubscription,
        "measured throughput/latency vs threads per core (Sync-OS)",
        _RUNTIME),
    "render": Command(_cmd_render, "render the figures as SVG files", (
        _arg("--output", default="figures"),
        *_SEED,
        _arg("--requests", type=int, default=200),
        *_SERVICES,
        _arg("--skip-ipc", action="store_true",
             help="skip the three-generation IPC figures"),
        *_RUNTIME,
    )),
    "evaluate": Command(
        _cmd_evaluate,
        "evaluate scenarios from a JSON configuration file (the original "
        "artifact's workflow)",
        (_arg("--config", required=True, help="path to the JSON file"),)),
    "example-config": Command(
        _cmd_example_config, "write an example scenario configuration",
        (_arg("--output", default="accelerometer-scenarios.json"),)),
    "recommend": Command(
        _cmd_recommend, "quantify Table-4 recommendations per service",
        (_arg("--services", default="",
              help="comma-separated services (default: cache1)"),)),
    "report": Command(
        _cmd_report, "run the full evaluation and emit a markdown report", (
            *_SEED, *_REQUESTS,
            _arg("--output", default="",
                 help="write to a file instead of stdout"),
            *_RUNTIME,
        )),
    "simulate": Command(
        _cmd_simulate,
        "A/B-simulate one offload scenario under an injected fault regime "
        "and compare against the degraded closed form", (
            *_SEED0,
            _arg("--alpha", type=float, default=0.3, help="kernel fraction"),
            _arg("--a", type=float, default=8.0, help="peak speedup A"),
            *_DESIGN,
            _arg("--shared-device", action="store_true",
                 help="route the offload through a shared multi-tenant "
                 "device with fair queueing and doorbell batching (async "
                 "design)"),
            _arg("--tenants", type=int, default=2,
                 help="tenant count for --shared-device (default 2)"),
            _arg("--tenant-weight", type=float, default=1.0,
                 help="tenant 0's fair-queueing weight for --shared-device "
                 "(default 1)"),
            _arg("--batch-size", type=int, default=1,
                 help="doorbell batch size for --shared-device (default 1)"),
            *_FAULTS, *_TRACE_OUT,
        )),
    "contention": Command(
        _cmd_contention,
        "shared-device contention case study: how a private-device speedup "
        "erodes as tenants share one accelerator", (
            *_SEED0,
            _arg("--a", type=float, default=4.0,
                 help="peak speedup A of the shared device"),
            _arg("--tenants", default="1,2,4,8",
                 help="comma-separated tenant counts"),
            _arg("--output", default="",
                 help="write the JSON report (the CI artifact) to this path"),
        )),
    "resilience": Command(
        _cmd_resilience,
        "degraded-mode validation grid plus the Ads1 remote-inference "
        "erosion sweep", (
            *_SEED0, *_DESIGN,
            _arg("--drops", default="0.05,0.1,0.2",
                 help="comma-separated drop probabilities"),
            _arg("--timeouts", default="1000,4000,8000",
                 help="comma-separated timeout cycles"),
            *_RUNTIME, *_TELEMETRY, *_TRACE_OUT,
        )),
    "trace": Command(
        _cmd_trace,
        "characterize one service with span tracing; export a "
        "Chrome/Perfetto trace, OTLP spans, windowed metrics, folded stacks, "
        "and a windowed-timeline SVG", (
            _arg("--service", default="cache1"),
            *_SEED,
            _arg("--requests", type=int, default=100,
                 help="requests per core (window sizing)"),
            _arg("--cores", type=int, default=2),
            _arg("--windows", type=int, default=20,
                 help="tumbling windows across the run"),
            _arg("--output", default="trace-out",
                 help="directory for the exported artifacts"),
        )),
    "fleet": Command(_cmd_fleet, "fleet-wide projection", (
        _arg("--servers", type=float, default=100_000),
        _arg("--speedups", required=True,
             help="per-service speedups, e.g. 'web=1.05,cache1=1.14'"),
    )),
    "lint": Command(
        _cmd_lint,
        "run the repo's AST invariant linter (determinism, spec hygiene, "
        "hot-path slots, units, API surface)",
        (_lint_arguments,)),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Given a :data:`COMMANDS` key, only that
    command's subparser is built: building all of them costs far more
    than most commands take to run.  The usage line still lists every
    command, so errors read the same either way."""
    parser = argparse.ArgumentParser(
        prog="accelerometer",
        description="Regenerate tables and figures from the Accelerometer "
        "paper (ASPLOS 2020) on the simulated substrate.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(COMMANDS),
    )
    for name in COMMANDS if command is None else (command,):
        entry = COMMANDS[name]
        p = sub.add_parser(name, help=entry.help)
        p.set_defaults(func=entry.func)
        for add in entry.arguments:
            add(p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        # Every --requests is a per-core request count; a run needs one.
        if getattr(args, "requests", 1) < 1:
            raise ParameterError(
                f"--requests must be >= 1, got {args.requests}")
        # Every --seed feeds a NumPy generator, which takes no negative.
        if getattr(args, "seed", 0) < 0:
            raise ParameterError(f"--seed must be >= 0, got {args.seed}")
        status = args.func(args)
    except (ReproError, OSError) as exc:
        # UnknownServiceError is also a KeyError, whose str() adds quotes.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2
    return int(status) if status is not None else 0


if __name__ == "__main__":
    sys.exit(main())
