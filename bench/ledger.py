"""Outside-in layer ledger: spans recorded around the program's public
entry points, from the benchmark's own files.

Nothing in ``src/repro`` knows it is being traced.  :func:`install`
replaces each hooked function with a timing wrapper in every ``repro.*``
module that binds it (and patches classes for methods), so the program
runs its normal code with a span opened and closed around each call.
A span is ``[name, start, end, parent]``; its *self time* is its duration
minus the time its direct children cover.  A span's layer is the part of
its name before the first dot, named after the package it times.

Pool workers fork from the traced process, so they inherit the wrappers.
Each worker writes the spans it records to ``worker-<pid>.jsonl`` in the
spool directory, and :func:`read_worker_spool` merges them at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: CLOCK_MONOTONIC on Linux: one time base for the pass and its workers.
clock = time.perf_counter

#: Layers, named after the packages of ``src/repro``; ``bench`` is the
#: time of the pass that no hooked entry point covers.
LAYERS = (
    "bench", "cli", "characterization", "workloads", "simulator",
    "profiling", "faults", "core", "validation", "application", "runtime",
    "observability", "analysis",
)

#: The lint rules registered when the benchmark was defined.  Each gets
#: an ``analysis.rule.<ID>_s`` metric; a rule removed later reads 0.
RULE_IDS = (
    "API001", "API002", "DEEP001", "DET001", "DET002", "DET003", "EFF001",
    "EFF002", "EFF003", "EFF004", "OBS001", "OBS002", "PAR001", "PAR002",
    "PAR003", "PAR004", "PERF001", "SPEC001", "UNIT001", "UNIT002",
)


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.worker = False
        self._reset()

    def _reset(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = {}
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        if os.getpid() != self.pid:
            # First hook inside a forked pool worker: the parent's spans
            # were copied in by the fork and belong to the parent.
            self.pid = os.getpid()
            self.worker = True
            self._reset()
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack.pop()
        if self.worker and not self._stack:
            self._spool()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(value, self.peaks.get(name, value))

    def _spool(self) -> None:
        """Append this worker's finished span tree to its spool file.

        Workers leave through ``os._exit``, so they write as they go."""
        record = {"pid": self.pid, "spans": self.spans,
                  "counts": dict(self.counts), "peaks": self.peaks}
        path = os.path.join(self.spool_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self._reset()


def read_worker_spool(spool_dir: str) -> List[dict]:
    """Every span tree the pool workers spooled, in file-name order."""
    trees = []
    for name in sorted(os.listdir(spool_dir)):
        if name.startswith("worker-") and name.endswith(".jsonl"):
            with open(os.path.join(spool_dir, name), encoding="utf-8") as handle:
                trees.extend(json.loads(line) for line in handle if line.strip())
    return trees


# ---------------------------------------------------------------------------
# Hooks.
# ---------------------------------------------------------------------------


Observer = Callable[[Recorder, tuple, object], None]


class Hook(NamedTuple):
    """One wrapped entry point.

    *target* is ``module:function`` or ``module:Class.method``.  With
    *wraps_argument* the span times the callable passed as the first
    argument (the request factory) instead of the call itself.  *delta*
    is ``(counter, read)``: the counter grows by ``read(args)`` after the
    call minus before it.  *observe* sees the arguments and the result.
    """

    target: str
    span: str
    observe: Optional[Observer] = None
    delta: Optional[Tuple[str, Callable[[tuple], float]]] = None
    wraps_argument: bool = False


def _cache_hit(rec: Recorder, args: tuple, result) -> None:
    rec.count("runtime.cache_hits", 1 if result[0] else 0)


def _summary_hit(rec: Recorder, args: tuple, result) -> None:
    rec.count("analysis.cache_hits", 1 if result is not None else 0)


def _decoded_spans(rec: Recorder, args: tuple, result) -> None:
    rec.count("observability.spans", len(result.spans))


def _model_error(rec: Recorder, args: tuple, result) -> None:
    """|model − simulated| speedup, in percentage points, of a matrix
    cell, case study, resilience or shared-device point."""
    rows = result.values() if isinstance(result, dict) else (result,)
    for row in rows:
        rec.peak("validation.model_error_pp",
                 abs(row.model_speedup_pct - row.simulated_speedup_pct))


HOOKS = (
    Hook("repro.cli:main", "cli.main"),
    Hook("repro.cli:build_parser", "cli.build_parser"),
    Hook("repro.characterization.pipeline:characterize",
         "characterization.characterize"),
    Hook("repro.workloads.definitions:build_workload",
         "workloads.build_workload"),
    Hook("repro.simulator.workload:request_stream", "workloads.request",
         wraps_argument=True),
    Hook("repro.simulator.runner:run_simulation", "simulator.run_simulation"),
    Hook("repro.simulator.hotcore:PyEngine.run_until", "simulator.run_until",
         delta=("simulator.events", lambda args: args[0].events_processed)),
    Hook("repro.profiling.profiler:capture_trace_profile",
         "profiling.capture_trace_profile"),
    Hook("repro.faults.injector:FaultInjector.outcome", "faults.outcome"),
    Hook("repro.core.model:Accelerometer.speedup", "core.speedup"),
    Hook("repro.validation.matrix:validate_cell", "validation.validate_cell",
         observe=_model_error),
    Hook("repro.validation.case_studies:run_all_case_studies",
         "validation.run_all_case_studies", observe=_model_error),
    Hook("repro.application.shared_device:run_shared_device_point",
         "application.run_shared_device_point", observe=_model_error),
    Hook("repro.application.resilience:run_resilience_point",
         "application.run_resilience_point", observe=_model_error),
    Hook("repro.application.shared_device:contention_case_study",
         "application.contention_case_study"),
    Hook("repro.runtime.spec:RunSpec.key", "runtime.key"),
    Hook("repro.runtime.cache:ResultCache.lookup", "runtime.cache_lookup",
         observe=_cache_hit),
    Hook("repro.runtime.cache:ResultCache.put", "runtime.cache_put"),
    Hook("repro.runtime.batch:execute_batch", "runtime.execute_batch"),
    Hook("repro.runtime.batch:execute_run", "runtime.execute_run"),
    Hook("repro.observability.tracer:SpanTracer.finish",
         "observability.decode", observe=_decoded_spans),
    Hook("repro.simulator.trace_export:export_chrome_trace",
         "observability.export"),
    Hook("repro.observability.export:write_otlp_spans",
         "observability.export"),
    Hook("repro.observability.export:write_folded_stacks",
         "observability.export"),
    Hook("repro.observability.windows:windowed_series",
         "observability.export"),
    Hook("repro.observability.critical_path:attribute_requests",
         "observability.attribution"),
    Hook("repro.analysis.engine:analyze_paths", "analysis.analyze_paths"),
    Hook("repro.analysis.project:ProjectModel.build", "analysis.project_model"),
    Hook("repro.analysis.graph:build_call_graph", "analysis.call_graph"),
    Hook("repro.analysis.dataflow:compute_summaries", "analysis.dataflow"),
    Hook("repro.analysis.dataflow:SummaryCache.load", "analysis.cache_load",
         observe=_summary_hit),
)


def rule_hooks() -> List[Hook]:
    """A hook on each registered lint rule's ``check``/``check_project``."""
    from repro.analysis.registry import all_rules

    hooks = []
    for rule in all_rules():
        cls = type(rule)
        method = "check_project" if rule.project_rule else "check"
        hooks.append(Hook(f"{cls.__module__}:{cls.__qualname__}.{method}",
                          f"analysis.rule.{rule.name}"))
    return hooks


def _resolve(target: str):
    """``(owner, attribute, raw)`` for a hook target; raises ImportError
    or AttributeError when the target no longer exists."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        return owner, attribute, inspect.getattr_static(owner, attribute)
    return owner, attribute, getattr(owner, attribute)


def import_targets(hooks=HOOKS) -> List[str]:
    """Import every module a hook lives in; returns the missing targets.

    Untraced passes call this too, so both kinds of pass import the same
    modules during set-up and time the same work."""
    missing = []
    for hook in hooks:
        try:
            _resolve(hook.target)
        except (ImportError, AttributeError):
            missing.append(hook.target)
    return missing


def _timed(rec: Recorder, hook: Hook, function: Callable) -> Callable:
    if inspect.isgeneratorfunction(function):
        # Lint rules are generators drained by list(): the span stays
        # open from the first next() to exhaustion.
        @functools.wraps(function)
        def traced_generator(*args, **kwargs):
            index = rec.begin(hook.span)
            try:
                return (yield from function(*args, **kwargs))
            finally:
                rec.end(index)

        return traced_generator

    @functools.wraps(function)
    def traced(*args, **kwargs):
        before = hook.delta[1](args) if hook.delta else 0
        index = rec.begin(hook.span)
        try:
            result = function(*args, **kwargs)
        finally:
            rec.end(index)
        if hook.delta:
            rec.count(hook.delta[0], hook.delta[1](args) - before)
        if hook.observe:
            hook.observe(rec, args, result)
        return result

    return traced


def _argument_timed(rec: Recorder, hook: Hook, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(first, *args, **kwargs):
        return function(_timed(rec, hook, first), *args, **kwargs)

    return wrapper


def install(rec: Recorder, hooks, package: str = "repro") -> List[str]:
    """Wrap every hook target, rebinding functions in every loaded module
    of *package*; returns the targets that could not be found, so a
    renamed entry point thins the ledger instead of breaking the
    benchmark."""
    missing = []
    for hook in hooks:
        try:
            owner, attribute, raw = _resolve(hook.target)
        except (ImportError, AttributeError):
            missing.append(hook.target)
            continue
        wrap = _argument_timed if hook.wraps_argument else _timed
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attribute, type(raw)(wrap(rec, hook, raw.__func__)))
            continue
        wrapped = wrap(rec, hook, raw)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapped)
            continue
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != package and not name.startswith(package + "."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)
    return missing


# ---------------------------------------------------------------------------
# Ledger arithmetic.
# ---------------------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def roots(spans: List[list]) -> List[int]:
    """The index of each span's outermost ancestor (parents precede
    their children in begin order)."""
    root: List[int] = []
    for index, span in enumerate(spans):
        root.append(index if span[3] is None else root[span[3]])
    return root


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _by_name(trees: List[List[list]]) -> Dict[str, List[float]]:
    """``name -> [calls, self seconds]`` over several span lists."""
    table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for spans in trees:
        for span, own in zip(spans, self_times(spans)):
            table[span[0]][0] += 1
            table[span[0]][1] += own
    return table


def _pool_usage(spans: List[list], own: List[float],
                workers: List[dict]) -> Tuple[float, float]:
    """``(busy ratio, overhead seconds)`` of the batches that used the
    pool.  A batch used the pool when worker ``execute_run`` spans fall
    inside it; its capacity is its self time times the workers seen, and
    its overhead is the self time not matched by busy time per worker."""
    runs = [(tree["pid"], span[1], span[2]) for tree in workers
            for span in tree["spans"]
            if span[3] is None and span[0] == "runtime.execute_run"]
    busy_total = capacity = overhead = 0.0
    for index, (name, start, end, _) in enumerate(spans):
        if name != "runtime.execute_batch":
            continue
        inside = [(pid, s, e) for pid, s, e in runs if start <= s and e <= end]
        if not inside:
            continue
        pids = len({pid for pid, _, _ in inside})
        busy = sum(e - s for _, s, e in inside)
        busy_total += busy
        capacity += own[index] * pids
        overhead += max(0.0, own[index] - busy / pids)
    return (busy_total / capacity if capacity else 0.0), overhead


def ledger(spans: List[list], pass_index: int, counts: Dict[str, float],
           peaks: Dict[str, float], workers: List[dict]) -> dict:
    """The per-layer metrics of one traced pass.

    *spans* are the traced process's spans and *pass_index* the root span
    of the timed pass.  Layer shares (``<layer>.alpha``) and call counts
    (``<layer>.calls``) cover the pass on the main process only, so the
    shares sum to 1.  Times named ``*_s`` add up self time in every
    process, pool workers included, and in set-up (calibration)."""
    own = self_times(spans)
    root = roots(spans)
    pass_s = spans[pass_index][2] - spans[pass_index][1]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for index, span in enumerate(spans):
        if root[index] != pass_index:
            continue
        layer = layer_of(span[0])
        layer_self[layer] += own[index]
        if index != pass_index:
            layer_calls[layer] += 1

    table = _by_name([spans] + [tree["spans"] for tree in workers])
    totals = defaultdict(float, counts)
    peak = dict(peaks)
    for tree in workers:
        for key, value in tree["counts"].items():
            totals[key] += value
        for key, value in tree["peaks"].items():
            peak[key] = max(value, peak.get(key, value))

    def calls(name: str) -> float:
        return table[name][0] if name in table else 0

    def seconds(name: str) -> float:
        return table[name][1] if name in table else 0.0

    def layer_seconds(layer: str) -> float:
        return sum(row[1] for name, row in table.items()
                   if layer_of(name) == layer)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    busy_ratio, pool_overhead = _pool_usage(spans, own, workers)
    drain = seconds("simulator.run_until")
    metrics = {
        "simulator.drain_s": drain,
        "simulator.wiring_s": seconds("simulator.run_simulation"),
        "simulator.events": totals["simulator.events"],
        "simulator.ns_per_event": ratio(drain * 1e9,
                                        totals["simulator.events"]),
        "workloads.generate_s": seconds("workloads.request"),
        "workloads.requests": calls("workloads.request"),
        "workloads.calibrate_s": seconds("workloads.build_workload"),
        "faults.attempts": calls("faults.outcome"),
        "faults.adjudicate_s": seconds("faults.outcome"),
        "application.self_s": layer_seconds("application"),
        "runtime.keys": calls("runtime.key"),
        "runtime.key_s": seconds("runtime.key"),
        "runtime.cache_lookups": calls("runtime.cache_lookup"),
        "runtime.cache_lookup_s": seconds("runtime.cache_lookup"),
        "runtime.cache_hit_ratio": ratio(totals["runtime.cache_hits"],
                                         calls("runtime.cache_lookup")),
        "runtime.cache_puts": calls("runtime.cache_put"),
        "runtime.cache_put_s": seconds("runtime.cache_put"),
        "runtime.batch_self_s": seconds("runtime.execute_batch"),
        "runtime.pool_busy_ratio": busy_ratio,
        "runtime.pool_overhead_s": pool_overhead,
        "cli.parser_s": seconds("cli.build_parser"),
        "cli.self_s": seconds("cli.main"),
        "observability.decode_s": seconds("observability.decode"),
        "observability.export_s": seconds("observability.export"),
        "observability.attribution_s": seconds("observability.attribution"),
        "observability.spans": totals["observability.spans"],
        "analysis.load_s": seconds("analysis.analyze_paths"),
        "analysis.project_model_s": seconds("analysis.project_model"),
        "analysis.call_graph_s": seconds("analysis.call_graph"),
        "analysis.dataflow_s": seconds("analysis.dataflow"),
        "analysis.cache_hit_ratio": ratio(totals["analysis.cache_hits"],
                                          calls("analysis.cache_load")),
        "profiling.capture_s": seconds("profiling.capture_trace_profile"),
        "characterization.self_s": layer_seconds("characterization"),
        "validation.self_s": layer_seconds("validation"),
        "validation.model_error_pp": peak.get("validation.model_error_pp", 0.0),
        "core.model_s": seconds("core.speedup"),
    }
    for rule in RULE_IDS:
        metrics[f"analysis.rule.{rule}_s"] = seconds(f"analysis.rule.{rule}")
    for layer in LAYERS:
        metrics[f"{layer}.alpha"] = ratio(layer_self[layer], pass_s)
        metrics[f"{layer}.calls"] = layer_calls[layer]
    return metrics


def amdahl_ceiling(alpha: float) -> float:
    """The paper's bound on end-to-end speedup if a layer with share
    *alpha* cost nothing: 1 / (1 − α)."""
    return float("inf") if alpha >= 1.0 else 1.0 / (1.0 - alpha)
