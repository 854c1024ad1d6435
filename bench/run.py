"""End-to-end benchmark of the reproduction's CLI, with a layer ledger.

Usage::

    python bench/run.py [--workload NAME]... [--seed 2020] [--seconds 15]
                        [--trace 0|1] [--out DIR] [--write-golden]

For each workload, untraced passes run one after another (closed loop,
each in a fresh interpreter) until ``--seconds`` have passed and at least
three have run; their medians are the end-to-end metrics.  ``--trace 1``
adds one traced pass whose spans give the per-layer metrics.  Without
``--trace`` both are reported.  Every operation's output is checked
against ``bench/golden.json`` (or, for a seed without goldens, against
the first pass), and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Times are host seconds rescaled to the reference host speed recorded in
``bench/baseline.json``: ``t × probe_ref / probe``, where ``probe`` is a
fixed pure-Python loop sampled during the pass (see ``passes.py``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import ledger
from passes import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: End-to-end metrics (untraced passes): name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

MIN_PASSES = 3

#: Each workload must end within 180 s: a pass still running this long
#: after the workload started is killed and counts as failed.
DEADLINE_S = 165.0


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def rescale(seconds: float, probe_s: float, probe_ref: float) -> float:
    """Host seconds at the reference host speed."""
    return seconds * probe_ref / probe_s


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Runner:
    """Spawns passes for one invocation and checks their outputs."""

    def __init__(self, out: Path, seed: int) -> None:
        self.out = out
        self.seed = seed
        self.probe_ref = load_json(BENCH / "baseline.json")["probe_ref_s"]
        self.golden: Dict[str, str] = load_json(BENCH / "golden.json")
        #: Digests this invocation saw first, for ops without a golden.
        self.seen: Dict[str, str] = {}
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def spawn(self, workload: str, trace: bool) -> Optional[dict]:
        """Run one pass in a fresh interpreter; None if it failed."""
        self.count += 1
        work = self.out / "tmp" / f"{workload}-{os.getpid()}-{self.count}"
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), str(BENCH)]
                + [p for p in [env.get("PYTHONPATH")] if p]),
            "REPRO_COMPILED": "0",
            # At import OpenBLAS starts a spinning thread per CPU, which on
            # a 2-CPU host fights the pass and doubled set-up variance.
            "OPENBLAS_NUM_THREADS": "1",
            "REPRO_CACHE_DIR": str(work / "tmp" / "result-cache"),
            "TMPDIR": str(work / "tmp"),
        })
        command = [sys.executable, str(BENCH / "passes.py"),
                   "--workload", workload, "--seed", str(self.seed),
                   "--work", str(work), "--trace", str(int(trace))]
        budget = max(1.0, self.deadline - time.monotonic())
        process = subprocess.Popen(
            command + ["--spawned", repr(time.monotonic())],
            cwd=ROOT, env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            log, _ = process.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            log, _ = process.communicate()
            log += f"\npass timed out after {budget:.0f} s"
        result = None
        if process.returncode == 0:
            result = load_json(work / "result.json")
            if trace:
                result["workers"] = ledger.read_worker_spool(
                    str(work / "spool"))
        else:
            print(f"  pass failed (exit {process.returncode}):\n{log[-3000:]}",
                  file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return result

    def check(self, result: Optional[dict], ops_per_pass: int) -> int:
        """Failed operations of one pass.  An op fails if it raised or
        exited nonzero, or if its digest differs from its golden (from the
        first run of the same op in this invocation when it has none)."""
        if result is None:
            return ops_per_pass
        failed = 0
        for op in result["ops"]:
            expected = self.golden.get(op["key"]) or self.seen.setdefault(
                op["key"], op["digest"])
            if op["status"] != 0 or op["digest"] != expected:
                failed += 1
                print(f"  FAILED {op['key']}: status {op['status']}, "
                      f"digest {op['digest']}, expected {expected}"
                      f"{' ' + op['error'] if op['error'] else ''}",
                      file=sys.stderr)
        return failed


def rescaled(result: dict, probe_ref: float) -> dict:
    """A pass's times at the reference host speed.  The probe is the mean
    of the samples taken during the pass (of the probes at its ends when
    the pass was too short for one), and the time spent sampling is taken
    out first."""
    probe = statistics.mean(result["probe_samples_s"] or [
        result["probe_before_s"], result["probe_after_s"]])
    setup_probe = statistics.mean(
        result["setup_probe_samples_s"] + [result["probe_before_s"]])
    share = 1 - result["sampling_s"] / result["wall_s"]
    phases: Dict[str, float] = {}
    for op in result["ops"]:
        phases[op["phase"]] = phases.get(op["phase"], 0.0) + op["seconds"]
    return {
        "setup_s": rescale(result["setup_s"] - result["setup_sampling_s"],
                           setup_probe, probe_ref),
        "wall_s": rescale(result["wall_s"] * share, probe, probe_ref),
        "peak_rss_mb": result["peak_rss_mb"],
        "phases_s": {phase: rescale(t * share, probe, probe_ref)
                     for phase, t in phases.items()},
    }


def run_workload(runner: Runner, workload: str, seconds: float,
                 trace: Optional[bool]) -> dict:
    """Timed passes, then the traced pass; returns the workload report."""
    print(f"== {workload}: {WORKLOADS[workload].why}")
    ops_per_pass = len(WORKLOADS[workload].cold) * (
        1 + WORKLOADS[workload].warm)
    attempted = failed = 0
    timed: List[dict] = []
    scaled: List[dict] = []
    start = time.monotonic()
    runner.deadline = start + DEADLINE_S
    while len(timed) < MIN_PASSES or time.monotonic() - start < seconds:
        result = runner.spawn(workload, trace=False)
        attempted += ops_per_pass
        failed += runner.check(result, ops_per_pass)
        if result is None:
            break
        timed.append(result)
        scaled.append(rescaled(result, runner.probe_ref))
        print(f"  pass {len(timed)}: wall {scaled[-1]['wall_s']:.4f} s "
              f"(raw {result['wall_s']:.4f} s), setup "
              f"{scaled[-1]['setup_s']:.4f} s, probe "
              f"{statistics.mean(result['probe_samples_s'] or [0]) * 1e3:.2f}"
              f" ms in the pass")
    report: dict = {
        "workload": workload,
        "passes": len(timed),
        "end_to_end": {name: median([s[name] for s in scaled])
                       for name in END_TO_END},
        "phases_s": {phase: median([s["phases_s"][phase] for s in scaled])
                     for phase in (scaled[0]["phases_s"] if scaled else {})},
        "raw": {
            "setup_s": [r["setup_s"] for r in timed],
            "wall_s": [r["wall_s"] for r in timed],
            "probe_before_s": [r["probe_before_s"] for r in timed],
            "probe_samples_mean_s": [
                statistics.mean(r["probe_samples_s"] or [0.0]) for r in timed],
            "probe_after_s": [r["probe_after_s"] for r in timed],
        },
        "environment": timed[0]["environment"] if timed else {},
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:12s} {report['end_to_end'][name]:12.6f} {unit}"
              f"  (median of {len(timed)} passes)")
    for phase, value in report["phases_s"].items():
        print(f"  {phase:12s} {value:12.6f} s   (median {phase} phase)")

    if trace is not False and timed:
        traced = runner.spawn(workload, trace=True)
        attempted += ops_per_pass
        failed += runner.check(traced, ops_per_pass)
        if traced is not None:
            report["ledger"] = layer_report(runner, traced, report)
    report["attempted"] = attempted
    report["failed"] = failed
    report["error_rate"] = failed / attempted if attempted else 1.0
    print(f"  error_rate   {report['error_rate']:12.6f} fraction "
          f"({failed} of {attempted} operations failed)")
    return report


def layer_report(runner: Runner, traced: dict, report: dict) -> dict:
    """The per-layer metrics of the traced pass, with the trace written
    to ``<out>/trace-<workload>.json``."""
    workload = report["workload"]
    metrics = ledger.ledger(traced["spans"], traced["pass_index"],
                            traced["counts"], traced["peaks"],
                            traced["workers"])
    traced_wall = rescaled(traced, runner.probe_ref)["wall_s"]
    untraced = report["end_to_end"]["wall_s"]
    metrics["bench.trace_overhead"] = traced_wall / untraced - 1
    (runner.out / f"trace-{workload}.json").write_text(json.dumps({
        "workload": workload,
        "seed": runner.seed,
        "spans": traced["spans"],
        "pass_index": traced["pass_index"],
        "workers": traced["workers"],
    }))
    print(f"  traced pass {traced_wall:.4f} s "
          f"(trace overhead {metrics['bench.trace_overhead'] * 100:.1f}%); "
          f"missing hooks: {traced['missing_hooks'] or 'none'}")
    print(f"  {'layer':18s} {'alpha':>7s} {'calls':>9s} {'ceiling':>9s}")
    for layer in ledger.LAYERS:
        alpha = metrics[f"{layer}.alpha"]
        print(f"  {layer:18s} {alpha:7.3f} {metrics[f'{layer}.calls']:9.0f} "
              f"{ledger.amdahl_ceiling(alpha):8.3f}x")
    for name, value in metrics.items():
        if not name.endswith((".alpha", ".calls")):
            print(f"  {name:34s} {value:14.6f}")
    return {"metrics": metrics, "missing_hooks": traced["missing_hooks"]}


def per_layer_units() -> Dict[str, str]:
    """Units of the per-layer metrics, from ``BENCHMARK.json``."""
    spec = load_json(ROOT / "BENCHMARK.json")
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


def summary_line(reports: List[dict], trace: Optional[bool]) -> dict:
    """The result object; metric names carry a ``<workload>/`` prefix
    when more than one workload ran."""
    units = per_layer_units()
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "/"
        if trace is not True:
            for name, unit in END_TO_END.items():
                metrics[prefix + name] = {
                    "value": report["end_to_end"][name], "unit": unit}
        if trace is not False:
            for name, value in report["ledger"]["metrics"].items():
                metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in reports),
            "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the reproduction's CLI.")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum time spent on untraced passes per "
                        "workload (at least three passes run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                        "metrics only (default: both)")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for results and traces")
    parser.add_argument("--write-golden", action="store_true",
                        help="add the digests of this run's operations to "
                        "bench/golden.json (only when none failed)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    trace = None if args.trace is None else bool(args.trace)
    workloads = args.workload or list(WORKLOADS)
    args.out.mkdir(parents=True, exist_ok=True)
    # Byte-compile up front so no timed pass pays for it.
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    runner = Runner(args.out.resolve(), args.seed)
    reports = []
    for workload in workloads:
        report = run_workload(runner, workload, args.seconds, trace)
        if not report["passes"] or (trace is not False
                                    and "ledger" not in report):
            print(f"error: {workload} produced no measurement",
                  file=sys.stderr)
            return 1
        reports.append(report)
    shutil.rmtree(runner.out / "tmp", ignore_errors=True)
    (runner.out / "results.json").write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds,
        "probe_ref_s": runner.probe_ref, "reports": reports,
    }, indent=1))
    summary = summary_line(reports, trace)
    if args.write_golden and summary["correct"]:
        runner.golden.update(runner.seen)
        (BENCH / "golden.json").write_text(
            json.dumps(runner.golden, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
