"""One benchmark pass, run in a fresh interpreter by ``bench/run.py``.

A pass sets up (imports ``repro`` and every module the ledger hooks,
then calibrates every service workload), times a fixed pure-Python probe
loop, drives the workload's CLI operations in-process through
``repro.cli.main`` with stdout captured while the probe is sampled on a
timer, times the probe again, and writes what it measured to
``<work>/result.json``.  With ``--trace 1`` the ledger's hooks are
installed before set-up and the spans are written beside the result; the
~1% the probe samples take falls into whichever span is open.

Usage (normally only through ``bench/run.py``)::

    python bench/passes.py --workload NAME --seed N --work DIR \
        --trace 0|1 --spawned MONOTONIC_SECONDS
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import ledger

ROOT = Path(__file__).resolve().parent.parent


class Workload(NamedTuple):
    """The CLI operations of one pass.

    ``cold`` runs once; ``warm`` then replays the ``cold`` operations that
    many times against the state they left (result and lint caches).
    ``{seed}`` and ``{tmp}`` (the pass's scratch directory) are filled in.
    ``artifacts`` names directories whose contents join the digest of the
    operation that wrote them."""

    why: str
    cold: Tuple[Tuple[str, ...], ...]
    warm: int = 0
    artifacts: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    "characterize-fleet": Workload(
        why="all seven services characterized serially with no offload: "
        "engine drain and request generation, nothing else",
        cold=(("characterize", "--no-cache", "--requests", "50",
               "--seed", "{seed}"),),
    ),
    "validate-offload": Workload(
        why="private-device offload on the eager device path across the "
        "four threading designs plus Table 6: the sim-vs-model contracts",
        cold=(("validate-matrix", "--no-cache"),
              ("table6", "--no-cache", "--seed", "{seed}")),
    ),
    "shared-faulty-offload": Workload(
        why="the only workload that runs the DRR scheduler, doorbell "
        "batching, fault injection, retries and fallbacks",
        cold=(("contention", "--seed", "{seed}"),
              ("resilience", "--no-cache", "--seed", "{seed}"),
              ("simulate", "--shared-device", "--tenants", "4",
               "--batch-size", "4", "--drop", "0.1", "--design", "async",
               "--seed", "{seed}")),
    ),
    "batch-cache": Workload(
        why="many small specs through a 2-worker pool into a cold result "
        "cache, then 20 warm replays: key hashing, cache IO, pool, parsing",
        cold=(("characterize", "--requests", "20", "--workers", "2",
               "--seed", "{seed}"),
              ("validate-matrix", "--workers", "2")),
        warm=20,
    ),
    "trace-export": Workload(
        why="the only workload that traces itself: ring recording, decode, "
        "OTLP/Chrome/windowed/folded export and attribution",
        cold=(("trace", "--service", "feed2", "--requests", "200",
               "--windows", "20", "--seed", "{seed}",
               "--output", "{tmp}/trace"),),
        artifacts=("{tmp}/trace",),
    ),
    "lint-deep": Workload(
        why="the whole-program analyzer over the live source tree, cold "
        "then warm: rule cost versus the summary cache",
        cold=(("lint", "--deep", "--cache-dir", "{tmp}/lint-cache"),),
        warm=1,
    ),
}


def operations(workload: Workload, seed: int, tmp: str) -> List[dict]:
    """The pass's operations in order, each ``{"argv", "key", "phase"}``.
    The key is the command line with the seed filled in and the scratch
    directory not: the same key must always print the same output."""
    cold = [{"argv": [arg.format(seed=seed, tmp=tmp) for arg in argv],
             "key": " ".join(argv).replace("{seed}", str(seed)),
             "phase": "cold"} for argv in workload.cold]
    warm = [dict(op, phase="warm") for op in cold] * workload.warm
    return cold + warm


# ---------------------------------------------------------------------------
# Output digests.
# ---------------------------------------------------------------------------

#: Lines that depend on cache state or scratch paths, not on results.
_VOLATILE = ("batch:", "cache:", "wrote ")

#: The lint summary counts the files it read, which moves with the size
#: of the source tree; only the finding count is a result.
_LINT_SUMMARY = re.compile(r"^(\d+ findings?) in \d+ files.*$")


def normalize(stdout: str) -> str:
    """Stdout with the volatile lines dropped and the lint file count
    masked."""
    lines = []
    for line in stdout.splitlines():
        if line.startswith(_VOLATILE):
            continue
        lines.append(_LINT_SUMMARY.sub(r"\1", line))
    return "\n".join(lines)


def digest_directory(path: Path) -> str:
    """Digest of a directory's file names and contents.  JSON files are
    re-serialized canonically, so formatting is not part of the result."""
    hasher = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        data = file.read_bytes()
        if file.suffix == ".json":
            data = json.dumps(json.loads(data), sort_keys=True,
                              separators=(",", ":")).encode()
        hasher.update(str(file.relative_to(path)).encode() + b"\0")
        hasher.update(hashlib.sha256(data).digest())
    return hasher.hexdigest()


def digest(status, stdout: str, artifacts: List[str]) -> str:
    hasher = hashlib.sha256(f"{status}\0{normalize(stdout)}".encode())
    for directory in artifacts:
        hasher.update(digest_directory(Path(directory)).encode())
    return hasher.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Host-speed probe.
# ---------------------------------------------------------------------------


def _probe_loop() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(8_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    return total


def probe() -> float:
    """Median of five timings of ten probe loops, in thread CPU seconds
    (~0.06 s in all)."""
    times = []
    for _ in range(5):
        start = time.thread_time()
        for _ in range(10):
            _probe_loop()
        times.append(time.thread_time() - start)
    return statistics.median(times)


class ProbeSampler:
    """Times one probe loop on every SIGALRM tick while active.

    The host's speed drifts within a pass; samples spread across the pass
    track it better than the probes at its ends.  Each sample is scaled
    to a full probe (ten loops) and measured in thread CPU time, so the
    pass's own pool workers competing for the CPUs do not count as a
    slow host.  The wall time spent sampling is kept so it can be taken
    out of the pass's wall time."""

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        _probe_loop()
        self.samples.append((time.thread_time() - cpu) * 10)
        self.spent_s += time.perf_counter() - wall

    def __enter__(self) -> "ProbeSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# ---------------------------------------------------------------------------
# The pass.
# ---------------------------------------------------------------------------


def _run_op(cli, op: dict, artifacts: List[str]) -> dict:
    """Run one operation; its output is digested after the pass, so the
    timed region holds only the program's work."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            status = cli.main(op["argv"])
    except SystemExit as exc:
        status = exc.code
    except Exception:  # noqa: BLE001 -- a failed op is a measurement
        status = "raised"
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return {
        "argv": op["argv"],
        "key": op["key"],
        "phase": op["phase"],
        "status": status,
        "seconds": seconds,
        "stdout": stdout.getvalue(),
        "written": [path for path in artifacts if os.path.isdir(path)],
        "error": error or stderr.getvalue()[-2000:],
    }


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_pass(name: str, seed: int, work: Path, trace: bool,
             spawned: float) -> dict:
    """Set up, probe, run the workload's operations, probe again.  A
    traced pass installs the ledger's hooks during set-up."""
    rec = ledger.Recorder(str(work / "spool")) if trace else None
    with ProbeSampler() as setup_sampler:
        import repro
        from repro.simulator import hotcore

        source = ROOT / "src" / "repro"
        if Path(repro.__file__).resolve().parent != source.resolve():
            raise SystemExit(f"repro imported from {repro.__file__}, "
                             f"not from {source}")
        engine = hotcore.status()["engine"]
        if engine != "PyEngine":
            raise SystemExit(f"engine is {engine}, expected PyEngine: the "
                             "benchmark pins REPRO_COMPILED=0")
        missing = ledger.import_targets()
        if rec is not None:
            missing = ledger.install(
                rec, ledger.HOOKS + tuple(ledger.rule_hooks()))
            setup_span = rec.begin("bench.setup")
        import repro.cli as cli
        from repro.workloads.definitions import ALL_SERVICES, build_workload

        for service in ALL_SERVICES:
            build_workload(service)
        if rec is not None:
            rec.end(setup_span)
    setup_s = time.monotonic() - spawned

    probe_before = probe()
    workload = WORKLOADS[name]
    tmp = str(work / "tmp")
    ops = operations(workload, seed, tmp)
    artifacts = [path.format(tmp=tmp) for path in workload.artifacts]
    with ProbeSampler() as pass_sampler:
        if rec is not None:
            pass_span = rec.begin("bench.pass")
        start = time.perf_counter()
        results = [_run_op(cli, op, artifacts) for op in ops]
        wall_s = time.perf_counter() - start
        if rec is not None:
            rec.end(pass_span)
    probe_after = probe()
    for op in results:
        op["digest"] = digest(op["status"], op.pop("stdout"),
                              op.pop("written"))

    result = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "setup_s": setup_s,
        "setup_sampling_s": setup_sampler.spent_s,
        "setup_probe_samples_s": setup_sampler.samples,
        "wall_s": wall_s,
        "sampling_s": pass_sampler.spent_s,
        "probe_samples_s": pass_sampler.samples,
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": results,
        "missing_hooks": missing,
        "environment": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "engine": engine,
        },
    }
    if rec is not None:
        result["spans"] = rec.spans
        result["pass_index"] = pass_span
        result["counts"] = dict(rec.counts)
        result["peaks"] = rec.peaks
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)
    (args.work / "spool").mkdir(parents=True, exist_ok=True)
    (args.work / "tmp").mkdir(exist_ok=True)
    result = run_pass(args.workload, args.seed, args.work, bool(args.trace),
                      args.spawned)
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
