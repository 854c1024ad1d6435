"""Shared fixpoint interprocedural dataflow engine.

The deep passes used to be independent ad-hoc propagators: taint walked
the call graph forward from every sink, unit flow re-derived callee
signatures at every call site, and neither could share work or cache
results.  This module gives them (and the effect system built on top)
one engine:

* a :class:`DataflowAnalysis` describes one analysis: the *facts* a
  function establishes locally (:meth:`~DataflowAnalysis.local_facts`),
  how a callee's fact looks from its caller
  (:meth:`~DataflowAnalysis.lift` -- return ``None`` to absorb the fact
  at the boundary), and which of two competing facts for the same key
  wins (:meth:`~DataflowAnalysis.prefer`, a deterministic join);
* :func:`compute_summaries` runs the analysis bottom-up over the
  call-graph, one summary per function.  Strongly connected components
  (recursion cycles) are iterated to a fixpoint with a deterministic
  worklist (members in sorted order, transfer recomputed from scratch
  each round so the result is a pure function of callee summaries);
* :class:`SummaryCache` persists summaries and derived findings on
  disk, keyed by a content hash of the analyzed sources, so a warm
  ``lint --deep`` rerun replays instead of recomputing.

The lattice here is the map lattice ``key -> fact`` ordered by
"``prefer`` would keep it": ``local_facts`` seeds the bottom element,
``lift`` is the edge transfer function, and ``prefer`` is the join.
Analyses whose facts carry witness call chains get BFS-shortest-path
behavior for free: ``prefer`` keeps the shorter chain and breaks ties
in favor of the incumbent, and because transfer visits call edges in
sorted-adjacency order (first edge per callee), greedy composition of
per-callee shortest chains reproduces the breadth-first tie-break the
pre-framework taint pass used -- the pinning tests hold it to that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .graph import CallGraph
from .project import FunctionInfo, ModuleInfo, ProjectModel

#: Bumped when the cache file layout changes; stored keys never collide
#: across schema revisions (v2: the file-findings slot carries PARSE
#: findings).
CACHE_SCHEMA = "repro-dataflow-v2"


@dataclasses.dataclass(frozen=True)
class CallStep:
    """One call edge on a witness chain (caller invokes callee)."""

    caller: str
    line: int
    callee: str


class DataflowAnalysis:
    """One interprocedural analysis expressed against the engine.

    Subclasses define the fact domain; the engine owns traversal order,
    cycle handling, and caching.  Facts must be immutable values with
    structural equality (frozen dataclasses): the fixpoint loop detects
    convergence with ``==``.
    """

    #: Stable identifier; names the cache slot.
    name: str = ""

    #: Bump to invalidate cached summaries when the fact semantics
    #: change.
    version: str = "1"

    def local_facts(
        self, func: FunctionInfo, module: ModuleInfo, model: ProjectModel
    ) -> Dict[str, object]:
        """Facts *func* establishes by itself, keyed deterministically."""
        raise NotImplementedError

    def lift(
        self,
        fact: object,
        caller: FunctionInfo,
        line: int,
        callee_fq: str,
    ) -> Optional[object]:
        """A callee fact as seen from *caller* through one call edge.

        Return ``None`` to absorb the fact at this boundary (it does not
        propagate to callers).  The default absorbs everything, which
        makes an analysis purely local (a signature table).
        """
        return None

    def prefer(self, old: object, new: object) -> object:
        """Deterministic join of two facts for the same key.

        The default keeps the incumbent, which combined with sorted
        edge order yields first-wins (BFS-style) tie-breaking.
        """
        return old

    # -- cache serialization ----------------------------------------------

    def encode_fact(self, fact: object) -> object:
        """JSON-encodable form of *fact* (inverse of :meth:`decode_fact`)."""
        raise NotImplementedError

    def decode_fact(self, data: object) -> object:
        raise NotImplementedError


#: A function summary: fact key -> fact.
Summary = Dict[str, object]


def dedup_call_edges(
    adjacency: Mapping[str, List[Tuple[str, int]]], fq: str
) -> List[Tuple[str, int]]:
    """Call edges out of *fq*, first edge per callee in sorted order.

    Matches the visited-set semantics of a BFS over the same adjacency:
    a callee reached through several call sites is charged to the first
    (lowest-line) one.
    """
    seen = set()
    edges: List[Tuple[str, int]] = []
    for callee, line in adjacency.get(fq, []):
        if callee not in seen:
            seen.add(callee)
            edges.append((callee, line))
    return edges


def _strongly_connected(
    order: Sequence[str], edges: Mapping[str, List[str]]
) -> List[List[str]]:
    """Tarjan's SCC algorithm, iteratively, over nodes in *order*.

    Emits components callees-first (reverse topological order of the
    condensation), which is exactly the order a bottom-up summary pass
    needs.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    components: List[List[str]] = []
    counter = 0

    for root in order:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            successors = edges.get(node, [])
            while edge_index < len(successors):
                succ = successors[edge_index]
                edge_index += 1
                if succ not in index:
                    work[-1] = (node, edge_index)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack.get(succ):
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent, _ = work[-1]
                low[parent] = min(low[parent], low[node])
    return components


def compute_summaries(
    model: ProjectModel,
    graph: CallGraph,
    analysis: DataflowAnalysis,
    cache: Optional["SummaryCache"] = None,
) -> Dict[str, Summary]:
    """Bottom-up per-function summaries for *analysis*, to fixpoint.

    Deterministic: functions are visited in sorted-fq order, SCCs come
    from a deterministic Tarjan pass, edges are visited in sorted
    adjacency order, and the within-SCC worklist iterates members in
    sorted order until no summary changes.
    """
    if cache is not None:
        key = cache.digest(
            [CACHE_SCHEMA, analysis.name, analysis.version]
            + _model_digest_parts(model)
        )
        cached = cache.load(
            f"summaries-{analysis.name}",
            key,
            lambda payload: {
                fq: {
                    fact_key: analysis.decode_fact(data)
                    for fact_key, data in facts.items()
                }
                for fq, facts in payload.items()
            },
        )
        if cached is not None:
            return cached

    functions = list(model.functions())
    infos: Dict[str, FunctionInfo] = {func.fq: func for func in functions}
    adjacency = graph.adjacency()
    edges: Dict[str, List[Tuple[str, int]]] = {
        fq: [
            (callee, line)
            for callee, line in dedup_call_edges(adjacency, fq)
            if callee in infos
        ]
        for fq in infos
    }

    locals_: Dict[str, Summary] = {}
    for func in functions:
        module = model.modules[func.module]
        locals_[func.fq] = dict(analysis.local_facts(func, module, model))

    summaries: Dict[str, Summary] = {}

    def transfer(fq: str) -> Summary:
        result: Summary = dict(locals_[fq])
        caller = infos[fq]
        for callee, line in edges[fq]:
            callee_summary = summaries.get(callee)
            if not callee_summary:
                continue
            for fact_key, fact in callee_summary.items():
                lifted = analysis.lift(fact, caller, line, callee)
                if lifted is None:
                    continue
                if fact_key in result:
                    result[fact_key] = analysis.prefer(
                        result[fact_key], lifted
                    )
                else:
                    result[fact_key] = lifted
        return result

    order = sorted(infos)
    components = _strongly_connected(
        order, {fq: [callee for callee, _ in edges[fq]] for fq in order}
    )
    for component in components:
        cyclic = len(component) > 1 or any(
            callee == component[0] for callee, _ in edges[component[0]]
        )
        if not cyclic:
            summaries[component[0]] = transfer(component[0])
            continue
        for member in component:
            summaries[member] = {}
        changed = True
        while changed:
            changed = False
            for member in component:
                updated = transfer(member)
                if updated != summaries[member]:
                    summaries[member] = updated
                    changed = True

    # Empty summaries carry no information; dropping them keeps the
    # return value identical whether it was computed or cache-loaded.
    summaries = {fq: facts for fq, facts in summaries.items() if facts}

    if cache is not None:
        cache.store(
            f"summaries-{analysis.name}",
            key,
            {
                fq: {
                    fact_key: analysis.encode_fact(fact)
                    for fact_key, fact in sorted(facts.items())
                }
                for fq, facts in sorted(summaries.items())
            },
        )
    return summaries


def _model_digest_parts(model: ProjectModel) -> List[str]:
    parts = []
    for module in model.analyzed_modules():
        parts.append(module.relpath)
        parts.append(
            hashlib.sha256(module.source.text.encode("utf-8")).hexdigest()
        )
    return parts


class SummaryCache:
    """Content-hash-keyed on-disk store for analysis artifacts.

    One JSON file per slot (``<name>.json``) holding the key it was
    computed for and the payload; a lookup whose key does not match is a
    miss, so edits anywhere in the analyzed sources invalidate exactly
    the slots whose inputs changed.  Writes are atomic (tempfile +
    rename) and corrupt or foreign files read as misses, never errors:
    the cache can only ever make a run faster, not wrong.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    @staticmethod
    def digest(parts: Iterable[str]) -> str:
        blob = hashlib.sha256()
        for part in parts:
            blob.update(part.encode("utf-8"))
            blob.update(b"\x00")
        return blob.hexdigest()

    @staticmethod
    def file_digest_parts(sources: Iterable) -> List[str]:
        """Digest inputs for a set of :class:`SourceFile`-likes."""
        parts = []
        for source in sources:
            parts.append(source.relpath)
            parts.append(
                hashlib.sha256(source.text.encode("utf-8")).hexdigest()
            )
        return parts

    def _path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def load(
        self,
        name: str,
        key: str,
        decode: Callable[[object], object] = lambda payload: payload,
    ) -> Optional[object]:
        """The slot's payload passed through *decode*, or ``None`` on a
        miss: a missing, foreign, stale or corrupt file, or a payload
        *decode* cannot make sense of."""
        try:
            raw = self._path(name).read_text(encoding="utf-8")
            payload = json.loads(raw)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != CACHE_SCHEMA or payload.get("key") != key:
            return None
        try:
            return decode(payload["payload"])
        except (AttributeError, LookupError, TypeError, ValueError):
            return None

    def store(self, name: str, key: str, payload: object) -> None:
        record = {"schema": CACHE_SCHEMA, "key": key, "payload": payload}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w",
                dir=self.directory,
                prefix=f".{name}-",
                suffix=".tmp",
                delete=False,
                encoding="utf-8",
            )
            with handle:
                # One write of the C encoder's output: json.dump would
                # stream the same bytes through the pure-Python encoder.
                handle.write(json.dumps(record, sort_keys=True))
            os.replace(handle.name, self._path(name))
        except OSError:
            # A read-only or full disk degrades to an uncached run.
            return
