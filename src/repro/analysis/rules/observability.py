"""OBS001: observability emission must be gated behind its handle.

The zero-observer-effect contract has a structural half: instrumented
code only ever *talks to* an observer through an ``is not None`` gate,
so an unobserved run pays one attribute load and one comparison per
hook -- no allocation, no call, no way for observability state to leak
into the observed computation.  That discipline erodes one convenience
call at a time (``self.tracer.record_x(...)`` with no guard "works" on
every traced test run), so OBS001 pins it at both layers, reporting
every call on -- or write through -- a handle that no enclosing gate
names:

* simulated-time tracing: inside ``simulator/`` and ``faults/``, the
  handles are the tracer names (``OBSERVER_COMPONENTS``);
* runtime self-telemetry: inside ``runtime/``, the handles are the
  telemetry names.  The batch executor and result cache are on every
  experiment's hot path; an ungated telemetry call would put clock
  reads and record allocation into *untelemetered* runs, breaking the
  bit-identity the DET-rule family guarantees.

The gate grammar is :class:`~repro.analysis.effects._GateWalker`, the
same one PERF001 and EFF001 read gates with.  Recognized gates::

    trace = self.trace
    if trace is not None:
        trace.record_interval(...)          # gated

    if tracer is None:
        return                              # early exit gates the rest
    tracer.begin_request(...)               # gated

Violations::

    self.tracer.record_interval(...)        # no gate at all
    if enabled:
        tracer.end_body(...)                # gate tests the wrong name
    trace_ctx.offloads += 1                 # ungated write
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..effects import (
    OBSERVER_COMPONENTS,
    _dotted_parts,
    _GateWalker,
    _render_path,
)
from ..findings import Finding, Severity
from ..registry import Rule, register_rule

#: Receiver names treated as runtime self-telemetry handles.
_TELEMETRY_NAMES = frozenset({
    "telemetry", "_telemetry", "batch_telemetry", "cache_telemetry",
    "recorder",
})

#: Path component -> (what findings call the handle, the handle names).
_HANDLES = {
    "simulator": ("tracer", OBSERVER_COMPONENTS),
    "faults": ("tracer", OBSERVER_COMPONENTS),
    "runtime": ("telemetry", _TELEMETRY_NAMES),
}


@register_rule
class GatedObservability(Rule):
    """OBS001: every tracer touch in simulator/faults code and every
    telemetry touch in runtime/ code sits inside a gate naming it."""

    name = "OBS001"
    severity = Severity.ERROR
    cache_version = "2"
    description = (
        "every call on, or write through, a tracer handle in simulator/ "
        "and faults/ (a telemetry handle in runtime/) is gated behind an "
        "`if <handle> ...` check naming it"
    )
    invariant = (
        "zero observer effect: untraced and untelemetered runs execute "
        "no observer calls (and therefore no clock reads), so every hook "
        "costs one attribute load and one comparison when observability "
        "is off and results stay bit-identical"
    )

    def check(self, source, context) -> Iterator[Finding]:
        for component, (word, names) in _HANDLES.items():
            if source.in_scope(component):
                break
        else:
            return
        for kind, node, name in _GateWalker(names).walk_suite(
            source.tree.body, frozenset()
        ):
            if kind == "gate":
                continue
            if kind == "call":
                what = f"{word} call {ast.unparse(node.func)}()"
            else:
                what = (
                    f"write to {word} state "
                    f"{_render_path(_dotted_parts(node))}"
                )
            yield Finding(
                rule=self.name,
                path=source.relpath,
                line=node.lineno,
                column=node.col_offset,
                message=(
                    f"{what} is not gated behind an `if {name} ...` check"
                ),
                hint=(
                    f"bind the {word} to a local and gate the touch: "
                    f"`{name} = self.{name}` / "
                    f"`if {name} is not None: {name}.method(...)`"
                ),
                severity=self.severity,
            )
