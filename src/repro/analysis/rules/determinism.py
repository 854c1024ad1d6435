"""Determinism rules: DET001 (ambient entropy) and DET002 (unordered
iteration).

The runtime's core contract is *serial == pool == cache, bit for bit*: a
:class:`~repro.runtime.RunSpec` fully determines its result, so a cached
result can replace a fresh simulation forever.  Both rules police the
two ways that contract silently dies: reading entropy the spec does not
control (wall clocks, unseeded RNGs, private generators drawn outside
the seeded facades) and iterating containers whose order varies across
interpreter processes (sets under hash randomization).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..effects import (
    SANCTIONED_RNG_CLASSES,
    classify_entropy_call,
    is_set_expression,
    local_aliases,
    rng_receiver,
    sanctioned_nodes,
)
from ..findings import Finding, Severity
from ..registry import Rule, register_rule
from ._ast_util import import_map, resolve_target

#: Directories whose code runs inside (or feeds) simulated execution.
_SIMULATED_SCOPES = ("simulator", "faults", "runtime", "workloads")

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _functions(source):
    """``(def, class name)`` for every module-level function and method."""
    for node in source.tree.body:
        if isinstance(node, _FUNCTION_DEFS):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTION_DEFS):
                    yield item, node.name


@register_rule
class UnseededEntropy(Rule):
    """DET001: ambient entropy reachable from simulated paths."""

    name = "DET001"
    severity = Severity.ERROR
    cache_version = "2"
    description = (
        "no wall clocks or unseeded RNGs in simulator/, faults/, runtime/ "
        "or workloads/, and no rng draws outside BlockSampler/FaultInjector"
    )
    invariant = (
        "serial == pool == cache bit-identity: a RunSpec must fully "
        "determine its result, so simulated paths may only draw from "
        "the simulated clock and the seeded facades a RunSpec seeds -- "
        "a stray draw anywhere in the simulation layers silently forks "
        "the run from its cache key"
    )

    def check(self, source, context) -> Iterator[Finding]:
        if not source.in_scope(*_SIMULATED_SCOPES):
            return
        imports = import_map(source)
        for node in source.walk():
            if not isinstance(node, ast.Call):
                continue
            target = resolve_target(node.func, imports)
            if target is None:
                continue
            reason = classify_entropy_call(target)
            if reason is None:
                continue
            yield Finding(
                rule=self.name,
                path=source.relpath,
                line=node.lineno,
                column=node.col_offset,
                message=f"call to {target} ({reason}) in a simulated path",
                hint=(
                    "thread an explicitly seeded numpy Generator (or the "
                    "engine's simulated clock) from the RunSpec instead; "
                    "wall-clock benchmarking belongs in scripts/ or "
                    "benchmarks/"
                ),
                severity=self.severity,
            )
        yield from self._unbudgeted_draws(source)

    def _unbudgeted_draws(self, source) -> Iterator[Finding]:
        """Draws on ``rng``/``_rng`` receivers, through local aliases
        too, outside the facades' class bodies and constructor
        arguments."""
        for func, class_name in _functions(source):
            if class_name in SANCTIONED_RNG_CLASSES:
                continue
            nodes = source.walk(func)
            aliases = local_aliases(nodes)
            sanctioned = sanctioned_nodes(nodes)
            for node in nodes:
                if (
                    not isinstance(node, ast.Call)
                    or id(node) in sanctioned
                    or rng_receiver(node.func, aliases) is None
                ):
                    continue
                yield Finding(
                    rule=self.name,
                    path=source.relpath,
                    line=node.lineno,
                    column=node.col_offset,
                    message=(
                        f"draw from RNG {ast.unparse(node.func)} in "
                        f"{func.name}() outside the sanctioned samplers"
                    ),
                    hint=(
                        "route the draw through BlockSampler or "
                        "FaultInjector (seeded from the RunSpec) instead "
                        "of holding a private RNG"
                    ),
                    severity=self.severity,
                )


#: Directories whose iteration order feeds cache keys, fingerprints, or
#: summary aggregation.
_ORDERED_SCOPES = ("runtime", "simulator", "characterization")

#: Files outside those directories that also aggregate or hash.
_ORDERED_FILES = ("canonical.py",)

#: Order-sensitive single-argument consumers: feeding them an unordered
#: set changes the result (or its float rounding) across processes.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "sum", "enumerate", "reversed"}


@register_rule
class UnorderedIteration(Rule):
    """DET002: iterating a set where order reaches a measurement."""

    name = "DET002"
    severity = Severity.ERROR
    description = (
        "no unordered set iteration in cache-key, fingerprint, or "
        "aggregation code"
    )
    invariant = (
        "cache keys and summary fingerprints must be identical across "
        "interpreter processes; set iteration order depends on hash "
        "randomization, so it must pass through sorted() first"
    )

    def check(self, source, context) -> Iterator[Finding]:
        in_scope = source.in_scope(*_ORDERED_SCOPES) or (
            source.name in _ORDERED_FILES
        )
        if not in_scope:
            return
        for node in source.walk():
            sites = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sites.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                sites.extend(generator.iter for generator in node.generators)
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SENSITIVE_CALLS
                    and node.args
                ):
                    sites.append(node.args[0])
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                ):
                    sites.append(node.args[0])
            for site in sites:
                if is_set_expression(site):
                    yield Finding(
                        rule=self.name,
                        path=source.relpath,
                        line=site.lineno,
                        column=site.col_offset,
                        message=(
                            "iteration over a set in order-sensitive code; "
                            "set order varies across processes"
                        ),
                        hint="wrap the set in sorted(...) before iterating",
                        severity=self.severity,
                    )
