"""Whole-program project model: modules, symbols, and re-export chains.

The per-file rules see one :class:`~repro.analysis.source.SourceFile` at
a time; the deep rules (taint flow, unit flow, dead exports) need to see
the *program*: which module each file is, what every module defines,
what every import binds, and where a name that travels through facade
re-exports actually lives.  :class:`ProjectModel` answers those
questions statically and deterministically -- it never imports the
analyzed code.

Module names derive from project-relative paths (``src/repro/simulator/
service.py`` -> ``repro.simulator.service``; ``__init__.py`` names the
package itself), so fixture trees with virtual relpaths model arbitrary
repository layouts, exactly like the per-file rules.

Resolution follows import bindings through facades with a cycle guard
and always lands on one of a closed set of outcomes
(:class:`Resolution`): a project function/class/constant/module, an
*external* target (stdlib or third party -- known, just outside the
project), or *unknown* (a chain the model cannot finish).  Unknowns are
never silently dropped; the call-graph builder surfaces them in its
unresolved bucket.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .source import SourceFile, walk_nodes

#: Leading path components stripped before deriving a module name (the
#: conventional source roots).
_SRC_ROOTS = ("src",)

#: Names that are binding statements but never interesting symbols.
_IGNORED_BINDINGS = ("__all__",)


def module_name_for(relpath: str) -> Optional[str]:
    """Derive the dotted module name for a project-relative ``.py`` path.

    >>> module_name_for("src/repro/simulator/service.py")
    'repro.simulator.service'
    >>> module_name_for("src/repro/core/__init__.py")
    'repro.core'
    >>> module_name_for("scripts/bench_runtime.py")
    'scripts.bench_runtime'
    """
    parts = list(relpath.split("/"))
    if not parts or not parts[-1].endswith(".py"):
        return None
    if parts[0] in _SRC_ROOTS and len(parts) > 1:
        parts = parts[1:]
    stem = parts[-1][: -len(".py")]
    if stem == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = stem
    if not parts or not all(part.isidentifier() for part in parts):
        return None
    return ".".join(parts)


@dataclasses.dataclass
class FunctionInfo:
    """One function or method definition."""

    fq: str
    module: str
    qualname: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    relpath: str
    line: int
    class_name: Optional[str] = None


@dataclasses.dataclass
class ClassInfo:
    """One class definition with its methods and attribute annotations."""

    fq: str
    module: str
    name: str
    node: ast.ClassDef
    relpath: str
    line: int
    methods: Dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)

    #: Attribute name -> annotation/value expression that types it
    #: (class-level ``x: CPU``, dataclass fields, ``self.x = C()``).
    attr_exprs: Dict[str, ast.expr] = dataclasses.field(default_factory=dict)

    #: Base-class expressions, resolved lazily by the model.
    base_exprs: Tuple[ast.expr, ...] = ()


@dataclasses.dataclass
class ModuleInfo:
    """One module of the analyzed program."""

    name: str
    source: SourceFile
    is_package: bool
    package: str  # enclosing package ("" at the top level)

    #: Local name -> absolute dotted import target (relative imports
    #: already resolved against the module's package).
    imports: Dict[str, str] = dataclasses.field(default_factory=dict)

    functions: Dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    classes: Dict[str, ClassInfo] = dataclasses.field(default_factory=dict)

    #: Module-level simple assignments: name -> value expression.
    constants: Dict[str, ast.expr] = dataclasses.field(default_factory=dict)

    #: Names declared by ``__all__`` (None when absent) and its location.
    all_names: Optional[Tuple[str, ...]] = None
    all_line: int = 0

    #: Reference-only modules feed the usage index (dead-export
    #: detection) but are excluded from the call graph and the effect and
    #: unit-flow passes -- they are consumers, not analyzed code.
    reference_only: bool = False

    @property
    def relpath(self) -> str:
        return self.source.relpath


@dataclasses.dataclass(frozen=True)
class Resolution:
    """Outcome of resolving a dotted name through the project."""

    #: "function" | "class" | "constant" | "module" | "external" | "unknown"
    kind: str

    #: Fully-qualified resolved name (dotted import target for external
    #: and unknown outcomes -- whatever progress was made).
    fq: str

    function: Optional[FunctionInfo] = None
    cls: Optional[ClassInfo] = None
    module: Optional[ModuleInfo] = None

    #: For "unknown": the chain entered a known project module but the
    #: name was not bound there (a broken re-export), as opposed to a
    #: chain that left the project entirely.
    broken_chain: bool = False

    @property
    def resolved(self) -> bool:
        return self.kind not in ("unknown",)


_EXTERNAL = "external"
_UNKNOWN = "unknown"

#: Recursion guard for pathological annotation / re-export nesting.
_MAX_DEPTH = 32


class ProjectModel:
    """Static model of one program: modules, symbols, and resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: (relpath, reason) for files the model had to skip -- parse
        #: failures and module-name collisions.  Never silently dropped:
        #: the deep rules surface these as diagnostics.
        self.skipped: List[Tuple[str, str]] = []
        self._usage_index: Optional[Dict[str, List[str]]] = None
        self._definition_refs: Optional[Dict[str, List[str]]] = None
        self._string_mentions: Optional[Dict[str, List[str]]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        sources: Sequence[SourceFile],
        reference_sources: Sequence[SourceFile] = (),
    ) -> "ProjectModel":
        model = cls()
        for source, reference in [(s, False) for s in sources] + [
            (s, True) for s in reference_sources
        ]:
            model._add_source(source, reference_only=reference)
        return model

    def _add_source(self, source: SourceFile, *, reference_only: bool) -> None:
        name = module_name_for(source.relpath)
        if name is None:
            self.skipped.append((source.relpath, "not an importable module path"))
            return
        if source.tree is None:
            self.skipped.append(
                (source.relpath, f"does not parse: {source.parse_error}")
            )
            return
        if name in self.modules:
            self.skipped.append(
                (
                    source.relpath,
                    f"module name {name!r} collides with "
                    f"{self.modules[name].relpath}",
                )
            )
            return
        is_package = source.name == "__init__.py"
        package = name if is_package else name.rpartition(".")[0]
        info = ModuleInfo(
            name=name,
            source=source,
            is_package=is_package,
            package=package,
            imports=_absolute_imports(source, package),
            reference_only=reference_only,
        )
        _collect_symbols(info)
        self.modules[name] = info

    # -- iteration helpers -------------------------------------------------

    def analyzed_modules(self) -> List[ModuleInfo]:
        """Non-reference modules, in deterministic (name) order."""
        return [
            self.modules[name]
            for name in sorted(self.modules)
            if not self.modules[name].reference_only
        ]

    def all_modules(self) -> List[ModuleInfo]:
        return [self.modules[name] for name in sorted(self.modules)]

    def functions(self) -> List[FunctionInfo]:
        """Every function/method of the analyzed modules, sorted by fq."""
        out: List[FunctionInfo] = []
        for module in self.analyzed_modules():
            out.extend(module.functions.values())
            for cls_info in module.classes.values():
                out.extend(cls_info.methods.values())
        return sorted(out, key=lambda f: f.fq)

    # -- resolution --------------------------------------------------------

    def resolve_dotted(self, dotted: str, *, _depth: int = 0) -> Resolution:
        """Resolve an absolute dotted name to its project definition.

        Follows import bindings (facade re-exports) until a definition,
        an external target, or a dead end is reached.
        """
        if _depth > _MAX_DEPTH:
            return Resolution(kind=_UNKNOWN, fq=dotted)
        module, rest = self._split_module(dotted)
        if module is None:
            return Resolution(kind=_EXTERNAL, fq=dotted)
        if not rest:
            # *dotted* names a module exactly -- but when the enclosing
            # package rebinds the same name (``from .sweep import
            # sweep``), runtime attribute access yields the rebinding,
            # not the submodule.  Mirror Python and prefer the symbol.
            parent_name, _, last = module.name.rpartition(".")
            parent = self.modules.get(parent_name)
            if parent is not None:
                rebound = parent.imports.get(last)
                if rebound is not None and rebound != module.name:
                    return self.resolve_dotted(rebound, _depth=_depth + 1)
                if (
                    last in parent.functions
                    or last in parent.classes
                    or last in parent.constants
                ):
                    return self._resolve_in(parent, [last], dotted, _depth)
            return Resolution(kind="module", fq=module.name, module=module)
        return self._resolve_in(module, rest, dotted, _depth)

    def resolve_name(
        self, module: ModuleInfo, name: str, *, _depth: int = 0
    ) -> Resolution:
        """Resolve a bare name as seen from inside *module*."""
        return self._resolve_in(module, [name], f"{module.name}.{name}", _depth)

    def _resolve_in(
        self,
        module: ModuleInfo,
        rest: List[str],
        dotted: str,
        depth: int,
    ) -> Resolution:
        head, tail = rest[0], rest[1:]
        if head in module.functions:
            # Attributes of a function are beyond static knowledge.
            if tail:
                return Resolution(kind=_UNKNOWN, fq=dotted)
            return Resolution(
                kind="function",
                fq=module.functions[head].fq,
                function=module.functions[head],
            )
        if head in module.classes:
            cls_info = module.classes[head]
            if not tail:
                return Resolution(kind="class", fq=cls_info.fq, cls=cls_info)
            if len(tail) == 1:
                method = self.find_method(cls_info, tail[0])
                if method is not None:
                    return Resolution(
                        kind="function", fq=method.fq, function=method
                    )
            return Resolution(kind=_UNKNOWN, fq=dotted)
        if head in module.constants and not tail:
            return Resolution(kind="constant", fq=f"{module.name}.{head}")
        if head in module.imports:
            target = module.imports[head]
            full = ".".join([target] + tail)
            return self.resolve_dotted(full, _depth=depth + 1)
        # A submodule reached by attribute access on its package.
        candidate = f"{module.name}.{head}" if module.is_package else None
        if candidate and candidate in self.modules:
            sub = self.modules[candidate]
            if not tail:
                return Resolution(kind="module", fq=sub.name, module=sub)
            return self._resolve_in(sub, tail, dotted, depth + 1)
        return Resolution(kind=_UNKNOWN, fq=dotted, broken_chain=True)

    def _split_module(
        self, dotted: str
    ) -> Tuple[Optional[ModuleInfo], List[str]]:
        """Longest known module prefix of *dotted* plus the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            name = ".".join(parts[:cut])
            if name in self.modules:
                return self.modules[name], parts[cut:]
        return None, parts

    # -- class structure ---------------------------------------------------

    def class_bases(self, cls_info: ClassInfo) -> List[ClassInfo]:
        """Project-local base classes of *cls_info* (external bases are
        invisible and simply absent)."""
        module = self.modules.get(cls_info.module)
        if module is None:
            return []
        bases: List[ClassInfo] = []
        for expr in cls_info.base_exprs:
            resolution = self._resolve_annotation_expr(expr, module)
            if resolution is not None and resolution.cls is not None:
                bases.append(resolution.cls)
        return bases

    def class_mro(self, cls_info: ClassInfo) -> List[ClassInfo]:
        """Approximate MRO: the class and its project-local ancestors."""
        seen = {cls_info.fq}
        order = [cls_info]
        frontier = [cls_info]
        while frontier:
            current = frontier.pop(0)
            for base in self.class_bases(current):
                if base.fq not in seen:
                    seen.add(base.fq)
                    order.append(base)
                    frontier.append(base)
        return order

    def find_method(
        self, cls_info: ClassInfo, name: str
    ) -> Optional[FunctionInfo]:
        for candidate in self.class_mro(cls_info):
            if name in candidate.methods:
                return candidate.methods[name]
        return None

    def attr_type(
        self, cls_info: ClassInfo, attr: str, *, _depth: int = 0
    ) -> Optional[ClassInfo]:
        """The class of instance attribute *attr*, where annotated."""
        if _depth > _MAX_DEPTH:
            return None
        for candidate in self.class_mro(cls_info):
            expr = candidate.attr_exprs.get(attr)
            if expr is None:
                continue
            module = self.modules.get(candidate.module)
            if module is None:
                return None
            resolution = self._resolve_annotation_expr(expr, module)
            return resolution.cls if resolution is not None else None
        return None

    def _resolve_annotation_expr(
        self, expr: ast.expr, module: ModuleInfo
    ) -> Optional[Resolution]:
        """Resolve a type annotation (or constructor call) to a class."""
        expr = _unwrap_annotation(expr)
        if expr is None:
            return None
        dotted = _dotted(expr)
        if dotted is None:
            return None
        resolution = self._resolve_in(module, dotted.split("."), dotted, 0)
        if resolution.kind == "class":
            return resolution
        return None

    # -- usage index (dead-export detection) -------------------------------

    def usage_index(self) -> Dict[str, List[str]]:
        """Map definition fq -> sorted list of modules referencing it.

        A module references a definition when one of its imports (or a
        dotted attribute chain rooted at an imported module alias)
        resolves -- through any facade chain -- to that definition.
        Reference-only modules participate: they are the consumers dead
        exports are dead *to*.
        """
        if self._usage_index is not None:
            return self._usage_index
        index: Dict[str, List[str]] = {}

        def record(fq: str, user: str) -> None:
            users = index.setdefault(fq, [])
            if user not in users:
                users.append(user)

        for module in self.all_modules():
            for target in sorted(set(module.imports.values())):
                resolution = self.resolve_dotted(target)
                if resolution.kind in ("function", "class", "constant"):
                    record(resolution.fq, module.name)
                elif resolution.kind == "module":
                    record(resolution.fq, module.name)
            for dotted in sorted(_attribute_uses(module)):
                resolution = self.resolve_dotted(dotted)
                if resolution.kind in ("function", "class", "constant"):
                    record(resolution.fq, module.name)
        for users in index.values():
            users.sort()
        self._usage_index = index
        return index

    def definition_refs(self) -> Dict[str, List[str]]:
        """Map definition fq -> sorted fqs of definitions it references.

        The edges of the liveness graph dead-export detection walks: a
        function referencing a class (constructing it, returning it,
        annotating with it) keeps that class alive whenever the function
        itself is alive, even though no *other module* ever imports the
        class by name.  Classes are one unit (their methods live and die
        with them); module-level constants are definitions too, so a
        registry dict keeps the functions it lists alive.

        Each distinct dotted name is resolved once per module, and a
        class is scanned from its header and body statements, reusing
        the memoized walks of its methods.
        """
        if self._definition_refs is not None:
            return self._definition_refs
        refs: Dict[str, set] = {}
        for module in self.analyzed_modules():
            walk = module.source.walk
            owned = [(f.fq, walk(f.node)) for f in module.functions.values()]
            for cls_info in module.classes.values():
                cls = cls_info.node
                header = cls.bases + cls.keywords + cls.decorator_list
                for node in header + getattr(cls, "type_params", []) + cls.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owned.append((cls_info.fq, walk(node)))
                    else:
                        owned.append((cls_info.fq, walk_nodes(node)))
            for name, value in module.constants.items():
                owned.append((f"{module.name}.{name}", walk_nodes(value)))
            memo: Dict[str, Optional[str]] = {}
            for owner, nodes in owned:
                targets = refs.setdefault(owner, set())
                targets.update(self._named_definitions(module, nodes, memo))
                targets.discard(owner)

        self._definition_refs = {
            owner: sorted(targets) for owner, targets in refs.items() if targets
        }
        return self._definition_refs

    def _named_definitions(
        self,
        module: ModuleInfo,
        nodes: Iterable[ast.AST],
        memo: Dict[str, Optional[str]],
    ) -> Iterator[str]:
        """Fqs of the project definitions the ``Name``/``Attribute``
        nodes among *nodes* resolve to from inside *module*.

        *memo* maps a dotted name to its definition fq (``None`` when it
        names none) for one module, so repeated names resolve once.
        """
        for node in nodes:
            if isinstance(node, ast.Name):
                dotted: Optional[str] = node.id
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted is None:
                    continue
            else:
                continue
            if dotted in memo:
                fq = memo[dotted]
            else:
                resolution = self._resolve_in(
                    module, dotted.split("."), f"{module.name}.{dotted}", 0
                )
                fq = memo[dotted] = (
                    resolution.fq
                    if resolution.kind in ("function", "class", "constant")
                    else None
                )
            if fq is not None:
                yield fq

    def loose_refs(self) -> List[str]:
        """Definitions referenced by module-level *executable* code.

        Statements outside any def/class run at import time -- registry
        population, dispatch-table wiring -- so whatever they reference
        is alive as soon as the module is imported at all.  Sorted,
        deduplicated.
        """
        alive: set = set()
        for module in self.analyzed_modules():
            tree = module.source.tree
            assert tree is not None
            memo: Dict[str, Optional[str]] = {}
            for stmt in tree.body:
                if isinstance(
                    stmt,
                    (
                        ast.FunctionDef,
                        ast.AsyncFunctionDef,
                        ast.ClassDef,
                        ast.Import,
                        ast.ImportFrom,
                        ast.Assign,
                        ast.AnnAssign,
                    ),
                ):
                    continue
                alive.update(
                    self._named_definitions(module, walk_nodes(stmt), memo)
                )
        return sorted(alive)

    def string_mentions(self) -> Dict[str, List[str]]:
        """Map identifier-shaped string literal -> modules containing it.

        Evidence of dynamic access: ``getattr(viz, "fig8_svg")`` keeps
        ``fig8_svg`` alive even though no import names it.  Strings
        inside ``__all__`` assignments are excluded -- otherwise every
        export would whitelist itself.
        """
        if self._string_mentions is not None:
            return self._string_mentions
        mentions: Dict[str, List[str]] = {}
        for module in self.all_modules():
            tree = module.source.tree
            if tree is None:
                continue
            skip: set = set()
            for stmt in tree.body:
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    targets = [stmt.target]
                if any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in targets
                ):
                    skip.update(id(node) for node in walk_nodes(stmt))
            for node in module.source.walk():
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    if node.value.isidentifier():
                        users = mentions.setdefault(node.value, [])
                        if module.name not in users:
                            users.append(module.name)
        for users in mentions.values():
            users.sort()
        self._string_mentions = mentions
        return mentions


# ---------------------------------------------------------------------------
# AST extraction helpers.
# ---------------------------------------------------------------------------


def _absolute_imports(source: SourceFile, package: str) -> Dict[str, str]:
    """Local import bindings with relative levels resolved to absolute
    dotted targets against *package*."""
    table: Dict[str, str] = {}
    pkg_parts = package.split(".") if package else []
    for node in source.walk():
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base_parts = (node.module or "").split(".") if node.module else []
            else:
                kept = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base_parts = kept + (node.module.split(".") if node.module else [])
            base = ".".join(part for part in base_parts if part)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def _collect_symbols(info: ModuleInfo) -> None:
    tree = info.source.tree
    assert tree is not None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(
                fq=f"{info.name}.{node.name}",
                module=info.name,
                qualname=node.name,
                name=node.name,
                node=node,
                relpath=info.relpath,
                line=node.lineno,
            )
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = _collect_class(info, node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id not in _IGNORED_BINDINGS
                ):
                    info.constants[target.id] = node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.value is not None
                and node.target.id not in _IGNORED_BINDINGS
            ):
                info.constants[node.target.id] = node.value
    declared = _extract_all(tree)
    if declared is not None:
        info.all_names, info.all_line = declared


def _collect_class(info: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    cls_info = ClassInfo(
        fq=f"{info.name}.{node.name}",
        module=info.name,
        name=node.name,
        node=node,
        relpath=info.relpath,
        line=node.lineno,
        base_exprs=tuple(node.bases),
    )
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls_info.methods[item.name] = FunctionInfo(
                fq=f"{cls_info.fq}.{item.name}",
                module=info.name,
                qualname=f"{node.name}.{item.name}",
                name=item.name,
                node=item,
                relpath=info.relpath,
                line=item.lineno,
                class_name=node.name,
            )
            _collect_self_attrs(cls_info, item, info.source)
        elif isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            # Class-level annotation: dataclass field or typed attribute.
            cls_info.attr_exprs.setdefault(item.target.id, item.annotation)
    return cls_info


def _collect_self_attrs(
    cls_info: ClassInfo, method: ast.AST, source: SourceFile
) -> None:
    """Record ``self.x = C(...)``, ``self.x: T = ...``, and ``self.x =
    annotated_param`` attribute types."""
    args = method.args
    param_annotations = {
        arg.arg: arg.annotation
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        if arg.annotation is not None
    }
    for node in source.walk(method):
        if isinstance(node, ast.AnnAssign):
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                cls_info.attr_exprs.setdefault(target.attr, node.annotation)
        elif isinstance(node, ast.Assign):
            typing_expr: Optional[ast.expr] = None
            if isinstance(node.value, ast.Call):
                typing_expr = node.value.func
            elif isinstance(node.value, ast.Name):
                typing_expr = param_annotations.get(node.value.id)
            if typing_expr is None:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls_info.attr_exprs.setdefault(target.attr, typing_expr)


def _extract_all(tree: ast.Module) -> Optional[Tuple[Tuple[str, ...], int]]:
    for node in tree.body:
        targets: Iterable[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = node.value
                names: List[str] = []
                if isinstance(value, (ast.List, ast.Tuple)):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.append(element.value)
                return tuple(names), node.lineno
    return None


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _unwrap_annotation(expr: ast.expr) -> Optional[ast.expr]:
    """Peel ``Optional[X]`` / ``"X"`` string annotations down to the
    name expression that carries the class."""
    for _ in range(_MAX_DEPTH):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                expr = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return None
            continue
        if isinstance(expr, ast.Subscript):
            # Optional[X] / Final[X] / Type[X]: take the first inner slot.
            inner = expr.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            expr = inner
            continue
        break
    return expr if isinstance(expr, (ast.Name, ast.Attribute)) else None


def _attribute_uses(module: ModuleInfo) -> List[str]:
    """Dotted attribute chains rooted at an imported name, absolutized.

    ``sim.CPU`` with ``import repro.simulator as sim`` contributes
    ``repro.simulator.CPU`` -- the usage evidence the dead-export pass
    consumes.
    """
    uses: List[str] = []
    for node in module.source.walk():
        if not isinstance(node, ast.Attribute):
            continue
        dotted = _dotted(node)
        if dotted is None:
            continue
        root, _, rest = dotted.partition(".")
        target = module.imports.get(root)
        if target is None or not rest:
            continue
        uses.append(f"{target}.{rest}")
    return uses
