"""Dependency-free C source extraction for the cross-language parity pass.

The compiled hot core (``src/repro/_hotcore.c``) must stay bit-identical
to its Python twins, and the contract surface is small and textual: the
attribute names the extension interns and looks up, the error strings it
formats, the packed-layout constants it ``#define``s, and the methods it
exposes.  This module extracts exactly that surface with a small
tokenizer -- no libclang, no preprocessor, no toolchain -- so the parity
rules (PAR001-PAR004) can run on any machine that can run the linter.

The scanner is deliberately lenient: it understands C comments, string
literals (with adjacent-literal concatenation), object-like ``#define``
directives, and balanced-parenthesis call arguments.  Anything it does
not understand it skips; a C file that confuses it degrades to an empty
extraction, never a crash.

Suppression pragmas ride in comments and feed the same pipeline as the
Python ``# repro: noqa`` pragmas::

    PyErr_SetString(SimulationError,
                    "advance on a cleared binding"); /* repro: noqa[PAR002] */

:class:`CSourceFile` duck-types the suppression interface of
:class:`~repro.analysis.source.SourceFile` (``relpath`` +
``is_suppressed``), so the driver applies C-side pragmas with the exact
code path it uses for Python files.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

#: ``repro: noqa`` / ``repro: noqa[RULE,...]`` inside a C comment.  The
#: Python pragma requires the leading ``#`` of a Python comment; the C
#: form is the same directive inside ``/* ... */`` or ``// ...``.
_C_PRAGMA = re.compile(
    r"repro:\s*noqa(?:\[(?P<rules>[A-Z0-9_,\s]+)\])?", re.IGNORECASE
)

#: Sentinel meaning "suppress every rule on this line" (mirrors
#: :data:`repro.analysis.source.SUPPRESS_ALL`).
_SUPPRESS_ALL: FrozenSet[str] = frozenset({"*"})

#: Integer-literal suffixes C allows and Python does not.
_INT_SUFFIX = re.compile(r"\b(0[xX][0-9a-fA-F]+|\d+)(?:[uUlL]+)\b")

#: C printf-style conversion, including CPython's %S/%R object forms.
_C_CONVERSION = re.compile(r"%[#0\- +]*\d*(?:\.\d+)?(?:ll|l|z|h)?[a-zA-Z]")


@dataclasses.dataclass(frozen=True, slots=True)
class CString:
    """One string-literal occurrence (concatenation already applied)."""

    value: str
    line: int
    column: int


@dataclasses.dataclass(frozen=True, slots=True)
class CDefine:
    """One object-like ``#define``, with its constant-folded value."""

    name: str
    expression: str
    value: Optional[int]
    line: int
    column: int


@dataclasses.dataclass(frozen=True, slots=True)
class CErrorString:
    """One ``PyErr_Format``/``PyErr_SetString`` format string, paired
    with the exception-class identifier it is raised as."""

    exc_class: str
    template: CString


@dataclasses.dataclass
class CExtraction:
    """Everything the parity rules need from one C file."""

    #: Attribute names interned at module init (``INTERN``/
    #: ``PyUnicode_InternFromString``/``PyUnicode_FromString``).
    interned: List[CString] = dataclasses.field(default_factory=list)

    #: Names looked up with ``PyObject_GetAttrString``/``SetAttrString``.
    getattr_names: List[CString] = dataclasses.field(default_factory=list)

    #: Modules imported with ``PyImport_ImportModule``.
    imports: List[CString] = dataclasses.field(default_factory=list)

    #: Error/format strings per exception class.
    error_strings: List[CErrorString] = dataclasses.field(default_factory=list)

    #: Names the extension *exposes*: PyMethodDef/PyGetSetDef entries.
    method_names: List[CString] = dataclasses.field(default_factory=list)

    #: Names registered on the module with ``PyModule_AddObject``.
    exports: List[CString] = dataclasses.field(default_factory=list)

    #: Object-like ``#define``s by name.
    defines: Dict[str, CDefine] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class CSourceFile:
    """One scanned C file presented to the parity rules.

    Duck-types the suppression surface of
    :class:`~repro.analysis.source.SourceFile` so the driver's pragma
    pipeline treats C and Python files identically.  Like a Python
    source, the file is scanned lazily: a warm cached run that never
    reads :attr:`extraction` or a pragma never scans it.
    """

    path: Path
    relpath: str
    text: str

    @classmethod
    def load(cls, path: Path, relpath: str) -> "CSourceFile":
        return cls.from_text(
            path.read_text(encoding="utf-8"), relpath=relpath, path=path
        )

    @classmethod
    def from_text(
        cls, text: str, *, relpath: str, path: Optional[Path] = None
    ) -> "CSourceFile":
        return cls(
            path=path if path is not None else Path(relpath),
            relpath=relpath,
            text=text,
        )

    @functools.cached_property
    def _stripped(self) -> Tuple[str, List[Tuple[int, str]]]:
        return strip_comments(self.text)

    @functools.cached_property
    def extraction(self) -> CExtraction:
        return extract(self._stripped[0])

    @functools.cached_property
    def suppressions(self) -> Dict[int, FrozenSet[str]]:
        return parse_c_suppressions(self._stripped[1])

    @property
    def name(self) -> str:
        return self.relpath.rsplit("/", 1)[-1]

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return rules is _SUPPRESS_ALL or "*" in rules or rule.upper() in rules

    def find_line(self, needle: str) -> Tuple[int, int]:
        """``(line, column)`` of the first occurrence of *needle* in the
        raw text (1-based line, 0-based column); ``(1, 0)`` if absent.
        Used to point messages at C function definitions."""
        index = self.text.find(needle)
        if index < 0:
            return 1, 0
        prefix = self.text[:index]
        return prefix.count("\n") + 1, index - (prefix.rfind("\n") + 1)


# ---------------------------------------------------------------------------
# Scanning: comments, strings, and line structure.
# ---------------------------------------------------------------------------


def strip_comments(text: str) -> Tuple[str, List[Tuple[int, str]]]:
    """Split *text* into comment-free code and ``(line, text)`` comments.

    The returned code is positionally identical to the input (comments
    are blanked with spaces, newlines preserved) so every offset-derived
    line/column matches the original file.  String literals are left in
    place; comment markers inside strings are not comment starts.
    """
    out: List[str] = []
    comments: List[Tuple[int, str]] = []
    i, n = 0, len(text)
    line = 1
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            start = i
            while i < n and text[i] != "\n":
                i += 1
            comments.append((line, text[start:i]))
            out.append(" " * (i - start))
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start = i
            start_line = line
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            i = min(i + 2, n)
            # Multi-line comments attribute their pragma to the line the
            # pragma text sits on, one entry per comment line.
            for offset, part in enumerate(text[start:i].split("\n")):
                comments.append((start_line + offset, part))
            blanked = "".join(
                "\n" if c == "\n" else " " for c in text[start:i]
            )
            out.append(blanked)
            continue
        if ch == '"' or ch == "'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n and text[i] != quote:
                out.append(text[i])
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i + 1])
                    i += 1
                elif text[i] == "\n":
                    line += 1
                i += 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        if ch == "\n":
            line += 1
        out.append(ch)
        i += 1
    return "".join(out), comments


def parse_c_suppressions(
    comments: List[Tuple[int, str]],
) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rules suppressed there."""
    table: Dict[int, FrozenSet[str]] = {}
    for lineno, comment in comments:
        match = _C_PRAGMA.search(comment)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = _SUPPRESS_ALL
        else:
            table[lineno] = frozenset(
                name.strip().upper()
                for name in rules.split(",")
                if name.strip()
            )
    return table


def _line_col(code: str, index: int) -> Tuple[int, int]:
    prefix = code[:index]
    return prefix.count("\n") + 1, index - (prefix.rfind("\n") + 1)


_STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape(raw: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            out.append(_ESCAPES.get(raw[i + 1], raw[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def string_argument(code: str, arg: str, offset: int) -> Optional[CString]:
    """Parse *arg* (one call argument) as a string-literal sequence.

    Adjacent literals concatenate, C-style.  Returns ``None`` when the
    argument is not (purely) string literals -- an identifier, a cast,
    an integer.  *offset* is the argument's index into *code*, used for
    the location of the first literal.
    """
    parts = _STRING_LITERAL.findall(arg)
    if not parts:
        return None
    stripped = _STRING_LITERAL.sub("", arg)
    if stripped.strip() not in ("",):
        return None  # mixed expression, not a literal
    match = _STRING_LITERAL.search(arg)
    assert match is not None
    line, column = _line_col(code, offset + match.start())
    return CString(
        value="".join(_unescape(part) for part in parts),
        line=line,
        column=column,
    )


def split_call_arguments(
    code: str, open_paren: int
) -> Optional[List[Tuple[int, str]]]:
    """Split a balanced ``(...)`` starting at *open_paren* into top-level
    ``(offset, text)`` arguments.  ``None`` when the parens never close."""
    assert code[open_paren] == "("
    depth = 0
    args: List[Tuple[int, str]] = []
    start = open_paren + 1
    i = open_paren
    n = len(code)
    while i < n:
        ch = code[i]
        if ch == '"':
            match = _STRING_LITERAL.match(code, i)
            if match:
                i = match.end()
                continue
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                if code[start:i].strip():
                    args.append((start, code[start:i]))
                return args
        elif ch == "," and depth == 1:
            args.append((start, code[start:i]))
            start = i + 1
        i += 1
    return None


#: Call extractors: function name -> (index of the string argument,
#: extraction-bucket attribute).  ``INTERN`` is the module-init macro of
#: the hot core; its invocation looks like a call to the scanner.
_CALL_BUCKETS: Dict[str, Tuple[int, str]] = {
    "INTERN": (1, "interned"),
    "PyUnicode_InternFromString": (0, "interned"),
    "PyUnicode_FromString": (0, "interned"),
    "PyObject_GetAttrString": (1, "getattr_names"),
    "PyObject_SetAttrString": (1, "getattr_names"),
    "PyImport_ImportModule": (0, "imports"),
    "PyModule_AddObject": (1, "exports"),
}

_ERROR_CALLS = {"PyErr_Format": 1, "PyErr_SetString": 1}

_CALL_NAMES = re.compile(
    r"\b("
    + "|".join(sorted(_CALL_BUCKETS) + sorted(_ERROR_CALLS))
    + r")\s*\("
)

_DEFINE = re.compile(r"^[ \t]*#[ \t]*define[ \t]+(\w+)([ \t(].*|)$")

_TABLE_ARRAYS = re.compile(
    r"\b(?:PyMethodDef|PyGetSetDef)\s+\w+\s*\[\s*\]\s*=\s*\{"
)

_TP_NAME = re.compile(r"\.tp_name\s*=\s*")


def _join_continuations(lines: List[str]) -> List[Tuple[int, str]]:
    """Logical preprocessor lines with their starting 1-based line."""
    joined: List[Tuple[int, str]] = []
    i = 0
    while i < len(lines):
        start = i
        text = lines[i]
        while text.rstrip().endswith("\\") and i + 1 < len(lines):
            text = text.rstrip()[:-1] + " " + lines[i + 1]
            i += 1
        joined.append((start + 1, text))
        i += 1
    return joined


def fold_c_expression(
    expression: str, defines: Dict[str, "CDefine"], _depth: int = 0
) -> Optional[int]:
    """Constant-fold a C integer expression (shifts, masks, arithmetic).

    Integer suffixes (``1LL``, ``0xFFu``) are stripped; identifiers
    resolve through *defines*; anything else folds to ``None``.
    """
    if _depth > 16:
        return None
    sanitized = _INT_SUFFIX.sub(r"\1", expression)
    try:
        tree = ast.parse(sanitized.strip(), mode="eval")
    except SyntaxError:
        return None

    return _fold(tree.body, defines, _depth)


def _fold(
    node: ast.AST, defines: Dict[str, "CDefine"], depth: int
) -> Optional[int]:
    """Fold one node of a parsed C expression (see
    :func:`fold_c_expression`).  A module function, not a recursive
    closure: the closure's cell would make every call a reference cycle."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        define = defines.get(node.id)
        if define is None:
            return None
        return fold_c_expression(define.expression, defines, depth + 1)
    if isinstance(node, ast.UnaryOp):
        operand = _fold(node.operand, defines, depth)
        if operand is None:
            return None
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.UAdd):
            return operand
        if isinstance(node.op, ast.Invert):
            return ~operand
        return None
    if isinstance(node, ast.BinOp):
        left = _fold(node.left, defines, depth)
        right = _fold(node.right, defines, depth)
        if left is None or right is None:
            return None
        op = node.op
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, (ast.Div, ast.FloorDiv)) and right != 0:
            return left // right
        if isinstance(op, ast.LShift):
            return left << right
        if isinstance(op, ast.RShift):
            return left >> right
        if isinstance(op, ast.BitOr):
            return left | right
        if isinstance(op, ast.BitAnd):
            return left & right
        if isinstance(op, ast.BitXor):
            return left ^ right
        return None
    return None


def normalize_template(template: str) -> str:
    """Reduce a C format string to a placeholder normal form.

    ``%S``/``%R``/``%s``/``%lld``/... all become ``{}``, ``%%`` becomes
    a literal percent -- the same normal form
    :func:`repro.analysis.parity.normalize_python_template` produces for
    f-strings, so byte-equality of normal forms is the PAR002 contract.
    """
    out: List[str] = []
    i = 0
    while i < len(template):
        if template.startswith("%%", i):
            out.append("%")
            i += 2
            continue
        match = _C_CONVERSION.match(template, i)
        if match:
            out.append("{}")
            i = match.end()
            continue
        out.append(template[i])
        i += 1
    return "".join(out)


def extract(code: str) -> CExtraction:
    """Run every extractor over comment-stripped *code*."""
    extraction = CExtraction()

    # -- #define table (continuations joined, function-like skipped) ----
    logical = _join_continuations(code.split("\n"))
    for lineno, text in logical:
        match = _DEFINE.match(text)
        if match is None:
            continue
        name, rest = match.group(1), match.group(2)
        if rest.startswith("("):
            continue  # function-like macro
        expression = rest.strip()
        if not expression:
            continue
        extraction.defines[name] = CDefine(
            name=name,
            expression=expression,
            value=None,  # folded below, after the full table exists
            line=lineno,
            column=len(text) - len(text.lstrip()),
        )
    for name, define in list(extraction.defines.items()):
        extraction.defines[name] = dataclasses.replace(
            define,
            value=fold_c_expression(define.expression, extraction.defines),
        )

    # -- calls with interesting string arguments ------------------------
    for match in _CALL_NAMES.finditer(code):
        func = match.group(1)
        open_paren = code.index("(", match.end() - 1)
        args = split_call_arguments(code, open_paren)
        if args is None:
            continue
        if func in _ERROR_CALLS:
            index = _ERROR_CALLS[func]
            if len(args) <= index:
                continue
            literal = string_argument(code, args[index][1], args[index][0])
            if literal is None:
                continue
            exc_class = args[0][1].strip().split(".")[-1]
            extraction.error_strings.append(
                CErrorString(exc_class=exc_class, template=literal)
            )
            continue
        index, bucket = _CALL_BUCKETS[func]
        if len(args) <= index:
            continue
        literal = string_argument(code, args[index][1], args[index][0])
        if literal is None:
            continue
        getattr(extraction, bucket).append(literal)

    # -- method/getset tables and tp_name slots --------------------------
    for match in _TABLE_ARRAYS.finditer(code):
        brace = code.index("{", match.end() - 1)
        body = _balanced_braces(code, brace)
        if body is None:
            continue
        for entry in re.finditer(r"\{\s*\"((?:[^\"\\]|\\.)*)\"", body[1]):
            line, column = _line_col(code, body[0] + entry.start(1))
            extraction.method_names.append(
                CString(_unescape(entry.group(1)), line, column)
            )
    for match in _TP_NAME.finditer(code):
        literal = _STRING_LITERAL.match(code, match.end())
        if literal is None:
            continue
        line, column = _line_col(code, literal.start())
        dotted = _unescape(literal.group(1))
        extraction.method_names.append(
            CString(dotted.rsplit(".", 1)[-1], line, column)
        )
    return extraction


def _balanced_braces(code: str, open_brace: int) -> Optional[Tuple[int, str]]:
    """The text inside the ``{...}`` starting at *open_brace*, with the
    offset of its first character; ``None`` when unbalanced."""
    depth = 0
    i = open_brace
    n = len(code)
    while i < n:
        ch = code[i]
        if ch == '"':
            match = _STRING_LITERAL.match(code, i)
            if match:
                i = match.end()
                continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return open_brace + 1, code[open_brace + 1 : i]
        i += 1
    return None
