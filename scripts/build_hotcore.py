#!/usr/bin/env python
"""Build the compiled DES hot core (repro._hotcore) in place.

Compiles ``src/repro/_hotcore.c`` into ``src/repro/_hotcore<EXT_SUFFIX>``
with the C compiler from the environment -- no setuptools, no network,
no temporary build tree.  The extension is optional: when no compiler is
available this script reports the fact and exits 0 (unless ``--require``
is passed), and the simulator falls back to the pure-Python hot core
with identical results (see docs/hotcore.md).

Before it compiles, the script renders the contract table of
``repro.simulator.hotcore`` (and the ring-buffer layout constants) into
``src/repro/_hotcore_contract.h``, the header ``_hotcore.c`` spells its
names, modules and messages from.  The header is committed; it is
rewritten only when its bytes change, and needs no compiler.

Usage:
    python scripts/build_hotcore.py [--require] [--force] [--quiet] [--check]

``--check`` builds nothing: it exits 1 when a built extension is older
than ``_hotcore.c`` or the header (a stale kernel that
``REPRO_COMPILED=auto`` would silently select) and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import string
import subprocess
import sys
import sysconfig
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "repro" / "_hotcore.c"
HEADER = SOURCE.with_name("_hotcore_contract.h")

_SRC = REPO / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def macro(text: str) -> str:
    """The header macro that spells *text* (``run_until`` -> ``HC_RUN_UNTIL``)."""
    return "HC_" + re.sub(r"[\W_]+", "_", text).strip("_").upper()


def c_string(text: str) -> str:
    """*text* as a C string literal."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def c_template(template: str) -> str:
    """A ``str.format`` template as a ``PyErr_Format`` format string."""
    parts = []
    for literal, field, spec, _ in string.Formatter().parse(template):
        if "%" in literal:
            raise ValueError(f"'%' in error template {template!r}")
        parts.append(literal)
        if field is not None:
            parts.append("%" + (spec or "S"))
    return c_string("".join(parts))


def render_header() -> str:
    """The header text for the current contract table."""
    from repro.observability import ringbuffer
    from repro.simulator import hotcore

    lines = [
        "/* The contract of _hotcore.c with its Python twins: generated from",
        " * repro.simulator.hotcore and repro.observability.ringbuffer by",
        " * scripts/build_hotcore.py.  Do not edit; rerun the script. */",
        "",
        "#ifndef REPRO_HOTCORE_CONTRACT_H",
        "#define REPRO_HOTCORE_CONTRACT_H",
        "",
        "/* Packed interval layout. */",
        f"#define SINK_CODE_BITS {ringbuffer.CODE_BITS}",
        f"#define SINK_CODE_MASK {ringbuffer.CODE_MASK}LL",
        f"#define SINK_DEFAULT_CAPACITY {ringbuffer.DEFAULT_SINK_CAPACITY}",
        "",
        "/* Interned attribute names: X(variable, text). */",
        "#define HC_ATTRIBUTES(X) \\\n" + " \\\n".join(
            f"    X(str_{name.text.strip('_')}, {c_string(name.text)})"
            for name in hotcore.ATTRIBUTES
        ),
        "",
        "/* The extension, the modules it imports, the names it exposes. */",
        f"#define HC_EXTENSION {c_string(hotcore.EXTENSION)}",
        '#define HC_TP(name) HC_EXTENSION "." name',
    ]
    spelled = list(hotcore.MODULES) + [name.text for name in hotcore.EXPOSED]
    lines += [f"#define {macro(text)} {c_string(text)}" for text in spelled]
    lines += ["", "/* Error messages. */"]
    lines += [
        f"#define HC_ERR_{message.name} {c_template(message.value[1])}"
        for message in hotcore.Message
    ]
    lines += ["", "#endif", ""]
    return "\n".join(lines)


def write_header() -> bool:
    """Render the header; write it only when its bytes change."""
    text = render_header()
    if HEADER.exists() and HEADER.read_text(encoding="utf-8") == text:
        return False
    HEADER.write_text(text, encoding="utf-8")
    return True


def is_stale(out: Path) -> bool:
    """True when *out* predates ``_hotcore.c`` or the header."""
    from repro.simulator.hotcore import extension_is_stale

    return extension_is_stale(str(out), (str(SOURCE), str(HEADER)))


def target_path() -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return SOURCE.with_name("_hotcore" + suffix)


def find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def build(compiler: str, out: Path, quiet: bool) -> int:
    include = sysconfig.get_path("include")
    command = [
        compiler,
        "-O2",
        "-fPIC",
        "-shared",
        "-fno-strict-aliasing",
        "-Wall",
        f"-I{include}",
        str(SOURCE),
        "-o",
        str(out),
    ]
    if not quiet:
        print("+", " ".join(command))
    return subprocess.run(command, cwd=REPO).returncode


def verify(quiet: bool) -> int:
    """Import the fresh extension in a clean interpreter and confirm the
    simulator actually selects it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_COMPILED"] = "1"
    probe = (
        "from repro.simulator import hotcore; "
        "status = hotcore.status(); "
        "assert status['compiled'], status; "
        "print('hotcore:', status['engine'], '/', status['interval_sink'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO,
        env=env,
        capture_output=quiet,
    )
    return result.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--require",
        action="store_true",
        help="exit non-zero when the extension cannot be built "
        "(default: a missing compiler is a clean, visible skip)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="rebuild even when the extension is newer than the source",
    )
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument(
        "--check",
        action="store_true",
        help="build nothing; exit 1 when a built extension is staler "
        "than _hotcore.c or the header (no extension at all is fine)",
    )
    args = parser.parse_args(argv)

    out = target_path()
    if args.check:
        if out.exists() and is_stale(out):
            print(
                f"stale: {out.relative_to(REPO)} predates _hotcore.c or "
                f"{HEADER.name}; rebuild with `python scripts/build_hotcore.py`",
                file=sys.stderr,
            )
            return 1
        if not args.quiet:
            state = "up to date" if out.exists() else "not built"
            print(f"hotcore: {state} ({out.relative_to(REPO)})")
        return 0
    if write_header() and not args.quiet:
        print(f"rendered: {HEADER.relative_to(REPO)}")
    if not args.force and out.exists() and not is_stale(out):
        if not args.quiet:
            print(f"up to date: {out.relative_to(REPO)}")
        return 0

    compiler = find_compiler()
    if compiler is None:
        print(
            "hotcore: no C compiler found (tried $CC, cc, gcc, clang); "
            "skipping build -- the pure-Python hot core is used instead",
            file=sys.stderr,
        )
        return 1 if args.require else 0

    status = build(compiler, out, args.quiet)
    if status != 0:
        print(f"hotcore: compilation failed (exit {status})", file=sys.stderr)
        out.unlink(missing_ok=True)
        return 1 if args.require else 0

    status = verify(args.quiet)
    if status != 0:
        print("hotcore: built extension failed its import probe", file=sys.stderr)
        out.unlink(missing_ok=True)
        return 1 if args.require else 0

    if not args.quiet:
        print(f"built: {out.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    # Rendering imports the contract table's module, which selects an
    # engine on import: the pure one, so this process never loads the
    # extension it is about to replace.
    os.environ["REPRO_COMPILED"] = "0"
    raise SystemExit(main())
