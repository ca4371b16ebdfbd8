"""Guard against dormant definitions and imports in ``src/``.

A function, method or class that nothing names is machinery no caller
reaches: it costs reading time and hides in every audit.  The check is
deliberately lenient.  It counts identifier tokens across the library,
its tests, benchmarks, examples and ``perfbench/``, comments and strings
included, so a name that only a test or a ``getattr`` string reaches still
passes; only a name that occurs nowhere but in its own definitions fails.

An import its module never uses is the same dead weight one level down;
the second check lists every module-level import of a ``src/`` module
(package ``__init__`` files, which import to re-export, excepted) whose
bound name the module's code never reads and its ``__all__`` never lists.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples", "perfbench")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def test_every_src_definition_is_referenced():
    occurrences = Counter()
    definitions = Counter()
    first_definition = {}
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            occurrences.update(IDENTIFIER.findall(text))
            if directory != "src":
                continue
            for node in ast.walk(ast.parse(text)):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                definitions[name] += 1
                first_definition.setdefault(name, f"{path.relative_to(ROOT)}:{node.lineno}")
    dormant = sorted(
        f"{name} ({first_definition[name]})"
        for name, count in definitions.items()
        if occurrences[name] <= count
    )
    assert not dormant, "defined in src/ but referenced nowhere: " + ", ".join(dormant)


def _module_level_imports(tree):
    """Import statements outside any function or class (``if``/``try``
    blocks at module level included)."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def _names_read(tree):
    """Every bare name the module's code uses, plus its ``__all__`` entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_no_src_module_imports_an_unused_name():
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _names_read(tree)
        for node in _module_level_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in names:
                    unused.append(f"{bound} ({path.relative_to(ROOT)}:{node.lineno})")
    assert not unused, "imported in src/ but never used: " + ", ".join(sorted(unused))
