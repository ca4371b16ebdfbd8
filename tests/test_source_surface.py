"""Guard against dormant definitions in ``src/``.

A function, method or class that nothing names is machinery no caller
reaches: it costs reading time and hides in every audit.  The check is
deliberately lenient.  It counts identifier tokens across the library,
its tests, benchmarks, examples and ``perfbench/``, comments and strings
included, so a name that only a test or a ``getattr`` string reaches still
passes; only a name that occurs nowhere but in its own definitions fails.
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
