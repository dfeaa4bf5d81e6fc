"""src/ holds only what a command, a script or the benchmark uses.

Every public module-level function and class of the package, and every
public method of those classes, must be named somewhere other than its own
definition: in another module of the package, in a script or in the
benchmark harness. A helper that only tests call belongs in
tests/oracles.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tripod_holonomy"


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _definitions(path):
    """(qualified name, bare name, first line, last line) of each public
    module-level function and class, and of each public method."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def unused_public_names():
    others = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    sources = {p: p.read_text() for p in [*_modules(), *others]}
    unused = []
    for module in _modules():
        lines = sources[module].splitlines()
        for qualified, name, first, last in _definitions(module):
            rest = "\n".join(lines[: first - 1] + lines[last:])
            texts = [rest] + [text for p, text in sources.items() if p != module]
            # another definition of the same name is not a use of this one
            word = re.compile(rf"(?<!def )(?<!class )\b{re.escape(name)}\b")
            if not any(word.search(text) for text in texts):
                unused.append(f"{module.stem}.{qualified}")
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    seen = {q for m in _modules() for q, *_ in _definitions(m)}
    assert {"loop_propagator", "LoopSpec", "LoopSpec.start_point", "main"} <= seen
    assert unused_public_names() == []
