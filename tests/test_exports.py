"""Dead-code guard: every module-level definition in src has a caller.

A function or class defined at module level in src/bsvilab counts as
used when its name occurs anywhere in src outside its own definition:
a call, an attribute, an annotation or an import.  The re-exports in
__init__.py do not count.  The definitions that nothing uses are pinned
below, so a new uncalled definition fails, and a pinned name that gains
a caller or is deleted must leave the list: it only shrinks.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bsvilab"

# only tests call these, and they stay in src because the benchmark's
# tracer (perfbench/tracer.py) wraps them by name; they go when the
# tracer's site list moves with them
UNUSED = {
    "solve_penalized",
    "resolve_implicit",
}


def _names(node):
    """Every name that node's subtree mentions, with multiplicity."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unused_definitions():
    uses = Counter()
    own = {}  # name -> the names its own definition mentions
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        uses.update(_names(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own[node.name] = Counter(_names(node))
    return {name for name, inside in own.items() if uses[name] == inside[name]}


def test_every_definition_in_src_has_a_caller():
    assert unused_definitions() == UNUSED
