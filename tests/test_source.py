"""Dead-code scan of the package source: every definition has a reader.

Static, by ``ast`` and ``re`` alone.  A top-level function or class of
``src/pcpoly`` that is not a dunder must be named somewhere in ``src/pcpoly``
outside its own definition (as code, or as a word of a string, which covers
lookups by name), be public (``pcpoly.__all__``) or be timed by the bench (a
target of ``bench/spans.py`` ``LAYERS``).  A method that is not a dunder must
be read as ``.name`` somewhere in the package, the tests or the bench.
"""

import ast
import re
from pathlib import Path

import pcpoly

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "pcpoly").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(node: ast.AST) -> set:
    """Every identifier that ``node`` names: variables, attributes, imports and
    the words of its strings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(re.findall(r"\w+", sub.value))
    return out


def _bench_targets() -> set:
    """The function and class names that ``LAYERS`` in bench/spans.py wraps."""
    for node in _tree(ROOT / "bench" / "spans.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return {c.value.split(":")[1].split(".")[0] for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and ":" in str(c.value)}
    raise AssertionError("bench/spans.py defines no LAYERS")


def test_every_top_level_definition_has_a_reader():
    defined = []  # (module file, name)
    used = set()
    for path in SRC:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
                # a definition naming itself (recursion) does not count as a reader
                used |= _names(node) - {node.name}
            else:
                used |= _names(node)
    keep = used | set(pcpoly.__all__) | _bench_targets()
    assert [d for d in defined if d[1] not in keep and not d[1].startswith("__")] == []


def test_every_method_is_read_somewhere():
    methods = []  # (class, method)
    for path in SRC:
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef):
                methods += [(node.name, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
    read = set()
    for path in [*SRC, *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        read |= {a.attr for a in ast.walk(_tree(path))
                 if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Load)}
    assert [m for m in methods if m[1] not in read] == []
