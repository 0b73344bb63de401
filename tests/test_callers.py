"""Every function in the package has a caller outside the tests.

A function that only tests call audits nothing a run reports; it either
gets a caller in a check, demo or tool, or it goes."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anisoplate"


def _definitions():
    """(path, qualified name, node) of every top-level function and every
    non-dunder method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path, node.name, node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__")
                                     and sub.name.endswith("__"))):
                        yield path, "%s.%s" % (node.name, sub.name), sub


def _references():
    """name -> [(path, line)] of every load of a bare name or attribute in
    src/, demos/ and tools/, the package's __init__ excepted."""
    refs = {}
    for top in ("src", "demos", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_function_has_a_non_test_caller():
    refs = _references()
    orphans = []
    for path, qual, node in _definitions():
        short = qual.rsplit(".", 1)[-1]
        callers = [(p, line) for p, line in refs.get(short, ())
                   if not (p == path
                           and node.lineno <= line <= node.end_lineno)]
        if not callers:
            orphans.append("%s:%s" % (path.name, qual))
    assert not orphans, "only tests call: %s" % ", ".join(orphans)
