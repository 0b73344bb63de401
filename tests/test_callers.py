"""Every function in the package has a caller outside the tests, every
module constant and dataclass field a reader, and every config key a
config that sets it.

A function that only tests call audits nothing a run reports; it either
gets a caller in a check, demo or tool, or it goes.  So do a constant
(a bound, a width) that no code reads, a result field that nothing reads
and a setting that no run sets."""

import ast
import configparser
import importlib.util
import pathlib

from anisoplate.runner import _known_keys

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


def _module_constants():
    """(path, name) of every module-level private name the package assigns,
    dunders excepted."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", ()):
                if (isinstance(target, ast.Name) and target.id.startswith("_")
                        and not target.id.startswith("__")):
                    yield path, target.id


def test_every_module_constant_is_read_in_src():
    # a bound left behind when its last reader goes would still look like a
    # setting of the package, so it must be read by name or as an attribute
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                reads.add(node.attr)
    unread = ["%s:%s" % (path.name, name)
              for path, name in _module_constants() if name not in reads]
    assert not unread, "constants nothing in src/ reads: %s" % ", ".join(unread)


def _dataclass_fields():
    """(path, class name, field name) of every annotated field of every
    @dataclass class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(dec)
                    for dec in node.decorator_list):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign):
                        yield path, node.name, sub.target.id


def _attribute_reads():
    """Names read as attributes (x.name, loaded) anywhere in src/, demos/,
    tools/ or benchmarks/."""
    names = set()
    for top in ("src", "demos", "tools", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    names.add(node.attr)
    return names


def test_every_dataclass_field_is_read():
    # by name only, so a field sharing its name with a field read elsewhere
    # passes unseen
    reads = _attribute_reads()
    unread = ["%s:%s.%s" % (path.name, cls, name)
              for path, cls, name in _dataclass_fields() if name not in reads]
    assert not unread, "fields nothing reads: %s" % ", ".join(unread)


def _configured_keys():
    """(section, key) of every key that a benchmark config or a reference
    run of tools/compare_outputs.py sets."""
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    sources = sorted(str(p) for p in (ROOT / "benchmarks" / "configs").glob("*.ini"))
    sources += [source for _, source, _ in tool.RUNS]
    keys = set()
    for source in sources:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if source.endswith(".ini"):
            with open(source, encoding="utf-8") as f:
                cp.read_file(f)
        else:
            cp.read_string(source)
        keys.update((sec, key) for sec in cp.sections() for key in cp.options(sec))
    return keys


def test_every_config_key_is_set_by_some_run():
    # [output] dir names a path, which the runs pass on the command line
    configured = _configured_keys()
    unset = ["[%s] %s" % (sec, key) for sec, keys in _known_keys.items()
             for key in keys
             if (sec, key) not in configured and (sec, key) != ("output", "dir")]
    assert not unset, "config keys no run sets: %s" % ", ".join(unset)


def _dict_writes(tree):
    """(line, enclosing function) of every reach into an object's
    attribute dictionary: a vars() call, a .__dict__ attribute, a
    "__dict__" string (as getattr takes it) and a setattr or
    object.__setattr__ on anything but self."""
    hits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        hit = False
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name == "vars":
                hit = True
            elif name in ("setattr", "object.__setattr__"):
                hit = not (node.args and ast.unparse(node.args[0]) == "self")
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            hit = True
        elif isinstance(node, ast.Constant) and node.value == "__dict__":
            hit = True
        if hit:
            hits.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return hits


def test_no_results_kept_in_another_objects_dict():
    # a per-call result cached in another object's __dict__ hides a data
    # flow the call sites should show (a fourth-order column holds its
    # first-order stage instead); the one exception is the factorization
    # kept on its matrix.  A class's own cached_property is not counted
    allowed = {("linsolve.py", "_factors")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, func in _dict_writes(ast.parse(path.read_text())):
            if (path.name, func) not in allowed:
                found.append("%s:%d (%s)" % (path.name, line, func))
    assert not found, "writes into another object's __dict__: %s" % (
        ", ".join(found))
