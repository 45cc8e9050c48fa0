"""The library keeps what a command, a demo or the benchmark reaches.

Every public top-level def and class of src/fqed must be named somewhere
in src/, demos/ or perfbench/ outside its own definition: by a name, an
attribute, an import, or a word of a string that is not a docstring (the
benchmark's tracer names functions as "layer.name" strings). Every
public method of a public class there must be read as an attribute in
those files outside its own def. An entry point that only tests
call fails here; move it to the tests, or delete it with its tests.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "demos", "perfbench")

# names that stay although no scanned file names them, with the reason
EXCEPTIONS = {
    "self_energy": "kept for the self-energy item, which reworks it with "
                   "its pole and the benchmark oracle",
    "self_energy_near_shell": "kept for the self-energy item, with "
                              "self_energy",
    "derivative": "the classical equations' one right-hand side, the "
                  "documented API of the dynamics docstring; integrate "
                  "runs its stage core directly",
    "conservation_residual": "kept for the observability item, which "
                             "reports the tree conservation residual",
}


def _docstrings(tree) -> set:
    """The ids of the string constants that stand alone as statements."""
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)}


def _names(node, skip: set) -> set:
    """Every name the subtree refers to, docstrings left out."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in skip):
            out.update(re.findall(r"\w+", sub.value))
    return out


def _scanned():
    """(top, path) of every scanned .py file."""
    return [(top, path) for top in SCANNED
            for path in sorted((ROOT / top).rglob("*.py"))]


def _census():
    """(definitions, references): definitions maps each public top-level
    def or class of src/fqed to (file, statement index); references
    maps (file, statement index) to the names that statement refers to,
    over every .py file under the scanned directories."""
    definitions, references = {}, {}
    for top, path in _scanned():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = _docstrings(tree)
        for i, stmt in enumerate(tree.body):
            references[(path, i)] = _names(stmt, skip)
            if (top == "src" and isinstance(stmt, (
                    ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions[stmt.name] = (path, i)
    return definitions, references


def _attributes(node) -> collections.Counter:
    """How often the subtree reads each attribute name."""
    return collections.Counter(sub.attr for sub in ast.walk(node)
                               if isinstance(sub, ast.Attribute))


def _method_census():
    """(methods, attributes): methods maps each public method of a public
    top-level class of src/fqed, as (class, method), to how often its own
    def reads its name as an attribute; attributes counts the attribute
    names read over every .py file under the scanned directories."""
    methods, attributes = {}, collections.Counter()
    for top, path in _scanned():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes += _attributes(tree)
        methods.update(
            ((cls.name, fn.name), _attributes(fn)[fn.name])
            for cls in tree.body if top == "src"
            and isinstance(cls, ast.ClassDef)
            and not cls.name.startswith("_")
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not fn.name.startswith("_"))
    return methods, attributes


def test_every_public_definition_is_reached():
    definitions, references = _census()
    assert {"amplitude", "integrate", "KinematicConfig"} <= definitions.keys()
    unreached = sorted(
        name for name, where in definitions.items()
        if name not in EXCEPTIONS
        and not any(name in names for key, names in references.items()
                    if key != where))
    assert not unreached, (
        f"only tests reach {unreached}: move them to tests/ or delete them")


def test_every_public_method_is_reached():
    methods, attributes = _method_census()
    assert {("KinematicConfig", "validate"),
            ("FourVector", "as_array")} <= methods.keys()
    unreached = sorted(f"{cls}.{name}" for (cls, name), own in methods.items()
                       if name not in EXCEPTIONS and attributes[name] <= own)
    assert not unreached, (
        f"only tests reach {unreached}: move them to tests/ or delete them")


def test_exceptions_are_current():
    """Each exception still names a definition or method that no
    scanned file reaches, so the list cannot go stale."""
    definitions, references = _census()
    methods, attributes = _method_census()
    for name in EXCEPTIONS:
        if name in definitions:
            assert not any(name in names for key, names in references.items()
                           if key != definitions[name]), name
        else:
            owners = [own for (_, m), own in methods.items() if m == name]
            assert owners, name
            assert all(attributes[name] <= own for own in owners), name
