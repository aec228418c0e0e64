"""Source checks that keep the package's guarantees visible to tools."""

import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

import pytest

import tukeykit
from test_cli import EXIT_STATUS


def test_no_assert_statements():
    # python -O strips assert statements, and with them any certificate
    # re-verification they carry; checks must raise explicitly
    found = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements at {found}"


def test_no_dataclasses():
    # decorating a dataclass execs its generated methods, a cost every
    # import and every command-line verb would pay; records derive from
    # tukeykit.records.Record instead
    found = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "dataclasses" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"dataclasses imported at {found}"


def record_class_defs(tree: ast.Module) -> list[ast.ClassDef]:
    """Every class in ``tree`` that names ``Record`` among its bases."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)) == "Record"
            for base in node.bases
        )
    ]


def record_assignments(tree: ast.Module) -> list[str]:
    """``Class:line`` for every assignment, augmented assignment or
    deletion of a ``self`` attribute inside a record class."""
    return [
        f"{node.name}:{target.lineno}"
        for node in record_class_defs(tree)
        for target in ast.walk(node)
        if isinstance(target, ast.Attribute)
        and isinstance(target.ctx, (ast.Store, ast.Del))
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ]


def test_nothing_assigns_to_a_record():
    # a record is frozen, so assigning one of its fields raises, but only
    # when that line runs; fields are stored with records.set_field
    found = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{where}" for where in record_assignments(tree)]
    assert not found, f"assignments to record attributes at {found}"


def test_record_assignment_lint_finds_each_form():
    source = (
        "class A(records.Record):\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
        "        self.y += 1\n"
        "        del self.z\n"
        "        self.a, self.b = 1, 2\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
    )
    assert record_assignments(ast.parse(source)) == ["A:3", "A:4", "A:5", "A:6", "A:6"]


def storing_inits(tree: ast.Module) -> list[str]:
    """``Class:line`` for every ``__init__`` of a record class that only
    stores its parameters: no defaults, no keyword-only or variadic
    parameters, and a body of one ``set_field(self, "<p>", <p>)`` per
    parameter, in ``__slots__`` order."""
    found = []
    for node in record_class_defs(tree):
        slots = ()
        for item in node.body:
            if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                slots = ast.literal_eval(item.value)
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
                continue
            args = item.args
            params = [a.arg for a in [*args.posonlyargs, *args.args][1:]]
            if (
                not (args.defaults or args.kwonlyargs or args.vararg or args.kwarg)
                and params == list(slots)
                and [ast.unparse(stmt) for stmt in item.body]
                == [f"set_field(self, {p!r}, {p})" for p in params]
            ):
                found.append(f"{node.name}:{item.lineno}")
    return found


def test_no_record_init_only_stores():
    # Record.__init__ stores the values in __slots__ order; a record's own
    # __init__ must check, convert or default an argument, or take keywords
    found = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{where}" for where in storing_inits(tree)]
    assert not found, f"__init__ that only stores its arguments at {found}"


def test_storing_init_lint_flags_only_a_plain_store():
    source = (
        "class A(Record):\n"
        "    __slots__ = ('x', 'y')\n"
        "    def __init__(self, x, y):\n"
        "        set_field(self, 'x', x)\n"
        "        set_field(self, 'y', y)\n"
        "class B(Record):\n"
        "    __slots__ = ('x',)\n"
        "    def __init__(self, x):\n"
        "        if x < 0:\n"
        "            raise ValueError('x must be nonnegative')\n"
        "        set_field(self, 'x', x)\n"
    )
    assert storing_inits(ast.parse(source)) == ["A:3"]


def stray_set_fields(tree: ast.Module) -> list[str]:
    """``qualname:line`` for every ``set_field`` call that is not inside
    an ``__init__`` or ``__post_init__``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "set_field"
                and scope.rpartition(".")[2] not in ("__init__", "__post_init__")
            ):
                found.append(f"{scope}:{child.lineno}")
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, "")
    return found


def test_set_field_only_at_construction():
    # a record's slots are set once, when it is built; a set_field
    # anywhere else caches or changes state past the frozen __setattr__
    found = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{where}" for where in stray_set_fields(tree)]
    assert not found, f"set_field outside __init__ and __post_init__ at {found}"


def test_set_field_lint_flags_a_caching_method():
    source = (
        "class A(Record):\n"
        "    __slots__ = ('x', '_double')\n"
        "    def __init__(self, x):\n"
        "        set_field(self, 'x', x)\n"
        "        self.__post_init__()\n"
        "    def __post_init__(self):\n"
        "        set_field(self, '_double', None)\n"
        "    def double(self):\n"
        "        if self._double is None:\n"
        "            set_field(self, '_double', 2 * self.x)\n"
        "        return self._double\n"
    )
    assert stray_set_fields(ast.parse(source)) == ["A.double:10"]


def unused_imports(tree: ast.Module) -> list[str]:
    """``name:line`` for every name an import binds that the module never
    reads; ``from __future__`` imports are exempt."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{bound}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (bound := alias.asname or alias.name.partition(".")[0]) not in read
    ]


def test_no_unused_imports():
    # an import that a deletion leaves behind misstates what the module
    # depends on, and a module-level one is loaded by every verb
    found = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{where}" for where in unused_imports(tree)]
    assert not found, f"imported names never read: {found}"


def test_unused_import_lint_finds_a_planted_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, Callable\n"
        "def f(x: Any) -> str:\n"
        "    import json as j\n"
        "    return os.sep\n"
    )
    assert unused_imports(ast.parse(source)) == ["Callable:3", "j:5"]


def absolute_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """``(top-level package, "module:line")`` for every absolute import,
    the plain imports first."""
    names = [
        (alias.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        (node.module, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    ]
    return [(name.partition(".")[0], f"{name}:{line}") for name, line in names]


def foreign_imports(tree: ast.Module) -> list[str]:
    """``module:line`` for every absolute import of a module that is
    neither in the standard library nor tukeykit itself."""
    allowed = sys.stdlib_module_names | {"tukeykit"}
    return [where for top, where in absolute_imports(tree) if top not in allowed]


def test_src_imports_only_stdlib():
    # pyproject.toml declares no dependencies; numpy and the other test
    # extras are installed next to the package but must not be reached
    found = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{where}" for where in foreign_imports(tree)]
    assert not found, f"imports outside the standard library: {found}"


def test_stdlib_import_lint_finds_a_planted_import():
    source = (
        "import os.path, numpy as np\n"
        "from . import upsets\n"
        "from .records import Record\n"
        "from tukeykit.errors import CertificateError\n"
        "def f():\n"
        "    from scipy.linalg import det\n"
        "    import itertools\n"
    )
    assert foreign_imports(ast.parse(source)) == ["numpy:1", "scipy.linalg:6"]


def exception_classes() -> set[str]:
    """``module.Class`` for every class in the package that derives, by
    the name of a base, from a builtin exception or from another such
    class of the package."""
    classes = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                }
                classes.append((f"{path.stem}.{node.name}", node.name, bases))
    known = {
        name
        for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    found: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qualified, name, bases in classes:
            if qualified not in found and bases & known:
                found.add(qualified)
                known.add(name)
                grew = True
    return found


def test_every_exception_class_has_an_exit_status():
    # the lazy cli.main maps errors through tukeykit.errors; a new class
    # must show in test_cli's table, which checks its status end to end
    tabled = {
        f"{type(exc).__module__.removeprefix('tukeykit.')}.{type(exc).__name__}"
        for exc, *_ in EXIT_STATUS
        if type(exc).__module__.startswith("tukeykit.")
    }
    defined = exception_classes()
    assert "errors.CertificateError" in defined
    assert defined == tabled, (
        f"missing from tests/test_cli.py EXIT_STATUS: {sorted(defined - tabled)}; "
        f"listed but not defined: {sorted(tabled - defined)}"
    )


def unraised_error_classes(errors: ast.Module, modules: list[ast.Module]) -> list[str]:
    """Every class ``errors`` defines that no ``raise`` in ``modules``
    names, as ``raise C(...)`` or ``raise C``."""
    raised = set()
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name not in raised
    ]


def test_every_error_class_is_raised():
    # a class that nothing raises is a second name for a cause some other
    # class already reports; its exit status row would test nothing
    package = Path(tukeykit.__file__).resolve().parent
    modules = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    errors = ast.parse((package / "errors.py").read_text())
    unraised = unraised_error_classes(errors, modules)
    assert not unraised, f"error classes that nothing in src/ raises: {unraised}"


def test_unraised_error_lint_finds_a_planted_class():
    errors = ast.parse(
        "class A(ValueError):\n    pass\n"
        "class B(RuntimeError):\n    pass\n"
        "class C(RuntimeError):\n    pass\n"
    )
    module = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise A('x')\n"
        "    try:\n"
        "        raise B\n"
        "    except C:\n"
        "        raise\n"
    )
    assert unraised_error_classes(errors, [module]) == ["C"]


# the relations the catalog states; each belongs to one triple, and the
# triples that share it read it from that one
STATED_RELATIONS = (
    "splits", "splits_general", "almost_subset", "almost_disjoint",
    "not_almost_subset_general", "eventually_dominates",
)


def restated_relations(tree: ast.Module) -> list[str]:
    """``name:count`` for each of ``STATED_RELATIONS`` that more than one
    ``CodedTriple(...)`` call in ``tree`` names."""
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CodedTriple"
    ]
    counts = {
        name: sum(
            any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(call))
            for call in calls
        )
        for name in STATED_RELATIONS
    }
    return [f"{name}:{count}" for name, count in counts.items() if count > 1]


def test_each_relation_is_written_once():
    # a relation restated in a second triple can drift from the first;
    # the generalised triples lift theirs from r and s, and t reads p's
    path = Path(tukeykit.__file__).resolve().parent / "catalog.py"
    restated = restated_relations(ast.parse(path.read_text(), filename=str(path)))
    assert not restated, f"relations stated in more than one CodedTriple call: {restated}"


def test_restated_relation_lint_finds_a_planted_statement():
    source = (
        "S = CodedTriple('s', A, B, lambda a, c: splits_general(c, a))\n"
        "D = CodedTriple('d', F, F, lambda f, g: eventually_dominates(g, f))\n"
        "R = CodedTriple('r', B, A, relation=lambda c, b: not splits_general(c, b))\n"
        "def lift(t):\n"
        "    return CodedTriple('x', T, t.plus, lambda xs, y: all(t.relation(x, y) for x in xs))\n"
        "def splitting(c, a):\n"
        "    return splits_general(c, a)\n"
    )
    assert restated_relations(ast.parse(source)) == ["splits_general:2"]


# the relations and family checks on sets and functions, and the modules
# that define them (upsets, apfuncs) or state them in a triple (catalog)
RELATION_FUNCTIONS = (
    "almost_subset", "almost_disjoint", "splits", "eventually_dominates",
    "is_centered", "is_linearly_ordered", "is_ad_family",
)
RELATION_HOMES = ("upsets", "apfuncs", "catalog")


def relation_calls(tree: ast.Module) -> list[str]:
    """``name:line`` for every call of one of ``RELATION_FUNCTIONS``, by
    its name or as an attribute of a module."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
        in RELATION_FUNCTIONS
    ]


def test_relations_are_called_only_where_stated():
    # a module that decides a relation itself can drift from the catalog
    # triple that states it; the gadgets read a, b, p and t instead
    found = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        if path.stem not in RELATION_HOMES:
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{where}" for where in relation_calls(tree)]
    assert not found, f"relations called outside {', '.join(RELATION_HOMES)}: {found}"


def test_relation_call_lint_finds_a_planted_call():
    source = (
        "from .upsets import almost_subset, is_linearly_ordered\n"
        "from . import apfuncs\n"
        "def check(x, y, images, splits):\n"
        "    ordered = is_linearly_ordered\n"
        "    return almost_subset(x, y) or apfuncs.eventually_dominates(x, y) or not splits\n"
    )
    assert relation_calls(ast.parse(source)) == ["almost_subset:5", "eventually_dominates:5"]


def test_tracer_patches_resolve():
    # the benchmark's traced run rebinds these names; a rename in the
    # package must fail here, not only in a traced benchmark run.  The
    # file is executed from its source so nothing is written next to it.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(tracing.read_text(), str(tracing), "exec"), namespace)
    missing = []
    for module, attr, *_ in namespace["PATCHES"]:
        owner = importlib.import_module(f"tukeykit.{module}")
        cls_name, _, leaf = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        # the tracer reads a method from its class's own dict
        if isinstance(owner, type):
            found = vars(owner).get(leaf)
        else:
            found = getattr(owner, leaf, None)
        if not callable(found):
            missing.append(f"{module}.{attr}")
    assert not missing, f"tracer hooks that do not resolve: {missing}"


def private_imports(oracle_name: str) -> list[str]:
    """Underscore names the oracle file imports from the package."""
    oracle = Path(__file__).resolve().parent / oracle_name
    tree = ast.parse(oracle.read_text(), filename=str(oracle))
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tukeykit")
        for alias in node.names
        if alias.name.startswith("_")
    ]


ORACLES = sorted(p.name for p in Path(__file__).resolve().parent.glob("reference_*.py"))


@pytest.mark.parametrize("oracle_name", ORACLES, ids=[name[:-3] for name in ORACLES])
def test_oracle_uses_no_private_names(oracle_name):
    # a reference implementation must not share the fast path's helpers
    # (the image reads', the block walks', the search loop's word
    # tables), or a fault in a helper would pass the differential tests
    private = private_imports(oracle_name)
    assert not private, f"the oracle imports private names {private}"


def package_imports(tree: ast.Module) -> list[str]:
    """``module:line`` for every import of tukeykit or one of its
    modules."""
    return [where for top, where in absolute_imports(tree) if top == "tukeykit"]


def test_apfuncs_oracle_imports_nothing_from_the_package():
    # the per-index walk takes even the lcm from the standard library,
    # so no helper of the package can carry one fault into both sides
    oracle = Path(__file__).resolve().parent / "reference_apfuncs.py"
    found = package_imports(ast.parse(oracle.read_text(), filename=str(oracle)))
    assert not found, f"the oracle imports from the package at {found}"


def test_package_import_lint_finds_a_planted_import():
    source = (
        "import math, tukeykit.upsets as us\n"
        "from fractions import Fraction\n"
        "from tukeykit.upsets import lcm\n"
        "from .records import Record\n"
        "def f():\n"
        "    import tukeykit\n"
    )
    assert package_imports(ast.parse(source)) == ["tukeykit.upsets:1", "tukeykit:6", "tukeykit.upsets:3"]


# Definitions kept although nothing in the program reaches them, each with
# its reason.
REACHABILITY_ALLOWLIST = {
    # the paper's even-partition map behind positive ``bt_edge`` verdicts;
    # a built-in row for it would add a ``desk`` query with no golden digest
    "catalog.nm_partition_candidate",
    # the Borel diagram's closure will call it; until then the implied-edge
    # tests compose the built-in rows along diagram paths
    "catalog.compose",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _reads(
    nodes, related: dict[str, set[str]], cls: str | None = None
) -> tuple[set[str], set[str]]:
    """Names and attribute names read anywhere under ``nodes``.
    ``related`` maps each package class to itself, its bases and its
    subclasses.  A read ``<Class>.<name>`` through a package class, or
    ``self.<name>`` in a method of ``cls``, reads ``<C>.<name>`` for each
    class C related to that class only; any other attribute read reads
    ``<name>``.  A string that spells a dotted name (a dispatch table
    entry, a tracer hook) reads as that dotted expression would."""
    names: set[str] = set()
    attrs: set[str] = set()

    def read(owner: str | None, attr: str) -> None:
        if owner in related:
            attrs.update(f"{c}.{attr}" for c in related[owner])
        else:
            attrs.add(attr)

    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                read(cls if owner == "self" else owner, node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    parts = node.value.split(".")
                    names.add(parts[0])
                    for owner, attr in zip(parts, parts[1:]):
                        read(owner, attr)
    return names, attrs


def unreached(
    package: dict[str, ast.Module],
    roots: list[ast.AST],
    allowlist: set[str] = REACHABILITY_ALLOWLIST,
) -> list[str]:
    """``module.name`` or ``module.Class.name`` for every top-level function
    and method of the package that no root reaches.  Module top-level
    code, ``cmd_*`` verbs, dunders and ``allowlist`` are roots besides
    ``roots``.  A function is reached through any read of its name, a
    method through a read of its name as an attribute of anything but
    ``self`` or a package class, or as ``self.<name>`` or
    ``<Class>.<name>`` with its class, a base or a subclass.
    Exporting a name is not a read: ``_package_trees`` leaves out
    ``__init__``, whose export table spells every public name."""
    defs = {}  # qualified name -> (leaf, class or None, node)
    bases: dict[str, set[str]] = {}  # class -> the names of its bases
    top = list(roots)
    for module, tree in package.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{stmt.name}"] = (stmt.name, None, stmt)
                top += [*stmt.decorator_list, stmt.args]
            elif isinstance(stmt, ast.ClassDef):
                bases[stmt.name] = {ast.unparse(b).rpartition(".")[2] for b in stmt.bases}
                top += [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[f"{module}.{stmt.name}.{item.name}"] = (item.name, stmt.name, item)
                        top += [*item.decorator_list, item.args]
                    else:
                        top.append(item)
            else:
                top.append(stmt)
    ancestry = {}
    for cls in bases:
        ancestry[cls], todo = set(), [cls]
        while todo:
            if (c := todo.pop()) not in ancestry[cls]:
                ancestry[cls].add(c)
                todo += bases.get(c, ())
    related = {
        cls: {c for c in bases if cls in ancestry[c]} | ancestry[cls] for cls in bases
    }
    names, attrs = _reads(top, related)
    pending = dict(defs)
    grew = True
    while grew:
        grew = False
        for qualified, (leaf, cls, node) in list(pending.items()):
            if (
                leaf in (attrs if cls else names | attrs)
                or f"{cls}.{leaf}" in attrs
                or leaf.startswith("cmd_")
                or (leaf.startswith("__") and leaf.endswith("__"))
                or qualified in allowlist
            ):
                del pending[qualified]
                more_names, more_attrs = _reads(node.body, related, cls)
                names |= more_names
                attrs |= more_attrs
                grew = True
    return sorted(pending)


def _package_trees() -> dict[str, ast.Module]:
    package = Path(tukeykit.__file__).resolve().parent
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }


def _root_trees() -> list[ast.Module]:
    repo = Path(__file__).resolve().parents[1]
    paths = [*sorted((repo / "perfbench").glob("*.py")), repo / "tests" / "test_acceptance.py"]
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_definition_is_reached():
    # the command line, the benchmark and the acceptance suite are the
    # program; ``tukeykit.__all__`` is not, so a public name only unit
    # tests call is flagged, and a helper they need belongs in
    # tests/helpers.py
    dead = unreached(_package_trees(), _root_trees())
    assert not dead, f"definitions nothing in the program reaches: {dead}"


def test_reachability_lint_sees_through_exports(monkeypatch):
    monkeypatch.setattr(tukeykit, "__all__", [*tukeykit.__all__, "spare_export"])
    package, roots = _package_trees(), _root_trees()
    spare = ast.parse("def spare_export():\n    return 0\n").body
    grown = {**package, "triples": ast.Module(package["triples"].body + spare, [])}
    assert unreached(grown, roots) == ["triples.spare_export"]


@pytest.mark.parametrize("entry", sorted(REACHABILITY_ALLOWLIST))
def test_reachability_allowlist_entry_is_needed(entry):
    # an entry whose definition gained a caller must leave the allowlist
    dead = unreached(_package_trees(), _root_trees(), REACHABILITY_ALLOWLIST - {entry})
    assert entry in dead


def test_reachability_lint_resolves_self_reads():
    # ``self.elements`` reads an attribute of its own class, a base or a
    # subclass, so another class's unused ``elements`` method is flagged
    package = {
        "m": ast.parse(
            "class Base:\n"
            "    def size(self):\n"
            "        return 0\n"
            "class ImagePrefix(Base):\n"
            "    def count(self):\n"
            "        return len(self.elements) + self.size()\n"
            "class Narrow(ImagePrefix):\n"
            "    def elements(self):\n"
            "        return ()\n"
            "class Spare:\n"
            "    def elements(self):\n"
            "        return ()\n"
            "    def size(self):\n"
            "        return 0\n"
        )
    }
    roots = [ast.parse("m.ImagePrefix().count()")]
    assert unreached(package, roots, set()) == ["m.Spare.elements", "m.Spare.size"]


def test_reachability_lint_finds_an_unused_function():
    package, roots = _package_trees(), _root_trees()
    spare = ast.parse("def _spare_helper():\n    return 0\n").body
    for module, tree in package.items():
        grown = {**package, module: ast.Module(tree.body + spare, [])}
        assert unreached(grown, roots) == [f"{module}._spare_helper"], module


def test_reachability_lint_resolves_class_reads():
    # ``Base.size`` and the hook string ``"Narrow.width"`` read only their
    # class, its bases and its subclasses, so Spare's methods of those
    # names are flagged; ``.count`` on a call result still reaches every
    # ``count``
    package = {
        "m": ast.parse(
            "class Base:\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def width(self):\n"
            "        return 0\n"
            "class Narrow(Base):\n"
            "    def count(self):\n"
            "        return Base.size(self)\n"
            "class Spare:\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def width(self):\n"
            "        return 0\n"
            "    def count(self):\n"
            "        return 0\n"
        )
    }
    roots = [ast.parse("m.Narrow().count()\nHOOKS = [('m', 'Narrow.width')]\n")]
    assert unreached(package, roots, set()) == ["m.Spare.size", "m.Spare.width"]
