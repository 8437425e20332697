"""Module layering: no superkac module reaches into another one's private
names, so each module's public functions are its whole interface; no
module imports ``typing``, which a CLI run would otherwise load, or a name
it never reads; and the public names that nothing in ``src/`` names, the
defaulted parameters that no call in ``src/`` sets, the record fields
that no code in ``src/`` reads and the fields of every record are known,
pinned lists; every private top-level function has a reader; and every
function cache is keyed by an algebra's spec alone."""

import ast
import importlib
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from superkac.record import Record

SRC = Path(__file__).resolve().parent.parent / "src" / "superkac"
MODULES = sorted(SRC.glob("*.py"))


def private_imports(path: Path) -> list:
    """(line, name) for each underscore name that ``path`` imports from, or
    reads as an attribute of, another superkac module."""
    own = f"superkac.{path.stem}"
    aliases = set()               # local names bound to other superkac modules
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "superkac" \
                and node.module != own:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                elif node.module == "superkac":
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


def test_checker_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from superkac.exact import _pencil, integer_rref\n"
                     "from superkac import kacmod as km\n"
                     "x = km._subset_order\n", encoding="utf-8")
    assert private_imports(probe) == [(1, "superkac.exact._pencil"),
                                      (3, "km._subset_order")]


def typing_imports(path: Path) -> list:
    """Lines at which ``path`` imports ``typing`` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "typing" for name in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_typing_import(path):
    assert typing_imports(path) == []


def test_checker_sees_a_typing_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from collections.abc import Sequence\n"
                     "from typing import Mapping\n"
                     "import os, typing as t\n"
                     "def f():\n"
                     "    import typing\n", encoding="utf-8")
    assert typing_imports(probe) == [2, 3, 5]


def unused_imports(path: Path) -> list:
    """(line, name) for each name that ``path`` imports and never reads.
    ``from __future__`` imports are exempt, and a name inside a quoted
    annotation counts as a read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname
                          or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        annotations = [getattr(node, "returns", None),
                       getattr(node, "annotation", None)]
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) \
                        and isinstance(sub.value, str):
                    read |= {name.id for name in ast.walk(ast.parse(
                        sub.value, mode="eval")) if isinstance(name, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os.path, sys as system\n"
                     "from fractions import Fraction\n"
                     "from superkac.exact import ParamPoly, PolyMatrix, rat\n"
                     "def f(x: 'ParamPoly') -> dict[str, 'PolyMatrix']:\n"
                     "    return os.path.join(x)\n", encoding="utf-8")
    assert unused_imports(probe) == [(2, "system"), (3, "Fraction"),
                                     (4, "rat")]


CACHES = ("lru_cache", "cache")


def unkeyed_caches(path: Path) -> list:
    """(line, name) for each function in ``path`` decorated with
    ``lru_cache`` or ``cache`` that does not take exactly one parameter,
    annotated ``SuperAlgebraSpec``.  Such a cache holds one entry per
    algebra, so nothing keyed on a job's labels, b or couplings stays in
    the process."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = [dec.func if isinstance(dec, ast.Call) else dec
                      for dec in node.decorator_list]
        if not any(getattr(dec, "id", getattr(dec, "attr", None)) in CACHES
                   for dec in decorators):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        annotation = params[0].annotation if len(params) == 1 else None
        if args.vararg or args.kwarg or not (
                isinstance(annotation, ast.Name)
                and annotation.id == "SuperAlgebraSpec"):
            found.append((node.lineno, node.name))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_keyed_by_the_spec_alone(path):
    assert unkeyed_caches(path) == []


def test_checker_sees_a_cache_keyed_by_more_than_the_spec(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import functools\n"
                     "from functools import cache, lru_cache\n"
                     "@lru_cache(maxsize=None)\n"
                     "def table(spec: SuperAlgebraSpec):\n"
                     "    return spec\n"
                     "@functools.lru_cache\n"
                     "def irrep(spec: SuperAlgebraSpec, a: tuple):\n"
                     "    return a\n"
                     "@cache\n"
                     "def anything(spec):\n"
                     "    return spec\n"
                     "class Box:\n"
                     "    @functools.cache\n"
                     "    def held(self, *specs: SuperAlgebraSpec):\n"
                     "        return specs\n", encoding="utf-8")
    assert unkeyed_caches(probe) == [(7, "irrep"), (10, "anything"),
                                     (14, "held")]


def _names(tree) -> Counter:
    """How often each identifier is read: as a name, an attribute or an
    imported name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def unnamed_public_definitions(paths) -> list:
    """'module.name' of each public function, class and method defined at
    the top level of ``paths`` (a method as 'module.Class.name') whose name
    no code in ``paths`` reads outside its own body."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    read = sum((_names(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{sub.name}", sub)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
            for qualified, definition in members:
                name = definition.name
                if not name.startswith("_") \
                        and read[name] == _names(definition)[name]:
                    found.append(f"{module}.{qualified}")
    return sorted(found)


# Public names that only tests use: the artifact reader, which waits for
# a verb that re-verifies an export (ROADMAP item 7).  A new public name
# needs a caller in src/, or its place here.
TEST_ONLY = [
    "jsonio.module_matrices_from_json",
]


def test_public_names_used_only_by_tests_are_pinned():
    assert unnamed_public_definitions(MODULES) == TEST_ONLY


def test_checker_sees_a_name_only_tests_use(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def lonely(n):\n"
        "    return lonely(n - 1) if n else used()\n"
        "class Box:\n"
        "    def opened(self):\n"
        "        return self.closed()\n"
        "    def closed(self):\n"
        "        return 0\n"
        "    def shut(self):\n"
        "        return self._hidden()\n"
        "    def _hidden(self):\n"
        "        return 0\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from a import Box\n"
                                   "x = Box().opened()\n", encoding="utf-8")
    assert unnamed_public_definitions(sorted(tmp_path.glob("*.py"))) == \
        ["a.Box.shut", "a.lonely"]


def unread_private_functions(paths) -> list:
    """'module.name' of each private function defined at the top level of
    ``paths`` whose name no code in ``paths`` reads outside its own body:
    a helper left behind when its last caller went."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    read = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}.{node.name}"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("_")
                  and not node.name.startswith("__")
                  and read[node.name] == _names(node)[node.name])


def test_every_private_function_has_a_reader():
    assert unread_private_functions(MODULES) == []


def test_checker_sees_an_unread_private_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n"
        "    return 1\n"
        "def _orphan(n):\n"
        "    return _orphan(n - 1) if n else _used()\n"
        "def _passed():\n"
        "    return 0\n"
        "def public():\n"
        "    return sorted([], key=_passed)\n"
        "class Box:\n"
        "    def _hidden(self):\n"
        "        return 0\n", encoding="utf-8")
    assert unread_private_functions(sorted(tmp_path.glob("*.py"))) == \
        ["a._orphan"]


def unset_defaults(paths) -> list:
    """'module.name(param)' for each defaulted parameter of a public
    function or method defined at the top level of ``paths`` (a method as
    'module.Class.name(param)') that no call in ``paths`` sets, by position
    or by keyword.  A call is matched by the name it calls alone, and one
    that splats *args or **kwargs sets every parameter."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    calls = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", getattr(func, "attr", None))] \
                    .append(node)

    def sets(call, name, position) -> bool:
        return any(isinstance(arg, ast.Starred) for arg in call.args) \
            or any(kw.arg in (None, name) for kw in call.keywords) \
            or (position is not None and position < len(call.args))

    found = []
    for path, tree in zip(paths, trees):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                # a method's self or cls is not passed by position
                members = [(f"{node.name}.{sub.name}", sub, 0 if any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in sub.decorator_list) else 1)
                    for sub in node.body if isinstance(sub, ast.FunctionDef)]
            else:
                continue
            for qualified, definition, implicit in members:
                if definition.name.startswith("_"):
                    continue
                args = definition.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                defaulted = [(arg.arg, k - implicit)
                             for k, arg in enumerate(positional) if k >= first]
                defaulted += [(arg.arg, None) for arg, default
                              in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                found += [f"{path.stem}.{qualified}({name})"
                          for name, position in defaulted
                          if not any(sets(call, name, position)
                                     for call in calls[definition.name])]
    return sorted(found)


# Defaulted parameters that no call in src/ sets: the CLI's argv, which
# tests pass.  A new one needs a caller that sets it, or its place here.
UNSET_DEFAULTS = [
    "cli.main(argv)",
]


def test_defaults_no_call_sets_are_pinned():
    assert unset_defaults(MODULES) == UNSET_DEFAULTS


def test_checker_sees_a_default_no_call_sets(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, z=2, *, w=3):\n"
        "    return x\n"
        "def splat(p=0):\n"
        "    return p\n"
        "def _hidden(q=0):\n"
        "    return q\n"
        "class Box:\n"
        "    def put(self, item=None, many=False):\n"
        "        return item\n"
        "    @staticmethod\n"
        "    def make(size=0, kind=None):\n"
        "        return Box()\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from a import Box, f, splat\n"
                                   "f(0, 1)\n"
                                   "f(0, w=4)\n"
                                   "splat(*[])\n"
                                   "Box().put(5)\n"
                                   "Box.make(1)\n", encoding="utf-8")
    assert unset_defaults(sorted(tmp_path.glob("*.py"))) == \
        ["a.Box.make(kind)", "a.Box.put(many)", "a.f(z)"]


def unread_record_fields(paths) -> list:
    """'module.Class.field' of each field of a ``Record`` subclass defined
    at the top level of ``paths`` that no code in ``paths`` reads as an
    attribute, by name alone.  A method call x.name(...) is not a read of
    a field name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    called = {id(node.func) for tree in trees.values()
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in called}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", None) == "Record"
                    for base in node.bases):
                found += [f"{module}.{node.name}.{item.target.id}"
                          for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and item.target.id not in read]
    return sorted(found)


# Record fields that nothing in src/ reads: parts of a result that only
# tests read.  A new field needs a reader in src/, or its place here.
UNREAD_FIELDS = [
    "evenrep.EvenModule.contents",
    "kacmod.SingularVector.coefficients",
    "kacmod.SingularVector.weight",
    "kacmod.TypicalityReport.factor_roots",
    "kacmod.TypicalityReport.s_roots",
]


def test_record_fields_no_code_reads_are_pinned():
    assert unread_record_fields(MODULES) == UNREAD_FIELDS


def test_checker_sees_a_field_no_code_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "from record import Record\n"
        "class Box(Record):\n"
        "    size: int\n"
        "    kind: str\n"
        "    label: str = ''\n"
        "    scale: int = 1\n"
        "class Plain:\n"
        "    width: int\n", encoding="utf-8")
    # scale is only the name of a method called on another object
    (tmp_path / "b.py").write_text("from a import Box\n"
                                   "box = Box(1, 'k')\n"
                                   "box.label = box.kind\n"
                                   "box.kind.scale(2)\n", encoding="utf-8")
    assert unread_record_fields(sorted(tmp_path.glob("*.py"))) == \
        ["a.Box.label", "a.Box.scale", "a.Box.size"]


# The fields of every Record subclass in src/, in order.
RECORD_FIELDS = {
    "algebra.SuperAlgebraSpec": ("m", "n", "flavor"),
    "algebra.RootDatum": ("spec", "simple_even_roots", "even_positive_roots",
                          "even_root_pairs", "odd_positive_roots",
                          "odd_pairs", "cartan_matrix", "rho"),
    "algebra.FundamentalRep": ("spec", "datum", "matrices"),
    "algebra.StructureConstants": ("spec", "datum", "basis", "recipes",
                                   "table", "k"),
    "cli.JobConfig": ("action", "flavor", "m", "n", "labels", "b", "c", "N",
                      "lambdas", "nu", "n_twist", "out", "report"),
    "evenrep.EvenModule": ("labels", "params", "dim", "contents", "hw",
                           "shifts", "matrices", "y_scalar", "z0_scalar"),
    "heisenberg.HeisenbergSpec": ("base", "labels", "hprime", "table"),
    "heisenberg.HModule": ("twist", "H", "matrices"),
    "kacmod.KacModule": ("basis", "matrices", "shifts", "layers", "sc", "L"),
    "kacmod.TypicalityReport": ("s_poly", "factors", "constant",
                                "proportional", "s_roots", "factor_roots",
                                "roots_match"),
    "kacmod.SingularVector": ("weight", "layer", "coefficients"),
    "kacmod.SingularVectorReport": ("vectors",),
    "matryoshka.Deformation": ("base", "nu", "A"),
    "matryoshka.ReplicationSpec": ("N", "lambdas"),
    "matryoshka.TwistSpec": ("n", "nu"),
    "matryoshka.ReplicatedModule": ("deformation", "coupling", "nu"),
    "report.CheckItem": ("name", "passed", "location", "residual"),
    "report.VerificationReport": ("title", "items"),
}


def record_fields(paths) -> dict:
    """{'module.Class': fields} of each Record subclass that the modules of
    ``paths`` define."""
    found = {}
    for path in paths:
        module = importlib.import_module(f"superkac.{path.stem}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, Record) \
                    and obj is not Record \
                    and obj.__module__ == module.__name__:
                found[f"{path.stem}.{name}"] = obj._fields
    return found


def test_record_fields_are_pinned():
    """Every record's fields are pinned.  A new field needs its place in
    RECORD_FIELDS, and must hold a fact that no other field or record
    holds: a value that can be read off another one, such as a parity off
    its label, a derivative off its matrix or a module's params off its
    even module, is computed from it and not stored."""
    assert record_fields(MODULES) == RECORD_FIELDS
