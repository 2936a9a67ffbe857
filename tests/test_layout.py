"""No legpress module imports, or reads as an attribute, another legpress
module's `_`-prefixed name: modules talk through public names only. And
every config key is read by the program outside the config module, and is
named in the config module's schema. Every stored field and every unpacked
returned value has a reader. Every expected failure in the tests is a strict
xfail that names the ROADMAP item whose fix removes its mark. The package's
settable values do not grow."""
import ast
import itertools
import re
from dataclasses import fields
from pathlib import Path

import pytest

import legpress
from legpress import config
from legpress.config import StackConfig

SRC = Path(legpress.__file__).parent
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"
MODULES = frozenset(p.stem for p in SRC.glob("*.py")) - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str, module: str) -> list:
    """`line: text` for each import of another legpress module's private name
    in `module`'s source, and each attribute read of one through a name bound
    to a legpress module."""
    found = []
    aliases = {}  # local name -> the legpress module it is bound to

    def report(node, target, name):
        if target != module and _private(name):
            found.append(f"{node.lineno}: {target}.{name}")

    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "legpress":
                continue
            parts = [p for p in parts if p and p != "legpress"]
            for a in node.names:
                if not parts and a.name in MODULES:  # from . import simworld
                    aliases[a.asname or a.name] = a.name
                else:
                    report(node, parts[-1] if parts else "legpress", a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "legpress" and len(parts) > 1:
                    # `import legpress.x as y` binds y to x; without `as` the
                    # reads are `legpress.x._name`
                    aliases[a.asname or "legpress"] = parts[-1] if a.asname else "legpress"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in aliases:
            report(node, aliases[value.id], node.attr)
        elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
              and aliases.get(value.value.id) == "legpress" and value.attr in MODULES):
            report(node, value.attr, node.attr)
    return found


@pytest.mark.parametrize("source, expected", [
    ("from .simworld import _rotation", ["1: simworld._rotation"]),
    ("from legpress.simworld import leg_jacobian, _jac_of as j", ["1: simworld._jac_of"]),
    ("from . import simworld\nx = simworld._rotation_of(b'')", ["2: simworld._rotation_of"]),
    ("import legpress.geom as g\ny = g._helper", ["2: geom._helper"]),
    ("import legpress.geom\ny = legpress.geom._helper", ["2: geom._helper"]),
    ("from . import simworld\nx = simworld.step, simworld.__name__", []),
    ("from .mpc import _own", []),  # a module's own private names are its business
    ("import numpy as np\nx = np._NoValue", []),
])
def test_the_checker_finds_private_reads(source, expected):
    assert private_reads(source, "mpc") == expected


def test_no_module_reads_another_modules_private_names():
    found = {p.name: private_reads(p.read_text(), p.stem) for p in sorted(SRC.glob("*.py"))}
    assert len(found) == len(MODULES) + 1
    assert {name: lines for name, lines in found.items() if lines} == {}


def attribute_reads(source: str) -> set:
    """The names read as attributes (`x.name`) in the source."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_the_attribute_scan_sees_reads_not_writes():
    assert attribute_reads("a = cfg.camera.width\ncfg.sim.dt = 2") == {"camera", "width", "sim"}


def test_every_config_key_is_read_outside_the_config_module():
    """A settable value has a program caller: each field of each StackConfig
    section is read as an attribute by some legpress module other than the
    one that defines and loads it."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.stem != "config":
            read |= attribute_reads(path.read_text())
    cfg = StackConfig()
    keys = [(section.name, key.name) for section in fields(cfg)
            for key in fields(getattr(cfg, section.name))]
    assert [f"[{section}] {key}" for section, key in keys if key not in read] == []


def documented_schema(doc: str) -> dict:
    """Section -> [(key, vector length or None)] from the schema block of a
    config docstring: after the `Schema` line, `[section]` opens a section
    whose comma-separated keys run on over the lines that follow, up to a
    blank line; `key (n)` is a vector of n values."""
    schema, section = {}, None
    for line in doc.split("Schema", 1)[1].splitlines()[1:]:
        if not line.strip():
            if section is None:
                continue
            break
        opened = re.match(r"\s*\[(\w+)\](.*)", line)
        if opened:
            section, line = opened.groups()
            schema[section] = []
        for item in filter(None, map(str.strip, line.split(","))):
            key, length = re.fullmatch(r"(\w+)(?:\s*\((\d+)\))?", item).groups()
            schema[section].append((key, None if length is None else int(length)))
    return schema


def test_the_schema_reader_reads_sections_keys_and_lengths():
    doc = "Intro.\n\nSchema:\n\n    [a]  x, y (3),\n         z\n    [b]  w\n\nMore text, [c] q\n"
    assert documented_schema(doc) == {"a": [("x", None), ("y", 3), ("z", None)],
                                      "b": [("w", None)]}


def test_the_config_docstring_names_every_section_and_key():
    """The schema in the config module docstring names exactly the
    StackConfig sections and fields, in order, with each vector's length."""
    cfg = StackConfig()
    want = {}
    for section in fields(cfg):
        sub = getattr(cfg, section.name)
        values = [(key.name, getattr(sub, key.name)) for key in fields(sub)]
        want[section.name] = [(key, len(v) if isinstance(v, tuple) else None)
                              for key, v in values]
    assert documented_schema(config.__doc__) == want


def dataclass_fields(source: str) -> list:
    """`Class.field` for each field of each dataclass in the source: its
    annotated class attributes that are not a `ClassVar`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(_named(d, "dataclass")
                                                  for d in node.decorator_list):
            found += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                      and "ClassVar" not in ast.unparse(stmt.annotation)]
    return found


def unread_fields(defining: str, readers) -> list:
    """The dataclass fields of `defining` that no source of `readers` reads
    as an attribute."""
    read = set().union(*map(attribute_reads, readers))
    return [name for name in dataclass_fields(defining) if name.split(".")[1] not in read]


def test_the_checker_finds_fields_nobody_reads():
    source = ("@dataclass(slots=True)\n"
              "class A:\n"
              "    x: float\n"
              "    y: tuple = ()\n"
              "    schema: ClassVar[str] = 'v1'\n"
              "    @property\n"
              "    def twice(self):\n"
              "        return 2 * self.x\n"
              "class B:\n"
              "    u: int = 0\n")
    assert dataclass_fields(source) == ["A.x", "A.y"]
    assert unread_fields(source, [source]) == ["A.y"]
    assert unread_fields(source, [source, "a.y = 1", "print(b.y)"]) == []


# stored fields with no reader yet, each kept for the ROADMAP item that reads it
UNREAD_FIELDS = {
    "MpcResult.linearization_warning": "ROADMAP item 5: the telemetry records it per solve",
    "IcpResult.residual": "ROADMAP item 5: the registration telemetry records it per ICP "
                          "start, beside its exit rule and iterations",
    "ContactRecord.penetration": "ROADMAP item 5: the contact telemetry records the depth "
                                 "beside the peak foot–object normal force",
    "ContactRecord.bodies": "ROADMAP item 5: the peak foot–object normal force is found by "
                            "the contact's bodies",
}


def test_every_stored_field_has_a_reader():
    """A computed value is read or deleted: each field of each dataclass in
    the package is read as an attribute by some module of the package or of
    the benchmark, or waits in UNREAD_FIELDS for the ROADMAP item that reads
    it."""
    readers = [p.read_text() for p in (*SRC.glob("*.py"), *PERFBENCH.glob("*.py"))]
    found = [name for p in sorted(SRC.glob("*.py"))
             for name in unread_fields(p.read_text(), readers)]
    assert sorted(found) == sorted(UNREAD_FIELDS)
    assert all(re.match(r"ROADMAP item \d+", reason) for reason in UNREAD_FIELDS.values())


def unread_parameters(source: str) -> list:
    """`line: name(parameter)` for each parameter that a module-level
    function, or a method of a module-level class, never reads. A read in a
    nested function or lambda counts. A method's receiver (the first
    parameter of any method but a static one) is not checked, nor are
    nested functions themselves: their caller fixes their signature."""
    found = []

    def check(fn, name, receiver):
        a = fn.args
        params = [*a.posonlyargs, *a.args][receiver:]
        params += [*a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.extend(f"{fn.lineno}: {name}({p.arg})" for p in params if p.arg not in read)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions):
            check(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    check(item, f"{node.name}.{item.name}", 0 if static else 1)
    return found


def test_the_checker_finds_unread_parameters():
    source = ("def f(a, b, *args, c, **kw):\n"
              "    return a + (lambda: c)()\n"
              "class K:\n"
              "    def m(self, x, y):\n"
              "        def verdict(obj, flow):\n"
              "            return y\n"
              "        return verdict\n"
              "    @staticmethod\n"
              "    def s(u, v=1):\n"
              "        return v\n")
    assert unread_parameters(source) == ["1: f(b)", "1: f(args)", "1: f(kw)", "4: K.m(x)",
                                         "9: K.s(u)"]


def test_no_function_has_a_parameter_it_never_reads():
    """A settable value has a reader: every parameter of every module-level
    function and method in the package is read by its body."""
    found = {p.name: unread_parameters(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


_LIBRARIES = frozenset({"np", "numpy", "scipy"})


def _root_name(node):
    """The name a call chain such as `a.b(x).c` starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Call)):
        node = node.value if isinstance(node, ast.Attribute) else node.func
    return node.id if isinstance(node, ast.Name) else None


def unpacked_results(source: str) -> list:
    """(callee, [position bound to a name other than `_`]) for each
    assignment in the source that unpacks the result of a call into a tuple
    or list of targets. The callee is the called name or attribute; calls
    through numpy or scipy, and unpackings with a starred target, are
    skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        if not isinstance(func, (ast.Name, ast.Attribute)) or _root_name(func) in _LIBRARIES:
            continue
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)) and not any(
                    isinstance(e, ast.Starred) for e in target.elts):
                found.append((func.id if isinstance(func, ast.Name) else func.attr,
                              [not (isinstance(e, ast.Name) and e.id == "_")
                               for e in target.elts]))
    return found


def unread_returns(defining, callers) -> list:
    """`name[i]` for each position i of the result of a function or method
    defined at module or class level in the `defining` sources that some
    source of `callers` unpacks, while none binds position i to a name."""
    defined = set()
    for source in defining:
        for node in ast.parse(source).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defined.update(fn.name for fn in body
                           if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)))
    bound = {}
    for source in callers:
        for name, positions in unpacked_results(source):
            if name in defined:
                bound[name] = [a or b for a, b in itertools.zip_longest(
                    bound.get(name, ()), positions, fillvalue=False)]
    return [f"{name}[{i}]" for name, have in sorted(bound.items())
            for i, read in enumerate(have) if not read]


def test_the_checker_finds_returned_values_nobody_reads():
    source = ("import numpy as np\n"
              "def f():\n"
              "    return 1, 2, 3\n"
              "def g():\n"
              "    return 1, 2\n"
              "class K:\n"
              "    def m(self):\n"
              "        return 1, 2\n"
              "a, _, c = f()\n"
              "_, b, _ = f()\n"
              "x, _ = g()\n"
              "u, v = K().m()\n"
              "_, w = np.linalg.eigh(x)\n"
              "_, y = h()\n"
              "first, *_ = g()\n")
    assert unpacked_results(source) == [("f", [True, False, True]), ("f", [False, True, False]),
                                        ("g", [True, False]), ("m", [True, True]),
                                        ("h", [False, True])]
    assert unread_returns([source], [source]) == ["g[1]"]
    assert unread_returns([source], [source, "p, q = g()"]) == []


def test_every_returned_value_has_a_reader():
    """A computed value is read or deleted: when a program caller unpacks
    the result of a function or method of the package, each position is
    bound to a name by some caller in the package or the benchmark."""
    callers = [p.read_text() for p in (*SRC.glob("*.py"), *PERFBENCH.glob("*.py"))]
    assert unread_returns([p.read_text() for p in SRC.glob("*.py")], callers) == []


def _named(node, name: str) -> bool:
    """node is `name` or `x.name`, called or not."""
    node = node.func if isinstance(node, ast.Call) else node
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _init_field(stmt) -> bool:
    """stmt is an annotated class field that the dataclass `__init__` takes:
    not a `ClassVar`, not `field(init=False)`."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return False
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    return not (isinstance(value, ast.Call) and _named(value, "field") and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords))


def settable_values(source: str) -> dict:
    """The values a caller can set in the source, by kind: the parameters of
    every `def` (nested ones and method receivers included, lambdas not), the
    init fields of every dataclass, and every `add_argument` option."""
    counts = {"parameters": 0, "fields": 0, "options": 0}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            counts["parameters"] += (len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                                     + (a.vararg is not None) + (a.kwarg is not None))
        elif isinstance(node, ast.ClassDef) and any(_named(d, "dataclass")
                                                    for d in node.decorator_list):
            counts["fields"] += sum(map(_init_field, node.body))
        elif isinstance(node, ast.Call) and _named(node, "add_argument"):
            counts["options"] += 1
    return counts


def test_the_settable_values_scan_counts_parameters_fields_and_options():
    source = ("@dataclass(frozen=True)\n"
              "class A:\n"
              "    x: float\n"
              "    y: tuple = (0.0, 0.0)\n"
              "    z: list = field(default_factory=list)\n"
              "    rows: tuple = field(init=False)\n"
              "    schema: ClassVar[str] = 'v1'\n"
              "    w = 3\n"
              "    def m(self, a, *rest, b=1, **kw):\n"
              "        def inner(c):\n"
              "            return lambda d: c\n"
              "        return inner\n"
              "class B:\n"
              "    u: int = 0\n"
              "p.add_argument('--seed', type=int)\n")
    assert settable_values(source) == {"parameters": 6, "fields": 3, "options": 1}


# the count of `src/legpress` today: a change that adds a settable value
# raises it in its own diff
SETTABLE_VALUES = 716


def test_settable_values_do_not_grow():
    totals = [sum(settable_values(p.read_text()).values()) for p in SRC.glob("*.py")]
    assert sum(totals) <= SETTABLE_VALUES


def _is_xfail_mark(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "xfail"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "mark"
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "pytest")


def unnamed_xfails(source: str) -> list:
    """`line: reason` for each `pytest.mark.xfail` in the source whose reason
    is not a string that starts with `ROADMAP item N`, and `line: strict=False`
    for each one that turns strictness off. A mark without a reason reads as
    the reason ''."""
    tree = ast.parse(source)
    found, called = [], set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _is_xfail_mark(node.func)):
            continue
        called.add(id(node.func))
        given = {k.arg: k.value for k in node.keywords}
        reason = given.get("reason")
        text = reason.value if isinstance(reason, ast.Constant) else ""
        if not (isinstance(text, str) and re.match(r"ROADMAP item \d+", text)):
            found.append(f"{node.lineno}: {text!r}")
        strict = given.get("strict")
        if isinstance(strict, ast.Constant) and strict.value is False:
            found.append(f"{node.lineno}: strict=False")
    for node in ast.walk(tree):
        if _is_xfail_mark(node) and id(node) not in called:
            found.append(f"{node.lineno}: ''")
    return sorted(found, key=lambda line: int(line.split(":")[0]))


def test_the_checker_finds_xfails_that_name_no_roadmap_item():
    source = ('@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the cylinder")\n'
              'def test_a(): pass\n'
              '@pytest.mark.xfail(reason="the " "gate")\n'
              'def test_b(): pass\n'
              '@pytest.mark.xfail\n'
              'def test_c(): pass\n'
              'cases = [pytest.param(1, marks=pytest.mark.xfail(reason="ROADMAP item: 3"))]\n'
              '@pytest.mark.xfail(reason="ROADMAP item 2", strict=False)\n'
              'def test_d(): pytest.skip("ROADMAP item 4")\n')
    assert unnamed_xfails(source) == ["3: 'the gate'", "5: ''", "7: 'ROADMAP item: 3'",
                                      "8: strict=False"]


def test_every_xfail_names_the_roadmap_item_that_removes_it():
    """A test may fail only as a strict xfail (`xfail_strict` in
    pyproject.toml) whose reason names its fix: `ROADMAP item N`."""
    found = {p.name: unnamed_xfails(p.read_text()) for p in sorted(TESTS.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
