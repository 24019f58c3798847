"""Every public function, class and method of se3bc has a caller, every
dataclass field has a reader, every defaulted parameter has a call that
passes it, every defaulted dataclass field has a call that sets it, and
every parameter of every function is read by its body.

A name counts as used when src/ or perfbench/ refers to it outside its own
definition: functions and classes by name, attribute or import, methods by
attribute, unless that attribute is looked up on another se3bc class (a
method shares its name with other classes' methods). A dataclass field counts
as read when src/ or perfbench/ loads an attribute of its name outside its
own class, or when its class serialises itself with `asdict(self)`. A
defaulted parameter of a public function, method or `__init__` counts as
passed when a call in src/ or perfbench/ outside its own function, to a
callable of that name (the class's, for `__init__`), passes it by keyword or
by position; `*args` and `**kwargs` pass every parameter they could. A
defaulted dataclass field that the generated `__init__` takes (not
`field(init=False)`) counts as set when a call in src/ or perfbench/ outside
its own class, to a callable of the class's name, passes it by keyword or by
position, or when a `replace(...)` call passes it by keyword; a value that
no such call sets is a module constant, not a field. Tests do not count: code
only tests run lives in tests/oracles.py, each of whose public names a test
module must use, and a name, field or parameter that stays in src/ for the
tests must be listed in KEPT, KEPT_FIELDS, KEPT_PARAMS or KEPT_FIELDS_SET
with the reason it stays.

A parameter of a function, method or lambda of src/se3bc, nested ones
included, counts as read when its body loads the name, a nested function's
body included; a method's `self` or `cls` is exempt. A parameter that a
caller or a protocol requires although the body ignores it is listed in
KEPT_UNREAD with the reason it stays.

Names are matched, not resolved, so every guard errs towards "used" and
misses a dead member while another class has a member of its name: a
`replace(x, f=...)` call sets the field `f` of every dataclass, whatever `x`
is, just as a load of `x.f` reads every field `f`. For the same reason a
KEPT_FIELDS entry whose name another dataclass's field shares is never
reported stale: no load can show that it is the entry's field being read.
"""

import ast
import pathlib
from collections import defaultdict

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

KEPT = {
    "harness.emit_report": "entry point: writes a study's CSV and JSON report",
}

# "module.Class.field", or "module.Class" for all of a class's fields.
KEPT_FIELDS = {
    "datasets.StepRecord.ee_pose_world": "test reference: recorded actions replayed against it must land on it",
    "datasets.Demonstration.seed": "tests replay a demo from it, and the recorded-demo hash covers it",
}

# "module.function.param", "module.Class.method.param", or "module.Class.param"
# for a parameter of the class's __init__.
KEPT_PARAMS = {}

# "module.Class.field" of a defaulted dataclass field.
KEPT_FIELDS_SET = {
    "policy.PolicyConfig.horizon": "tiny test policies (horizon 1 and 2) and the loss tests' horizon sweep",
    "policy.PolicyConfig.lam": "the divergence test sets lam=1e308 to overflow the first forward pass",
    "simworld.TaskSpec.horizon_limit": "the harness tests shorten episodes to 40 steps",
}

# "module.function.param" or "module.Class.method.param" of a parameter its body never reads.
KEPT_UNREAD = {
    "policy.collate.scene": "perfbench/workloads.py passes all four arguments positionally",
    "tensornet.GradientTape.__exit__.exc_type": "context-manager protocol argument",
    "tensornet.GradientTape.__exit__.exc": "context-manager protocol argument",
    "tensornet.GradientTape.__exit__.tb": "context-manager protocol argument",
}


def _public_definitions(tree, module):
    """(qualified name, name, node, owning class or None) of each public definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub, node.name


def _receiver(node):
    """The name an attribute is looked up on: `C` in both `C.m` and `mod.C.m`."""
    if isinstance(node.value, ast.Name):
        return node.value.id
    if isinstance(node.value, ast.Attribute):
        return node.value.attr
    return None


def _unreferenced(modules, users):
    """Public names of `modules` (name -> tree) that no tree in `users` refers to.

    A method counts as referenced by an attribute of its name, unless the
    attribute is looked up on another class of `modules`: `A.load` is no
    caller of `B.load`.
    """
    classes = {n.name for tree in modules.values() for n in tree.body if isinstance(n, ast.ClassDef)}
    by_name = defaultdict(list)  # name -> [(node id, is attribute, class it is looked up on)]
    for tree in users:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                receiver = _receiver(n)
                by_name[n.attr].append((id(n), True, receiver if receiver in classes else None))
            elif isinstance(n, ast.Name):
                by_name[n.id].append((id(n), False, None))
            elif isinstance(n, ast.alias):
                by_name[n.name.rsplit(".", 1)[-1]].append((id(n), False, None))
    unused = set()
    for module, tree in modules.items():
        for qualname, name, node, owner in _public_definitions(tree, module):
            own = {id(n) for n in ast.walk(node)}
            if not any(i not in own and (owner is None or (attr and cls in (None, owner)))
                       for i, attr, cls in by_name[name]):
                unused.add(qualname)
    return unused


def _is_dataclass(node):
    return any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)


def _serialises_itself(node):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "asdict"
               and n.args and isinstance(n.args[0], ast.Name) and n.args[0].id == "self"
               for n in ast.walk(node))


def _unread_fields(modules, users):
    """Fields "module.Class.field" of the dataclasses in `modules` that no
    tree in `users` loads as an attribute outside the field's own class."""
    loads = defaultdict(set)  # attribute name -> node ids of its loads
    for tree in users:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loads[n.attr].add(id(n))
    unread = set()
    for module, tree in modules.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)) or _serialises_itself(cls):
                continue
            own = {id(n) for n in ast.walk(cls)}
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if not loads[stmt.target.id] - own:
                        unread.add(f"{module}.{cls.name}.{stmt.target.id}")
    return unread


def _shared_fields(modules):
    """Fields "module.Class.field" of the dataclasses in `modules` whose name
    another of those dataclasses also declares."""
    owners = defaultdict(set)  # field name -> qualified fields of that name
    for module, tree in modules.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        owners[stmt.target.id].add(f"{module}.{cls.name}.{stmt.target.id}")
    return {name for names in owners.values() if len(names) > 1 for name in names}


def _defaulted_params(tree, module):
    """(qualified name, callee name, positional index or None, node) of each
    defaulted parameter of a public function, method or __init__ of `tree`."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _params(f"{module}.{node.name}", node.name, node, bound=False)
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                bound = "staticmethod" not in (ast.unparse(d) for d in sub.decorator_list)
                if sub.name == "__init__":
                    yield from _params(f"{module}.{node.name}", node.name, sub, bound)
                elif not sub.name.startswith("_"):
                    yield from _params(f"{module}.{node.name}.{sub.name}", sub.name, sub, bound)


def _params(qualname, callee, node, bound):
    args = node.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            start=len(positional) - len(args.defaults)):
        yield f"{qualname}.{arg.arg}", callee, i, node
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qualname}.{arg.arg}", callee, None, node


def _calls(users):
    """callee name -> [(node id, positional count, keyword names)] of the
    calls in `users`; `*args` counts as infinitely many positional arguments
    and `**kwargs` as None, every keyword."""
    calls = defaultdict(list)
    for tree in users:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                callee = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                starred = any(isinstance(a, ast.Starred) for a in n.args)
                keywords = None if any(k.arg is None for k in n.keywords) else {k.arg for k in n.keywords}
                calls[callee].append((id(n), float("inf") if starred else len(n.args), keywords))
    return calls


def _passes(calls, own, index, name):
    """Whether a call outside the node ids `own` passes the argument at
    positional `index` (None: keyword-only) or keyword `name`."""
    return any(i not in own and ((index is not None and n_pos > index) or keywords is None or name in keywords)
               for i, n_pos, keywords in calls)


def _unpassed_params(modules, users):
    """Defaulted parameters of `modules` that no call in `users` passes."""
    calls = _calls(users)
    unpassed = set()
    for module, tree in modules.items():
        for qualname, callee, index, node in _defaulted_params(tree, module):
            if not _passes(calls[callee], {id(n) for n in ast.walk(node)}, index, qualname.rsplit(".", 1)[1]):
                unpassed.add(qualname)
    return unpassed


def _init_false(value):
    return (isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in value.keywords))


def _defaulted_fields(tree, module):
    """(qualified name, class name, positional index, class node) of each
    defaulted field that the generated __init__ of a dataclass in `tree` takes."""
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
            continue
        index = 0
        for stmt in cls.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)) or _init_false(stmt.value):
                continue
            if stmt.value is not None:
                yield f"{module}.{cls.name}.{stmt.target.id}", cls.name, index, cls
            index += 1


def _unset_fields(modules, users):
    """Defaulted dataclass fields of `modules` that no call in `users` to
    their class, and no `replace(...)` keyword, passes."""
    calls = _calls(users)
    replaced = [(i, 0, keywords) for i, _, keywords in calls["replace"]]  # its one positional is the instance
    unset = set()
    for module, tree in modules.items():
        for qualname, cls, index, node in _defaulted_fields(tree, module):
            own, name = {id(n) for n in ast.walk(node)}, qualname.rsplit(".", 1)[1]
            if not (_passes(calls[cls], own, index, name) or _passes(replaced, own, None, name)):
                unset.add(qualname)
    return unset


def _trees():
    files = sorted((ROOT / "src" / "se3bc").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in files + sorted((ROOT / "perfbench").rglob("*.py"))}
    return {p.stem: trees[p] for p in files}, list(trees.values())


@pytest.mark.parametrize("use,unused", [
    ("m.A.load({})", {"m.B.load"}),
    ("A.load({})", {"m.B.load"}),
    ("spec.load({})", set()),
])
def test_a_method_lookup_on_another_class_is_no_caller(use, unused):
    module = ast.parse("class A:\n    def load(self): pass\n\n\nclass B:\n    def load(self): pass\n")
    assert _unreferenced({"m": module}, [module, ast.parse(f"import m\nfrom m import A, B\n{use}\n")]) == unused


def test_every_public_name_has_a_caller():
    unused = _unreferenced(*_trees())
    dead, stale = sorted(unused - set(KEPT)), sorted(set(KEPT) - unused)
    assert not dead, f"no caller in src/ or perfbench/; delete them or add them to KEPT: {dead}"
    assert not stale, f"KEPT names that are gone or now have a caller: {stale}"


def test_every_test_oracle_has_a_caller():
    # tests/oracles.py holds the code only tests run; a test module calls each of its names.
    tests = ROOT / "tests"
    users = [ast.parse(p.read_text(), str(p)) for p in sorted(tests.glob("test_*.py"))]
    unused = _unreferenced({"oracles": ast.parse((tests / "oracles.py").read_text())}, users)
    assert not unused, f"no test module uses them; delete them from tests/oracles.py: {sorted(unused)}"


FIELDS_MODULE = """
from dataclasses import asdict, dataclass


@dataclass
class A:
    read: int
    unread: int
    inside: int

    def __post_init__(self):
        assert self.inside >= 0


@dataclass(frozen=True)
class B:
    x: int

    def to_json(self):
        return asdict(self)
"""


def test_a_field_read_only_inside_its_class_is_unread():
    module = ast.parse(FIELDS_MODULE)
    user = ast.parse("import m\na = m.A(1, 2, 3)\na.unread = 4\nprint(a.read)\n")
    assert _unread_fields({"m": module}, [module, user]) == {"m.A.unread", "m.A.inside"}


def test_a_field_another_dataclass_shares_is_shared():
    module = ast.parse(FIELDS_MODULE + "\n\n@dataclass\nclass C:\n    read: int\n")
    assert _shared_fields({"m": module}) == {"m.A.read", "m.C.read"}


def test_every_dataclass_field_is_read():
    modules, users = _trees()
    unread = _unread_fields(modules, users)
    kept = {name for name in unread if name in KEPT_FIELDS or name.rsplit(".", 1)[0] in KEPT_FIELDS}
    dead = sorted(unread - kept)
    maybe_unread = kept | _shared_fields(modules)
    stale = sorted(k for k in KEPT_FIELDS
                   if not any(n == k or n.startswith(k + ".") for n in maybe_unread))
    assert not dead, f"no reader outside their class; delete them or add them to KEPT_FIELDS: {dead}"
    assert not stale, f"KEPT_FIELDS entries that are gone or now read: {stale}"


PARAMS_MODULE = """
def f(a, b=1, c=2, *, d=3):
    return f(a, d=d)


class A:
    def __init__(self, x=0):
        self.x = x

    def m(self, y=1):
        return y

    @staticmethod
    def s(z=1):
        return z
"""


@pytest.mark.parametrize("use,unpassed", [
    ("f(1, 2, 3, d=4)\nA(0).m(1)\nA.s(1)", set()),
    ("f(1, 2)\nA(x=1).m()\nA.s(**kw)", {"m.f.c", "m.f.d", "m.A.m.y"}),
    ("f(*args)\nA()", {"m.f.d", "m.A.x", "m.A.m.y", "m.A.s.z"}),
], ids=["all_passed", "own_call_and_missing_keyword", "star_args"])
def test_a_parameter_passed_only_by_its_own_function_is_unpassed(use, unpassed):
    module = ast.parse(PARAMS_MODULE)
    user = ast.parse(f"from m import A, f\n{use}\n")
    assert _unpassed_params({"m": module}, [module, user]) == unpassed


def test_every_defaulted_parameter_is_passed():
    unpassed = _unpassed_params(*_trees())
    dead, stale = sorted(unpassed - set(KEPT_PARAMS)), sorted(set(KEPT_PARAMS) - unpassed)
    assert not dead, f"no call in src/ or perfbench/ passes them; delete them or add them to KEPT_PARAMS: {dead}"
    assert not stale, f"KEPT_PARAMS entries that are gone or now passed: {stale}"


FIELDS_SET_MODULE = """
from dataclasses import dataclass, field, replace


@dataclass
class A:
    required: int
    state: list = field(init=False, default_factory=list)
    by_position: int = 0
    by_keyword: int = 0
    replaced: int = 0
    never: int = 0

    def copy(self):
        return replace(A(0, 0, 0, 0, 0), never=1)
"""


@pytest.mark.parametrize("use,unset", [
    ("A(1, 2, by_keyword=3)\nreplace(a, replaced=4)", {"m.A.never"}),
    ("A(1)\nreplace(a, by_position=2)", {"m.A.by_keyword", "m.A.replaced", "m.A.never"}),
    ("A(*args)", set()),
    ("A(1, **kw)", set()),
], ids=["position_keyword_replace", "replace_by_field_name", "star_args", "star_kwargs"])
def test_a_field_set_only_by_its_own_class_is_unset(use, unset):
    module = ast.parse(FIELDS_SET_MODULE)
    user = ast.parse(f"from dataclasses import replace\nfrom m import A\n{use}\n")
    assert _unset_fields({"m": module}, [module, user]) == unset


def test_every_defaulted_field_is_set():
    unset = _unset_fields(*_trees())
    dead, stale = sorted(unset - set(KEPT_FIELDS_SET)), sorted(set(KEPT_FIELDS_SET) - unset)
    assert not dead, f"no call in src/ or perfbench/ sets them; make them constants or add them to KEPT_FIELDS_SET: {dead}"
    assert not stale, f"KEPT_FIELDS_SET entries that are gone or now set: {stale}"


def _functions(node, prefix, in_class=False):
    """(qualified name, node, whether its first parameter is bound) of every
    function, method and lambda under `node`, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}.{child.name}", True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(child, "name", "<lambda>")
            decorators = (ast.unparse(d) for d in getattr(child, "decorator_list", []))
            yield f"{prefix}.{name}", child, in_class and "staticmethod" not in decorators
            yield from _functions(child, f"{prefix}.{name}")
        else:
            yield from _functions(child, prefix, in_class)


def _unread_params(modules):
    """Parameters of the functions of `modules` that their own body never loads."""
    unread = set()
    for module, tree in modules.items():
        for qualname, node, bound in _functions(tree, module):
            args = node.args
            params = ((args.posonlyargs + args.args)[1 if bound else 0:] + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a is not None])
            body = node.body if isinstance(node.body, list) else [node.body]
            loads = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {f"{qualname}.{a.arg}" for a in params if a.arg not in loads}
    return unread


UNREAD_MODULE = """
def f(a, b, *args, c=1, **kw):
    def g(d):
        return a
    return g, lambda e: c


class A:
    def m(self, x):
        return 0

    @staticmethod
    def s(y):
        return 0

    @classmethod
    def k(cls, z):
        return z
"""


def test_a_parameter_its_body_never_loads_is_unread():
    # a read inside a nested function counts for the outer one; self and cls
    # are exempt, a staticmethod's first parameter is not
    assert _unread_params({"m": ast.parse(UNREAD_MODULE)}) == {
        "m.f.b", "m.f.args", "m.f.kw", "m.f.g.d", "m.f.<lambda>.e", "m.A.m.x", "m.A.s.y"}


def test_every_parameter_is_read():
    unread = _unread_params(_trees()[0])
    dead, stale = sorted(unread - set(KEPT_UNREAD)), sorted(set(KEPT_UNREAD) - unread)
    assert not dead, f"their body never reads them; delete them or add them to KEPT_UNREAD: {dead}"
    assert not stale, f"KEPT_UNREAD entries that are gone or now read: {stale}"
