"""Package-wide design guards, each keeping one rule of the design: all but
the last read the `ast` of every module of the package, parsed once (the
options guard the benchmark's modules too), and the last runs the CLI in a
fresh interpreter."""

import ast
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import finkar

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src/finkar"


@lru_cache(maxsize=None)
def _modules() -> tuple[tuple[str, ast.Module], ...]:
    """(module name, tree) for each file of the package, in name order."""
    return tuple((path.stem, ast.parse(path.read_text(), str(path)))
                 for path in sorted(PACKAGE.glob("*.py")))


# ---------------------------------------------------------------------------
# rank arithmetic

# The only functions outside finset allowed rank arithmetic: the hom-set
# bijection, and a cardinal (|Fix phi| ** power).
RANK_ARITHMETIC = {("statemonad", "transpose_up"),
                   ("statemonad", "transpose_down"),
                   ("algebras", "splitting_condition")}


def _is_sum(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)


def _packs(node) -> bool:
    """Whether a node packs ranks by hand: a sum with a product operand
    (a * n + b), or a subscript indexed by a sum (table[w + c])."""
    if isinstance(node, ast.Subscript):
        return _is_sum(node.slice)
    return _is_sum(node) and any(
        isinstance(o, ast.BinOp) and isinstance(o.op, ast.Mult)
        for o in (node.left, node.right))


def test_only_the_transposes_do_rank_arithmetic():
    """Rank arithmetic lives in finset: in every other module of the
    package, no function but the transposes and the cardinal count of
    RANK_ARITHMETIC (and no module-level statement) uses //, %, ** or
    divmod, pack or digits, builds a map from a rank function (an `fn=`
    argument), or packs ranks by hand (a sum with a product operand, or a
    subscript indexed by a sum).  Every other map is a composite of
    finset's kernels (projections, pairing, lift, rows) and the
    transposes."""
    banned = {"divmod", "pack", "digits"}
    modules = [(m, tree) for m, tree in _modules() if m != "finset"]
    found, defined = [], set()
    for module, tree in modules:
        for stmt in tree.body:
            name = (module, getattr(stmt, "name", type(stmt).__name__))
            defined.add(name)
            if name in RANK_ARITHMETIC:
                continue
            for node in ast.walk(stmt):
                if (isinstance(getattr(node, "op", None),
                               (ast.FloorDiv, ast.Mod, ast.Pow))
                        or (isinstance(node, ast.Name) and node.id in banned)
                        or (isinstance(node, ast.Attribute)
                            and node.attr in banned)
                        or (isinstance(node, ast.alias)
                            and node.name in banned)
                        or (isinstance(node, ast.keyword)
                            and node.arg == "fn")
                        or _packs(node)):
                    found.append(f"{name[0]}.{name[1]}:{node.lineno}")
    assert found == []
    assert {"algebras", "policy", "equivalence", "statemonad", "cli"} <= {
        m for m, _ in modules}
    assert RANK_ARITHMETIC | {("statemonad", m) for m in (
        "eta", "eps", "mu", "nu")} <= defined


# ---------------------------------------------------------------------------
# unread parameters

# The only functions allowed a parameter they never read: the interface
# stubs of Adjunction, the immutable object's __setattr__ (its signature
# is object's), and coretraction_of_split, whose leading ctx the split
# algebra determines but which stays for callers that pass the arguments
# by position.
UNREAD_PARAMETERS = {("statemonad", f"Adjunction.{m}") for m in (
    "left_obj", "right_obj", "left_mor", "right_mor", "unit", "counit")} | {
    ("finset", "FinSetObj.__setattr__"), ("algebras", "coretraction_of_split")}


def _unread_parameters(tree, module):
    """(module, qualified name, parameter) for each parameter of a function
    or lambda that its body never reads.  A method's receiver is exempt."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = ".".join(scope + [getattr(child, "name", "<lambda>")])
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [a.vararg, a.kwarg] if p is not None]
                if in_class and params and params[0] in ("self", "cls"):
                    params = params[1:]
                body = child.body if isinstance(child.body, list) \
                    else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                found.extend((module, name, p) for p in params
                             if p not in read)
                visit(child, scope + [name.rsplit(".", 1)[-1]], False)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], True)
            else:
                visit(child, scope, in_class)

    visit(tree, [], False)
    return found


def test_every_parameter_is_read():
    """No function in the package takes a parameter its body never reads,
    but the allow-listed ones; a parameter that does nothing reads as an
    option that does something.  The check itself catches an unread
    parameter, an unread keyword-only one and one that is only assigned."""
    found, defined = [], set()
    for stem, tree in _modules():
        for module, name, param in _unread_parameters(tree, stem):
            defined.add((module, name))
            if (module, name) not in UNREAD_PARAMETERS:
                found.append(f"{module}.{name}({param})")
    assert found == []
    assert defined == UNREAD_PARAMETERS
    probe = ast.parse("def f(a, b, *, c=1):\n    b = a\n    return a\n"
                      "class C:\n    def m(self, x):\n        return 1\n")
    assert _unread_parameters(probe, "m") == [
        ("m", "f", "b"), ("m", "f", "c"), ("m", "C.m", "x")]


# ---------------------------------------------------------------------------
# reachability

# The only top-level definitions that cli.main does not reach, each with a
# file outside the package that names it: the benchmark's entry points,
# and the arrow parts of the equivalence, which only tests call.
REACHED_ELSEWHERE = {
    "iso_witness_i_prime": "perfbench/workloads.py",
    "functor_k": "perfbench/workloads.py",
    "search_sections": "perfbench/workloads.py",
    "SearchBoundExceeded": "perfbench/workloads.py",
    "make_witness": "perfbench/workloads.py",
    "coretraction_of_split": "perfbench/workloads.py",
    "functor_h": "perfbench/workloads.py",
    "algebra_hom_check": "perfbench/workloads.py",
    "functor_h_mor": "perfbench/workloads.py",
    "functor_k_mor": "perfbench/workloads.py",
    # ROADMAP "The equivalence on arrows": the arrow parts become a verdict
    "functor_r_mor": "tests/test_equivalence.py",
    "functor_l_mor": "tests/test_equivalence.py",
    "dual_r_mor": "tests/test_equivalence.py",
    "dual_l_mor": "tests/test_equivalence.py",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _key(module: str, name: str) -> tuple:
    """What a read of `name` in `module` resolves to: a private name (a
    leading underscore, not a dunder) only within its own module, any
    other name in every module."""
    private = name.startswith("_") and not _is_dunder(name)
    return (module if private else None, name)


def _unreached(modules, roots) -> list[tuple[str, str, int]]:
    """(module, name, line) of each top-level definition, and each method
    of a reached class (named `Class.method`), that no walk reaches.

    The walks start at the public definitions named in `roots` and at each
    module-level statement that is neither a definition nor an import.  A
    walk goes from a node to every top-level definition whose name the
    node reads as a name or an attribute.  A reached class walks its
    bases, decorators, class-level statements and dunder methods; each
    other method is walked once a walk reads its name as an attribute.
    Names resolve by `_key`."""
    defs, todo = {}, []
    for module, tree in modules:
        for stmt in tree.body:
            if isinstance(stmt, _DEFINITIONS):
                defs.setdefault(_key(module, stmt.name), []).append(
                    (module, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                todo.append((module, stmt))
    reached, read, waiting = set(), set(), {}

    def reach(key):
        if key in defs and key not in reached:
            reached.add(key)
            for module, stmt in defs[key]:
                if isinstance(stmt, ast.ClassDef):
                    enter(module, stmt)
                else:
                    todo.append((module, stmt))

    def enter(module, cls):
        todo.extend((module, node) for node in
                    cls.bases + cls.keywords + cls.decorator_list)
        for stmt in cls.body:
            if isinstance(stmt, _FUNCTIONS) and not _is_dunder(stmt.name):
                key = _key(module, stmt.name)
                if key in read:
                    todo.append((module, stmt))
                else:
                    waiting.setdefault(key, []).append((module, cls, stmt))
            else:
                todo.append((module, stmt))

    def read_attribute(key):
        read.add(key)
        todo.extend((module, stmt)
                    for module, _, stmt in waiting.pop(key, ()))

    for name in roots:
        reach(_key("", name))
    while todo:
        module, node = todo.pop()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                reach(_key(module, n.id))
            elif isinstance(n, ast.Attribute):
                reach(_key(module, n.attr))
                read_attribute(_key(module, n.attr))
    return sorted([(module, stmt.name, stmt.lineno)
                   for key, found in defs.items() if key not in reached
                   for module, stmt in found]
                  + [(module, f"{cls.name}.{stmt.name}", stmt.lineno)
                     for found in waiting.values()
                     for module, cls, stmt in found])


def test_every_definition_has_a_caller():
    """Every top-level definition of the package, and every method of one,
    is reached by name from cli.main or a module body, or is on
    REACHED_ELSEWHERE.  An entry there is stale, and fails, when cli.main
    reaches it, when the package no longer defines it, or when its caller
    no longer names it; code that only re-spells reached code leaves the
    package.  The check itself catches a definition that nothing calls, a
    method that nothing reads, and the uncalled one of two private
    definitions with the same name in two modules, and it reaches the
    dunder methods of a reached class with the class."""
    unreached = _unreached(_modules(), {"main", *REACHED_ELSEWHERE})
    assert [f"{m}.{name}:{line}" for m, name, line in unreached] == []
    from_main = {name for _, name, _ in _unreached(_modules(), {"main"})}
    assert sorted(set(REACHED_ELSEWHERE) - from_main) == []
    stale = [f"{name}: {caller}"
             for name, caller in REACHED_ELSEWHERE.items()
             if not re.search(rf"\b{name}\b", (ROOT / caller).read_text())]
    assert stale == []
    probe = ast.parse("X = f\ndef main():\n    return g.h()\n"
                      "def f(): pass\ndef h(): pass\ndef k(): pass\n")
    assert _unreached([("m", probe)], {"main"}) == [("m", "k", 6)]
    a = ast.parse("def main():\n    return C().used() + _helper() + "
                  "b.public()\nclass C:\n    def __repr__(self): pass\n"
                  "    def used(self): pass\n    def unused(self): pass\n"
                  "def _helper(): pass\n")
    b = ast.parse("def public(): pass\ndef _helper(): pass\n")
    assert _unreached([("a", a), ("b", b)], {"main"}) == [
        ("a", "C.unused", 6), ("b", "_helper", 2)]


def test_every_export_is_reached_from_main():
    """Every name in `finkar.__all__` is a definition of the package that
    cli.main reaches, so an export that only tests call cannot come
    back."""
    exported = set(finkar.__all__)
    defined = {stmt.name for _, tree in _modules() for stmt in tree.body
               if isinstance(stmt, _DEFINITIONS)}
    unreached = {name for _, name, _ in _unreached(_modules(), {"main"})}
    assert sorted(exported - defined) == []
    assert sorted(exported & unreached) == []


# ---------------------------------------------------------------------------
# the element boundary

# The modules whose entry points tests/test_finset.py's boundary test must
# cover: each names a wrongly typed argument in a TypeError.
BOUNDARY_MODULES = ("policy", "equivalence")


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether a class's constructor only stores its arguments on self
    (`self.a, self.b = a, b`), so that no argument can fail there."""
    def stores(stmt):
        return isinstance(stmt, ast.Assign) and all(
            isinstance(t, ast.Attribute)
            and getattr(t.value, "id", None) == "self"
            for target in stmt.targets
            for t in getattr(target, "elts", [target])) and all(
            isinstance(v, ast.Name)
            for v in getattr(stmt.value, "elts", [stmt.value]))

    return all(stores(stmt) for f in cls.body
               if isinstance(f, _FUNCTIONS) and f.name == "__init__"
               for stmt in f.body)


def _entry_points(modules, roots, within) -> set[str]:
    """The public functions, and the classes but records, of the modules
    named in `within` that a walk from `roots` reaches (`_unreached`)."""
    unreached = {(m, name) for m, name, _ in _unreached(modules, roots)}
    return {stmt.name for m, tree in modules if m in within
            for stmt in tree.body
            if isinstance(stmt, _DEFINITIONS)
            and not stmt.name.startswith("_")
            and (m, stmt.name) not in unreached
            and not (isinstance(stmt, ast.ClassDef) and _is_record(stmt))}


def test_every_entry_point_main_reaches_has_a_boundary_case():
    """Every public function and every constructor but a record's, of the
    modules in BOUNDARY_MODULES, that cli.main reaches has a case in
    `test_kernel_entry_points_refuse_a_wrong_argument_by_name`, so a new
    entry point cannot answer a wrongly typed argument with a bare
    AttributeError unseen.  The check itself skips a record and an
    unreached or private definition, and keeps a class that validates."""
    from test_finset import BOUNDARY_IDS
    covered = {case.rsplit("-", 1)[0] for case in BOUNDARY_IDS}
    points = _entry_points(_modules(), {"main"}, BOUNDARY_MODULES)
    assert sorted(points - covered) == []
    assert {"check_compliance", "dual_roundtrip", "Policy"} <= points
    probe = ast.parse(
        "def main():\n    return R(), V(), f(), _g()\n"
        "class R:\n    def __init__(self, a, b):\n"
        "        self.a, self.b = a, b\n"
        "class V:\n    def __init__(self, a):\n"
        "        self.a = a.b\n"
        "def f(): pass\ndef _g(): pass\ndef unused(): pass\n")
    assert _entry_points([("m", probe)], {"main"}, ("m",)) == {
        "main", "V", "f"}


# ---------------------------------------------------------------------------
# records


def _twin_classes(modules) -> list[list[str]]:
    """`module.Class` for each group of two or more top-level classes
    with the same `__slots__` and the same `__init__` body."""
    groups = {}
    for m, tree in modules:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            slots = [ast.dump(stmt.value) for stmt in cls.body
                     if isinstance(stmt, ast.Assign)
                     and any(getattr(t, "id", None) == "__slots__"
                             for t in stmt.targets)]
            inits = [[ast.dump(stmt) for stmt in f.body] for f in cls.body
                     if isinstance(f, _FUNCTIONS) and f.name == "__init__"]
            if slots and inits:
                key = (tuple(slots), tuple(inits[0]))
                groups.setdefault(key, []).append(f"{m}.{cls.name}")
    return sorted(names for names in groups.values() if len(names) > 1)


def test_no_two_classes_are_twins():
    """No two classes of the package have the same `__slots__` and the
    same `__init__` body: one record serves every use of its shape, as
    `equivalence.KaroubiObject` serves both sides of the equivalence.
    The check itself catches a twin pair and keeps a class whose slots or
    constructor differ."""
    assert _twin_classes(_modules()) == []
    def record(name, slots, value):
        return (f"class {name}:\n    __slots__ = {slots}\n"
                "    def __init__(self, ctx, carrier):\n"
                f"        self.ctx, self.carrier = ctx, {value}\n")

    probe = ast.parse(
        record("KarmObject", '("ctx", "carrier")', "carrier")
        + record("KarcObject", '("ctx", "carrier")', "carrier")
        + record("Wider", '("ctx", "carrier", "n")', "carrier")
        + record("Checked", '("ctx", "carrier")', "carrier.card"))
    assert _twin_classes([("m", probe)]) == [["m.KarmObject",
                                              "m.KarcObject"]]


# ---------------------------------------------------------------------------
# options

# The only options that no call in the package or the benchmark sets, each
# with the file that sets it another way: the benchmark's tracer wraps
# Morphism.__init__ and forwards its `fn` to the original.
OPTIONS_SET_ELSEWHERE = {("finset", "Morphism.__init__", "fn"):
                         "perfbench/tracer.py"}


def _options(module, tree) -> list[tuple[str, str, str, str, int | None]]:
    """(module, qualified name, parameter, called name, place) for each
    parameter with a default of a top-level function, or of a method of a
    top-level class but a dunder other than `__init__`.  A constructor is
    called by its class's name, a method by its own, and the place of a
    parameter is its index among the arguments a call passes by position
    (a method's receiver passes none; None for a keyword-only one)."""
    found = []

    def add(qual, called, fn, receiver):
        a = fn.args
        places = a.posonlyargs + a.args
        first = len(places) - len(a.defaults)
        found.extend((module, qual, p.arg, called, k - receiver)
                     for k, p in enumerate(places) if k >= first)
        found.extend((module, qual, p.arg, called, None)
                     for p, d in zip(a.kwonlyargs, a.kw_defaults)
                     if d is not None)

    for stmt in tree.body:
        if isinstance(stmt, _FUNCTIONS):
            add(stmt.name, stmt.name, stmt, 0)
        elif isinstance(stmt, ast.ClassDef):
            for fn in stmt.body:
                if isinstance(fn, _FUNCTIONS) and (
                        fn.name == "__init__" or not _is_dunder(fn.name)):
                    add(f"{stmt.name}.{fn.name}", stmt.name
                        if fn.name == "__init__" else fn.name, fn, 1)
    return found


def _unset_options(modules, callers, allowed) -> list[str]:
    """`module.name(parameter)` for each option of `modules` (by
    `_options`) that no call in the trees `callers` sets, but those in
    `allowed`, then `stale module.name(parameter)` for each entry of
    `allowed` that is not such an option.  A call sets a parameter it
    names, or whose place it fills by position (one with a `*iterable`
    may fill any place); a `**mapping` sets nothing.  A call resolves by
    the name it calls, a function's or an attribute's."""
    named, filled = set(), {}
    for tree in callers:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            called = getattr(f, "id", None) or getattr(f, "attr", None)
            named.update((called, k.arg) for k in node.keywords if k.arg)
            places = (float("inf") if any(isinstance(a, ast.Starred)
                                          for a in node.args)
                      else len(node.args))
            filled[called] = max(filled.get(called, 0), places)
    unset = {(module, qual, param)
             for module, tree in modules
             for module, qual, param, called, place in _options(module, tree)
             if (called, param) not in named
             and (place is None or filled.get(called, 0) <= place)}
    return ([f"{m}.{q}({p})" for m, q, p in sorted(unset - allowed)]
            + [f"stale {m}.{q}({p})" for m, q, p in sorted(allowed - unset)])


def test_every_option_has_a_caller():
    """Every parameter with a default, of a function or a constructor of
    the package, is set by some call in the package or the benchmark, or
    is on OPTIONS_SET_ELSEWHERE: an option that only tests set is a
    constant.  An entry there is stale, and fails, when a call sets it,
    when the package no longer has it, or when its file no longer passes
    it on.  The check itself catches an option only a test module sets,
    and a stale entry."""
    callers = [tree for _, tree in _modules()] + [
        ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unset_options(_modules(), callers,
                          set(OPTIONS_SET_ELSEWHERE)) == []
    stale = [f"{param}: {caller}" for (_, _, param), caller
             in OPTIONS_SET_ELSEWHERE.items()
             if not re.search(rf"\b{param}={param}\b",
                              (ROOT / caller).read_text())]
    assert stale == []
    package = ast.parse("def f(a, b=1, *, c=2):\n    return a\n"
                        "class C:\n    def __init__(self, x=0):\n"
                        "        pass\n    def m(self, y=0):\n"
                        "        pass\n")
    src = ast.parse("f(1, c=3)\nC(*xs)\nC().m(**kw)\n")
    test = ast.parse("f(1, 2)\nC().m(y=1)\n")
    assert _unset_options([("p", package)], [src], {("p", "f", "c")}) == [
        "p.C.m(y)", "p.f(b)", "stale p.f(c)"]
    assert _unset_options([("p", package)], [src, test], set()) == []


# ---------------------------------------------------------------------------
# the morphism representation


def test_only_finset_reads_a_morphism_representation():
    """A map holds a checked table or an evaluator, and only finset knows
    which: no other module of the package reads `._table` or `._at`, so
    every map outside finset is read through `at`, `table` or a call."""
    found = [f"{m}:{node.lineno}" for m, tree in _modules() if m != "finset"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("_table", "_at")]
    assert found == []
    assert any(isinstance(node, ast.Attribute) and node.attr == "_table"
               for m, tree in _modules() if m == "finset"
               for node in ast.walk(tree))


def _new_calls(tree) -> list[tuple[str, ast.Call]]:
    """(qualified name of the enclosing function, call) for each call of
    a `__new__`, such as `cls.__new__(cls)` or `object.__new__(C)`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__"):
                found.append((".".join(scope), child))
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_morphism_lazy_skips_the_table_constructor():
    """finset makes a Morphism without `Morphism.__init__` only in
    `Morphism.lazy`, which holds an evaluator and no table: every table
    passes through `__init__`, where the benchmark's tracer
    (`finset.tables_built`) and the `table_sizes` fixture count it by
    patching.  The other `__new__` calls build interned objects
    (FinSetObj and its subclasses); no other module calls `__new__`."""
    objects = {"FinSetObj", "Atom", "Prod", "Exp"}
    calls = {m: _new_calls(tree) for m, tree in _modules()}
    assert [m for m, found in calls.items() if found and m != "finset"] == []
    bypass = [(scope, node.lineno) for scope, node in calls["finset"]
              if scope.split(".")[0] not in objects]
    assert [scope for scope, _ in bypass] == ["Morphism.lazy"]
    lazy = next(node for node in ast.walk(dict(_modules())["finset"])
                if isinstance(node, ast.FunctionDef) and node.name == "lazy")
    stores = {(t.attr, v.value if isinstance(v, ast.Constant) else v.id)
              for stmt in lazy.body if isinstance(stmt, ast.Assign)
              and isinstance(stmt.targets[0], ast.Tuple)
              for t, v in zip(stmt.targets[0].elts, stmt.value.elts)}
    assert ("_table", None) in stores and ("_at", "at") in stores
    probe = ast.parse("class M:\n    def f(cls):\n        return "
                      "cls.__new__(cls)\ndef g():\n    object.__new__(M)\n")
    assert [s for s, _ in _new_calls(probe)] == ["M.f", "g"]


# ---------------------------------------------------------------------------
# start-up


def test_no_module_imports_dataclasses():
    """The records are plain classes with slots: importing `dataclasses`
    loads `inspect`, `ast`, `dis` and `tokenize`, and it and the
    decoration cost every CLI process milliseconds of start-up."""
    found = [f"{m}:{node.lineno}" for m, tree in _modules()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Import) and any(
                 a.name.split(".")[0] == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "dataclasses")]
    assert found == []


def test_a_policy_only_run_loads_only_what_it_runs(tmp_path):
    """`verify-all` on a spec of policy checks, in a fresh interpreter,
    loads neither `dataclasses` nor `inspect`, nor the idempotents,
    algebras and equivalence layers, which only other commands run.  The
    modules are diffed against those loaded before finkar, so site hooks
    do not count."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from finkar.cli import main\n"
        f"code = main(['verify-all', {str(ROOT / 'fixtures/policies.json')!r},"
        f" '--out', {str(tmp_path / 'report.json')!r}])\n"
        "print(code, sorted(set(sys.modules) - before))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    r = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    code, loaded = r.stdout.split(" ", 1)
    assert code == "0"
    loaded = set(ast.literal_eval(loaded))
    assert {"finkar.cli", "finkar.policy"} <= loaded
    assert loaded & {"dataclasses", "inspect", "finkar.idempotents",
                     "finkar.algebras", "finkar.equivalence"} == set()
