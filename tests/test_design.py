"""Package-wide design guards: each reads the `ast` of every module of the
package, parsed once, and keeps one rule of the design."""

import ast
import re
from functools import lru_cache
from pathlib import Path

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
    divmod, pack, digits or from_fn, or packs ranks by hand (a sum with a
    product operand, or a subscript indexed by a sum).  Every other map is
    a composite of finset's kernels (projections, pairing, lift, rows) and
    the transposes."""
    banned = {"divmod", "pack", "digits", "from_fn"}
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
# file outside the package that names it: the benchmark's entry points
# (tracer.py probes from_fn by name), and the arrow parts of the
# equivalence, which only tests call.
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
    "from_fn": "perfbench/tracer.py",
    # ROADMAP item 2: the arrow parts become a verdict
    "functor_r_mor": "tests/test_equivalence.py",
    "functor_l_mor": "tests/test_equivalence.py",
    "dual_r_mor": "tests/test_equivalence.py",
    "dual_l_mor": "tests/test_equivalence.py",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreached(modules, roots) -> list[tuple[str, str, int]]:
    """(module, name, line) of each top-level definition that no walk
    reaches.  The walks start at the definitions named in `roots` and at
    each module-level statement that is neither a definition nor an
    import.  A walk goes from a node to every top-level definition, in any
    module, whose name the node reads as a name or an attribute."""
    defs, todo = {}, []
    for module, tree in modules:
        for stmt in tree.body:
            if isinstance(stmt, _DEFINITIONS):
                defs.setdefault(stmt.name, []).append((module, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                todo.append(stmt)
    reached = set()

    def reach(name):
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(stmt for _, stmt in defs[name])

    for name in roots:
        reach(name)
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name):
                reach(node.id)
            elif isinstance(node, ast.Attribute):
                reach(node.attr)
    return sorted((module, stmt.name, stmt.lineno)
                  for name, found in defs.items() if name not in reached
                  for module, stmt in found)


def test_every_definition_has_a_caller():
    """Every top-level definition of the package is reached by name from
    cli.main or a module body, or is on REACHED_ELSEWHERE.  An entry there
    is stale, and fails, when cli.main reaches it, when the package no
    longer defines it, or when its caller no longer names it; code that
    only re-spells reached code leaves the package.  The check itself
    catches a definition that nothing calls."""
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
