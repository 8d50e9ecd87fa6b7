import sys

import pytest

from finkar import finset, report
from finkar.finset import Atom, Morphism, Prod
from finkar.policy import MealyMachine, MooreMachine, Policy
from finkar.statemonad import StateContext


@pytest.fixture
def ctx2():
    """|S| = 2 state context with default knobs."""
    return StateContext(Atom("S", 2))


@pytest.fixture
def ctx1():
    return StateContext(Atom("S", 1))


@pytest.fixture
def e1_moore(ctx2):
    """Two public states reading out the two states; steps follow the letter."""
    b = Atom("B", 2)
    readout = Morphism(b, ctx2.state_space, table=[0, 1])
    step = Morphism(Prod(b, ctx2.state_space), b, table=[0, 1, 0, 1])
    return MooreMachine(ctx=ctx2, state_set=b, readout=readout, step=step)


@pytest.fixture
def e2_policy(ctx2):
    """The 8-element projector induced by the e1 machine."""
    g = Atom("G", 4)
    table = [2, 6, 2, 6, 2, 2, 6, 6]
    mapping = Morphism(Prod(ctx2.state_space, g), Prod(ctx2.state_space, g),
                       table=table)
    machine = MealyMachine(ctx=ctx2, in_set=g, out_set=g, mapping=mapping)
    return Policy(machine=machine)


@pytest.fixture
def table_sizes(monkeypatch):
    """The domain sizes of the tables built while the test runs: passed to
    `Morphism.__init__`, or materialized through `table`."""
    sizes = []
    init, table = Morphism.__init__, Morphism.table

    def spy_init(self, dom, cod, table=None, fn=None):
        init(self, dom, cod, table=table, fn=fn)
        if table is not None:
            sizes.append(dom.card)

    def spy_table(self):
        if self._table is None:
            sizes.append(self.dom.card)
        return table.fget(self)

    monkeypatch.setattr(Morphism, "__init__", spy_init)
    monkeypatch.setattr(Morphism, "table", property(spy_table))
    return sizes


def _spy(monkeypatch, fn, record):
    """`record(*args, **kwargs)` of each call of `fn` made while the test
    runs, in every loaded module of the package that imports it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "finkar"
                and getattr(module, fn.__name__, None) is fn):
            monkeypatch.setattr(module, fn.__name__, spy)
    return calls


@pytest.fixture
def combine_calls(monkeypatch):
    """The check names of the `report.combine` calls made while the test
    runs."""
    return _spy(monkeypatch, report.combine, lambda check, subs, **_: check)


@pytest.fixture
def compose_calls(monkeypatch):
    """The (f, g) of the `finset.compose` calls made while the test runs."""
    return _spy(monkeypatch, finset.compose, lambda f, g: (f, g))


@pytest.fixture
def equal_mor_checks(monkeypatch):
    """The check names of the `finset.equal_mor` calls made while the test
    runs."""
    return _spy(monkeypatch, finset.equal_mor,
                lambda f, g, config=None, check="equal": check)
