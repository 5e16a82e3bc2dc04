"""The value types built on every unfolding and outcome step are slotted
dataclasses, not frozen ones: a frozen dataclass sets each field through
``object.__setattr__``, which costs several times a plain slot store.  No
instance is assigned after construction, so each is still a value:
equality is field-wise and class-sensitive, equal instances hash equal,
and each hash and ``repr`` is the one these types always had."""

from __future__ import annotations

import dataclasses

import pytest

from rdmacheck.checker import Outcome
from rdmacheck.events import Event, PlainExecution, Stamp, SubEvent
from rdmacheck.lang import Call, Carried, LetF, Stop, Val
from rdmacheck.stamps import GF
from rdmacheck.values import HashVal


def cont(v):
    return Val(v)


# Per class, a builder of one instance; two calls build equal, distinct ones.
BUILD = {
    Event: lambda: Event(1, 0, "m", ("x",), 1),
    Stamp: lambda: Stamp("GF", 2),
    SubEvent: lambda: SubEvent(Event(1, 0, "m", ("x",), 1), Stamp("aCR")),
    Val: lambda: Val(1),
    Call: lambda: Call("m", ("x",)),
    LetF: lambda: LetF(Call("m", ()), cont),
    Stop: Stop,
    Carried: lambda: Carried(("x", 1)),
    Outcome: lambda: Outcome((1, 2), frozenset({(("x", 1), 1)})),
    HashVal: lambda: HashVal((1, 2)),
}


@pytest.mark.parametrize("cls", BUILD, ids=lambda c: c.__name__)
def test_slotted_not_frozen_and_a_value(cls):
    a, b = BUILD[cls](), BUILD[cls]()
    assert "__slots__" in vars(cls) and not hasattr(a, "__dict__")
    assert not cls.__dataclass_params__.frozen
    assert a is not b and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("cls", BUILD, ids=lambda c: c.__name__)
def test_each_hash_is_the_field_tuples(cls):
    """``Event`` and ``SubEvent`` hash their fields once, at construction;
    the others hash them on each call, as a frozen dataclass does."""
    x = BUILD[cls]()
    fields = tuple(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare)
    assert hash(x) == hash(fields)


def test_plain_execution_keeps_a_dict_for_its_cached_po():
    g = PlainExecution((Event(1, 0, "m", (), 0), Event(1, 1, "m", (), 0)))
    assert not PlainExecution.__dataclass_params__.frozen
    assert g.po == {g.events} and "po" in vars(g)
    assert g == PlainExecution(g.events) and hash(g) == hash((g.events,))


def test_equality_is_class_sensitive():
    e = Event(1, 0, "m", ("x",), 1)
    assert Val(1) != Carried(1) and hash(Val(1)) == hash(Carried(1))
    assert e != (1, 0, "m", ("x",), 1) and e != Event(1, 0, "m", ("x",), 2)
    assert Stamp("GF", 2) != Stamp("GF", None) and Stop() == Stop()


def test_repr_is_unchanged():
    assert repr(Event(1, 0, "m", ("x",), 1)) == "e1.0:m(x)=1"
    assert repr(GF(2)) == "GF(2)" and repr(Stamp("aCR")) == "aCR"
    assert repr(SubEvent(Event(1, 0, "m", (), 1), GF(2))) == "<e1.0:m()=1,GF(2)>"
    assert repr(Outcome((1, 2))) == "Outcome(1, 2)"
    assert repr(Outcome((1,), frozenset({(("x", 1), 1)}))) == "Outcome(1,) [(('x', 1), 1)]"
    assert repr(Val(1)) == "Val(value=1)" and repr(Carried("p")) == "Carried(place='p')"
    assert repr(HashVal((1, 2))) == "h(1, 2)"
