"""The forms of warel's value classes.

A class is a dataclass only where a caller rebuilds it with
``dataclasses.replace``; every other value class is a ``NamedTuple``, a
plain class that refuses assignment, or a plain mutable class.  These
tests pin what callers read of each form.
"""

import dataclasses
import inspect
import pkgutil
from importlib import import_module

import pytest

import warel
from test_composition_reference import network
from warel.core import AtomStructure, CheckResult, classify
from warel.fileformat import Report
from warel.labelling import LabellingSystem
from warel.laws import Law, Var
from warel.relset import Universe
from warel.suitable import SuitableStructure
from warel.trails import BoundedUniverse


def test_the_dataclasses_are_the_replaced_classes():
    found = set()
    for info in pkgutil.iter_modules(warel.__path__):
        module = import_module(f"warel.{info.name}")
        found |= {
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
        }
    assert found == {Law, SuitableStructure, BoundedUniverse}


def test_immutable_values_refuse_assignment(a2):
    net = network(a2, {(0, 0): 0})
    rep = classify(a2)
    for value, name in (
        (a2, "identity"), (rep, "is_wa"), (net, "label"), (Universe(2), "size"),
        (Var("x"), "name"), (CheckResult("c", True), "holds"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    # Cached properties still write the instance dict.
    assert net.field == frozenset({0}) and "field" in vars(net)
    assert rep.failures == () and "failures" in vars(rep)
    assert a2.full == 0b11 and "full" in vars(a2)


def test_atom_structure_equality_ignores_names(a2):
    plain = AtomStructure(a2.atom_count, a2.identity, a2.converse, a2.cycles)
    assert plain.names == () and a2.names == ("e", "d")
    assert plain == a2 and hash(plain) == hash(a2)
    assert AtomStructure(a2.atom_count, 0b10, a2.converse, a2.cycles) != a2


def test_classreport_repr_shows_the_verdicts(pentagon):
    assert repr(classify(pentagon)) == "ClassReport(is_wa=True, is_sa=True, is_ra=True)"


def test_mutable_values_share_no_containers(a2):
    r1, r2 = Report(), Report()
    r1.info("k", 1)
    assert r2.lines == [] and r1.lines is not r2.lines
    s1, s2 = LabellingSystem(a2), LabellingSystem(a2, signatures={})
    assert s2.signatures == {} and s1.signatures is None
    for name in ("stage", "label", "out", "inn"):
        assert getattr(s1, name) is not getattr(s2, name), name
    s1._add_label(0, 0, 0)
    assert s2.label == {} and s2.out == {} and s2.inn == {}
