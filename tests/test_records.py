"""epsym's value types against frozen dataclasses, the differential oracle.

Each ``@record`` class gets a twin from ``dataclasses.make_dataclass``
over the same field names and defaults, ``frozen=True``.  On sample
instances the two must agree on ``repr``, ``hash``, ``==`` (including
``NotImplemented`` against another class), ``__match_args__``, the
errors on assignment and deletion, and the ``TypeError`` on missing or
extra constructor arguments.
"""

import dataclasses
import inspect
from fractions import Fraction
from itertools import product

import pytest

import epsym
from epsym.cumulants import CumulantSpec
from epsym.epsmat import EpsilonMatrix, Permutation, preset
from epsym.groups import (CoxeterRep, PermGroup, Representation, automorphism_group,
                          coxeter_rep, perm_representation, projection_pair_representation)
from epsym.indicator import AlgorithmTrace, Step
from epsym.partitions import Category, SetPartition, TwoRowPartition
from epsym.report import CheckReport, CheckResult, SuiteReport


def _samples():
    """Three instances per record class, the first two equal but distinct."""
    pi = SetPartition.of(4, [(1, 3), (2, 4)])
    sigma = SetPartition.of(2, [(1, 2)])
    first = Step(1, SetPartition.of(2, [(1, 2)]), 2, 3, sigma)
    steps = (first, Step(2, SetPartition.of(2, [(1,), (2,)]), l=1))
    ex_d = preset("ex-d")
    return {
        EpsilonMatrix: [ex_d, EpsilonMatrix(4, [list(r) for r in ex_d.entries]),
                        preset("comm", 3)],
        Permutation: [Permutation(3, (2, 1, 3)), Permutation(3, (2, 1, 3)),
                      Permutation.identity(3)],
        CumulantSpec: [CumulantSpec.semicircle(2), CumulantSpec.of([(0, 1), (0, 1)]),
                       CumulantSpec.of([(1, Fraction(1, 2))])],
        SetPartition: [pi, SetPartition.of(4, [(4, 2), (3, 1)]),
                       SetPartition.of(3, [(1,), (2, 3)])],
        TwoRowPartition: [TwoRowPartition.of(2, 2, [(1, 3), (2, 4)]),
                          TwoRowPartition(2, 2, pi), TwoRowPartition(1, 3, pi)],
        Step: [first, Step(1, SetPartition.of(2, [(1, 2)]), 2, 3, sigma), steps[1]],
        AlgorithmTrace: [AlgorithmTrace(pi, ex_d, Category.ALL, steps),
                         AlgorithmTrace(pi, preset("ex-d"), Category.ALL, steps),
                         AlgorithmTrace(pi, ex_d, Category.PAIR, steps[:1])],
        PermGroup: [automorphism_group(ex_d), automorphism_group(preset("ex-d")),
                    automorphism_group(preset("comm", 3))],
        CoxeterRep: [coxeter_rep(ex_d), coxeter_rep(preset("ex-d")),
                     coxeter_rep(preset("free", 3))],
        Representation: [projection_pair_representation(),
                         projection_pair_representation(),
                         perm_representation(Permutation(2, (2, 1)))],
        CheckResult: [CheckResult("magic", True), CheckResult("magic", True, ""),
                      CheckResult("R_eps", False, "u[1,1] and u[3,3] do not commute")],
        SuiteReport: [SuiteReport((CheckResult("magic", True),)),
                      SuiteReport((CheckResult("magic", True, ""),)), SuiteReport(())],
        CheckReport: [CheckReport(True, 3), CheckReport(True, 3, None),
                      CheckReport(False, 2, "word (1, 2)")],
    }


SAMPLES = _samples()


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


def twin(cls: type) -> type:
    """The frozen dataclass over ``cls``'s constructor parameters, which
    must be its fields in order; an unhashable record gets an unhashable twin."""
    params = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in params) == cls.__match_args__
    spec = [(p.name, object) if p.default is p.empty else
            (p.name, object, dataclasses.field(default=p.default)) for p in params]
    namespace = {"__hash__": None} if cls.__hash__ is None else {}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def test_the_samples_cover_every_record():
    records = {obj for module in (epsym.epsmat, epsym.partitions, epsym.cumulants,
                                  epsym.tensormaps, epsym.indicator, epsym.groups,
                                  epsym.report)
               for obj in vars(module).values()
               if isinstance(obj, type) and "__match_args__" in vars(obj)}
    assert records == set(SAMPLES) and len(records) == 13
    assert not any(dataclasses.is_dataclass(cls) for cls in records)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_matches_its_frozen_dataclass_twin(cls):
    dc = twin(cls)
    objs = SAMPLES[cls]
    twins = [dc(*_fields(obj)) for obj in objs]
    assert cls.__match_args__ == dc.__match_args__
    for obj, tw in zip(objs, twins):
        assert repr(obj) == repr(tw)
        if cls.__hash__ is None:
            for x in (obj, tw):
                with pytest.raises(TypeError, match=f"unhashable type: '{cls.__name__}'"):
                    hash(x)
        else:
            assert hash(obj) == hash(tw) == hash(_fields(obj))
    assert objs[0] == objs[1] and objs[0] is not objs[1] and objs[0] != objs[2]
    assert [a == b for a, b in product(objs, repeat=2)] == \
        [a == b for a, b in product(twins, repeat=2)]
    assert [a != b for a, b in product(objs, repeat=2)] == \
        [a != b for a, b in product(twins, repeat=2)]
    other = next(SAMPLES[c][0] for c in SAMPLES if c is not cls)
    for obj, tw in zip(objs, twins):
        assert obj.__eq__(other) is NotImplemented and tw.__eq__(other) is NotImplemented
        assert obj.__eq__(tw) is NotImplemented and tw.__eq__(obj) is NotImplemented
        assert obj != tw and tw != obj and obj != other


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_is_frozen_like_its_twin(cls):
    obj = SAMPLES[cls][0]
    tw = twin(cls)(*_fields(obj))
    for name in (cls.__match_args__[0], "not_a_field"):
        for act in (lambda x: setattr(x, name, None), lambda x: delattr(x, name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as ours:
                act(obj)
            with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
                act(tw)
            assert str(ours.value) == str(theirs.value)
    assert _fields(obj) == _fields(tw)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_constructor_refuses_missing_and_extra_arguments(cls):
    values = _fields(SAMPLES[cls][0])
    for build in (cls, twin(cls)):
        assert build(*values) == build(*values)
        with pytest.raises(TypeError):
            build()
        with pytest.raises(TypeError):
            build(*values, None)
        with pytest.raises(TypeError):
            build(*values, not_a_field=None)
        with pytest.raises(TypeError):
            build(values[0], **{cls.__match_args__[0]: values[0]})
