"""The record classes against their dataclass references (`conftest`): the
same constructor, repr, equality and hashing, a TypeError from hashing a
mutable record, and an AttributeError from assigning to a frozen one."""

import os
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings

from amalgam import corpus, serialize
from amalgam.cli import parse_args
from amalgam.decide import decide
from amalgam.diagram import (
    Collision,
    FinInjDiagram,
    ZigzagWord,
    analyze_shape,
    has_cocone,
)
from amalgam.fincat import FinCategory, Morphism
from amalgam.gen import random_diagram_over_poset
from amalgam.poset import DecompositionNode, ForestCertificate, NonForestWitness
from conftest import (
    REFERENCE_RECORDS,
    as_reference,
    category_from_poset,
    corpus_names,
    dags,
    record_fields,
)
from oracles import collision_word

FROZEN = {ZigzagWord, Collision, Morphism, DecompositionNode, ForestCertificate,
          NonForestWitness}
OWN_EQUALITY = {DecompositionNode, ForestCertificate}  # hand-written __eq__


def records_in(root) -> list:
    """Every record reachable from root through records' fields, tuples,
    lists, diagrams' shapes and categories' morphisms."""
    found, seen, stack = [], set(), [root]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if type(value) in REFERENCE_RECORDS:
            found.append(value)
            stack.extend(record_fields(value).values())
        elif type(value) in (tuple, list):
            stack.extend(value)
        elif isinstance(value, FinInjDiagram):
            stack.append(value.shape)
        elif isinstance(value, FinCategory):
            stack.extend(value.morphisms)
    return found


def shape_records(shape) -> list:
    """The records of a shape's verdict, analysis and oracle answers: on
    the refutation's witness, and on a random diagram over the skeleton."""
    verdict = decide(shape)
    analysis = analyze_shape(shape)
    roots = [verdict, analysis]
    if verdict.diagram is not None:
        answer = has_cocone(verdict.diagram)
        roots += [answer, collision_word(verdict.diagram, answer.colimit.collision)]
    if analysis.skeleton is not None:
        roots.append(has_cocone(random_diagram_over_poset(
            analysis.skeleton, Random(0), shape=shape, element_of=analysis.skeleton_map
        )))
    return [r for root in roots for r in records_in(root)]


def corpus_records() -> list:
    records = [parse_args(["check", "boat", "--out", "o.json", "--seed", "3"])]
    for name in corpus_names():
        path = corpus.resolve(name)
        doc = serialize.load_document(path)
        if doc["type"] == "diagram":
            answer = has_cocone(serialize.diagram_from_doc(doc, os.path.dirname(path)))
            records += records_in(answer)
        else:
            records += shape_records(serialize.shape_from_doc(doc))
    return records


def check_record(record) -> None:
    cls = type(record)
    reference = as_reference(record)
    assert repr(record) == repr(reference)
    kwargs = record_fields(record)
    rebuilt = cls(**kwargs)
    assert cls(*kwargs.values()) == rebuilt
    assert (record == rebuilt) is (reference == as_reference(rebuilt)) is True
    assert record.__eq__(reference) is NotImplemented and record != reference
    subclass = type(cls.__name__, (cls,), {})(**kwargs)
    reference_subclass = type(cls.__name__, (type(reference),), {})(**vars(reference))
    assert (record == subclass) is (reference == reference_subclass)
    if cls not in OWN_EQUALITY:
        for name in kwargs:
            changed = cls(**{**kwargs, name: object()})
            assert (record == changed) is (reference == as_reference(changed)) is False
    if cls in FROZEN:
        assert hash(record) == hash(reference) == hash(rebuilt)
        for name in kwargs:
            for forbidden in (lambda: setattr(record, name, None),
                              lambda: delattr(record, name)):
                with pytest.raises(AttributeError):
                    forbidden()
                assert getattr(record, name) is kwargs[name]
    else:
        for value in (record, reference):
            with pytest.raises(TypeError):
                hash(value)
        name = next(name for name, value in kwargs.items() if value is not None)
        setattr(rebuilt, name, None)
        assert getattr(rebuilt, name) is None
        assert (rebuilt == record) is (as_reference(rebuilt) == reference) is False


def check_pairs(records) -> None:
    """Equality between records of one class, and hashing of the frozen
    ones, agree with the references'."""
    by_class = {}
    for record in records:
        by_class.setdefault(type(record), []).append(record)
    for cls, group in by_class.items():
        group = group[:12]
        for a, b in combinations(group, 2):
            ref_a, ref_b = as_reference(a), as_reference(b)
            assert (a == b) is (ref_a == ref_b)
            if cls in FROZEN:
                assert (hash(a) == hash(b)) is (hash(ref_a) == hash(ref_b))


def test_corpus_records_match_their_references():
    records = corpus_records()
    assert {type(r) for r in records} == set(REFERENCE_RECORDS)
    for record in records:
        check_record(record)
    check_pairs(records)


@settings(max_examples=40, deadline=None)
@given(dags(max_size=7))
def test_poset_records_match_their_references(drawn):
    poset = drawn[0]
    records = shape_records(poset) + shape_records(category_from_poset(poset))
    for record in records:
        check_record(record)
    check_pairs(records)
