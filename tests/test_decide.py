from hypothesis import given, settings

from amalgam import corpus, diagram, serialize
from amalgam.decide import decide, explain
from amalgam.diagram import ZigzagWord, collision_zigzag, has_cocone, zigzag_action
from amalgam.fincat import category
from amalgam.poset import verify_certificate
from conftest import (
    boat_poset,
    bowtie_cat,
    category_from_poset,
    concrete_categories,
    corpus_names,
    cyclic_cat,
    dags,
    parallel_pair_cat,
    span_poset,
)
from oracles import actions, all_posets


def test_decide_bowtie():
    v = decide(bowtie_cat())
    assert not v.analysis.usc
    assert v.connected
    assert not v.amalgamable_ap_jep
    assert not v.amalgamable_ap_only
    assert v.diagram is not None
    assert not has_cocone(v.diagram)


def test_decide_single_arrow():
    shape = category(["X", "Y"], [("a", "X", "Y")])
    v = decide(shape)
    assert v.analysis.usc and v.connected
    assert v.amalgamable_ap_jep and v.amalgamable_ap_only
    assert v.diagram is None
    assert verify_certificate(v.analysis.skeleton, v.analysis.forest)


def test_decide_two_isolated_objects():
    v = decide(category(["X", "Y"]))
    assert v.analysis.usc and not v.connected
    assert v.amalgamable_ap_jep
    assert not v.amalgamable_ap_only


def test_decide_empty_category():
    v = decide(category([]))
    assert v.analysis.usc and not v.connected
    assert v.amalgamable_ap_jep and not v.amalgamable_ap_only
    assert v.diagram is None
    assert v.analysis.forest.roots == ()


def test_decide_parallel_pair_routes_through_reflection():
    v = decide(parallel_pair_cat())
    assert not v.analysis.usc
    assert not v.analysis.preorder and v.analysis.parallel_pair is not None
    assert serialize.verdict_to_doc(v)["evidence"]["kind"] == "parallel-pair"
    assert not has_cocone(v.diagram)


def test_decide_flag_invariants():
    for shape in (
        bowtie_cat(),
        parallel_pair_cat(),
        category([]),
        category(["X"]),
        category_from_poset(span_poset()),
        category_from_poset(boat_poset()),
    ):
        v = decide(shape)
        assert v.amalgamable_ap_jep == v.analysis.usc
        assert v.amalgamable_ap_only == (v.analysis.usc and v.connected)
        assert (v.diagram is None) == v.analysis.usc


def test_decide_deterministic():
    a = decide(bowtie_cat())
    b = decide(bowtie_cat())
    assert a.trace == b.trace
    assert a.diagram == b.diagram
    assert a.diagram.collision == b.diagram.collision
    assert collision_zigzag(a.diagram, a.diagram.collision) == collision_zigzag(
        b.diagram, b.diagram.collision
    )


def test_explain_bowtie_mentions_witness():
    text = explain(decide(bowtie_cat()))
    assert "Minimal element C" in text
    assert "{A}" in text and "{B}" in text
    assert "not amalgamable" in text


def test_explain_certificate_narrative():
    text = explain(decide(category_from_poset(span_poset())))
    assert "adjoin p" in text
    assert "amalgamable" in text


def test_explain_empty_convention():
    text = explain(decide(category([])))
    assert "empty" in text
    assert "joint embedding" in text


def test_refutation_computes_one_colimit(monkeypatch):
    """The witness is checked by the oracle once, and decide reuses that
    check's collision."""
    calls = []
    colimit_set = diagram.colimit_set

    def counted(d):
        calls.append(d)
        return colimit_set(d)

    monkeypatch.setattr(diagram, "colimit_set", counted)
    for shape in (bowtie_cat(), parallel_pair_cat(), cyclic_cat(4)):
        calls.clear()
        v = decide(shape)
        assert v.diagram is not None
        assert len(calls) == 1
        col = colimit_set(v.diagram).collision
        assert v.diagram.collision == col
        assert collision_zigzag(v.diagram, v.diagram.collision) == collision_zigzag(
            v.diagram, col
        )


def _decided_like_its_category(p):
    """Deciding the poset on its masks writes what deciding its category
    writes, except that a witness diagram names the poset document as its
    shape; both witnesses read back to the same carriers and actions."""
    mine, theirs = decide(p), decide(category_from_poset(p))
    assert explain(mine) == explain(theirs), p
    doc, expected = serialize.verdict_to_doc(mine), serialize.verdict_to_doc(theirs)
    if not mine.analysis.usc:
        witness, other = doc["evidence"]["diagram"], expected["evidence"]["diagram"]
        assert witness["shape"] == serialize.poset_to_doc(p)
        back, other_back = map(serialize.diagram_from_doc, (witness, other))
        assert back.shape == p and other_back.shape == category_from_poset(p)
        assert (back.carriers, actions(back)) == (other_back.carriers, actions(other_back))
        witness["shape"] = other["shape"]
    assert serialize.dump(doc) == serialize.dump(expected), p


def test_poset_is_decided_like_its_category_on_all_posets_of_six():
    for posets in all_posets(6).values():
        for p in posets:
            _decided_like_its_category(p)


def test_poset_is_decided_like_its_category_on_the_corpus():
    docs = [serialize.load_document(corpus.resolve(name)) for name in corpus_names()]
    posets = [serialize.poset_from_doc(doc) for doc in docs if doc["type"] == "poset"]
    assert len(posets) >= 5
    for p in posets:
        _decided_like_its_category(p)


@settings(max_examples=150, deadline=None)
@given(dags())
def test_poset_is_decided_like_its_category(case):
    _decided_like_its_category(case[0])


def test_poset_analysis_is_its_own_reflection_and_skeleton():
    p = boat_poset()
    analysis = diagram.analyze_shape(p)
    assert analysis.reflection is p and analysis.skeleton is p
    assert analysis.projection is None
    assert analysis.skeleton_map == tuple(range(len(p)))
    v = decide(p)
    assert v.analysis.shape is p
    assert v.diagram.shape is p


def _check_diagram_exactly_on_refutations(shape):
    """A verdict holds a cocone-free diagram exactly when the shape is not
    upward-simply-connected, and its collision's zigzag carries x to y."""
    v = decide(shape)
    assert (v.diagram is None) == v.analysis.usc, shape
    if v.diagram is not None:
        col = v.diagram.collision
        word = ZigzagWord(col.obj, collision_zigzag(v.diagram, col)[1])
        assert col.x != col.y and zigzag_action(v.diagram, word)[col.x] == col.y, shape
    return v.analysis.usc


def test_a_verdict_holds_a_diagram_exactly_on_refutations():
    posets = [p for ps in all_posets(6).values() for p in ps]
    assert sum(map(_check_diagram_exactly_on_refutations, posets)) == len(posets) - 94
    docs = [serialize.load_document(corpus.resolve(name)) for name in corpus_names()]
    shapes = [serialize.shape_from_doc(doc) for doc in docs if doc["type"] != "diagram"]
    assert len(shapes) >= 10
    for shape in shapes:
        _check_diagram_exactly_on_refutations(shape)


@settings(max_examples=100, deadline=None)
@given(concrete_categories())
def test_a_verdict_holds_a_diagram_exactly_on_refutations_of_concrete_categories(cat):
    _check_diagram_exactly_on_refutations(cat)
