import itertools
import os
import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import corpus, serialize
from amalgam.diagram import (
    CarrierMismatch,
    Cocone,
    Collision,
    DiagramError,
    FinInjDiagram,
    FunctorialityViolation,
    IllFormedWord,
    NotApplicable,
    NotInjective,
    ZigzagWord,
    _check_rows,
    analyze_shape,
    colimit_set,
    collision_zigzag,
    has_cocone,
    validate_cocone,
    validate_diagram,
    witness_no_cocone,
    zigzag_action,
)
from amalgam.fincat import category, monic_reflection
from amalgam.gen import random_diagram_over_poset, random_nonforest
from amalgam.poset import FinPoset, ForestCertificate, is_forest_like
from conftest import (
    arrows_of,
    category_from_poset,
    CertificateMismatch,
    concrete_categories,
    boat_poset,
    bowtie_cat,
    build_cocone_forest,
    cocone_from_labels,
    cyclic_cat,
    left_zero_monoid_cat,
    parallel_pair_cat,
    poset_of_shape,
    pushout_inj,
    reference_colimit,
    reference_validate_cocone,
    reference_validate_diagram,
    small_category_suite,
    span_poset,
    total_elements,
)
from pinj import PartialInjection
from oracles import (
    HasCocone,
    action,
    all_posets,
    collision_word,
    is_partial_identity,
    is_total,
    label_zigzag_action,
    random_endo_word,
    shrink_witness,
    word_pinj,
)


def injective_rows(colim) -> tuple[bool, ...]:
    """Per object, whether its canonical map into the colimit is injective:
    its class row repeats no class."""
    return tuple(len(set(row)) == len(row) for row in colim.ids)


def bowtie_diagram(h_target="0", k_target="1"):
    shape = bowtie_cat()
    carriers = {"A": ("*",), "B": ("0", "1"), "C": ("*",), "D": ("*",)}
    actions = {
        "f": {"*": "*"},
        "h": {"*": h_target},
        "g": {"*": "*"},
        "k": {"*": k_target},
    }
    return validate_diagram(
        shape,
        [carriers[name] for name in shape.objects],
        [
            actions.get(name, {e: e for e in carriers[shape.objects[dom]]})
            for name, (dom, _) in zip(shape.arrow_names, shape.morphisms)
        ],
    )


def chain_shape(n=3):
    return category_from_poset(
        FinPoset([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    )


def test_validate_bowtie_diagram():
    d = bowtie_diagram()
    assert total_elements(d) == 5


def test_validate_singleton_carriers():
    shape = chain_shape()
    d = validate_diagram(shape, [("x",)] * 3, [
        {"x": "x"} for _ in shape.morphisms
    ])
    assert has_cocone(d)


def test_validate_rejects_non_injective():
    shape = chain_shape(2)
    with pytest.raises(NotInjective):
        validate_diagram(
            shape,
            [("x", "y"), ("z",)],
            [
                {"x": "x", "y": "y"},
                {"z": "z"},
                {"x": "z", "y": "z"},
            ],
        )


def test_validate_rejects_functoriality_break():
    shape = chain_shape(3)
    by_name = shape.mor_index
    actions = [None] * len(shape.morphisms)
    carriers = [("a", "b"), ("a", "b"), ("a", "b")]
    for i in range(len(shape.morphisms)):
        actions[i] = {"a": "a", "b": "b"}
    actions[by_name["c0->c2"]] = {"a": "b", "b": "a"}  # disagrees with the composite
    with pytest.raises(FunctorialityViolation):
        validate_diagram(shape, carriers, actions)


def test_validate_rejects_carrier_mismatch():
    shape = chain_shape(2)
    with pytest.raises(CarrierMismatch):
        validate_diagram(shape, [("x",), ("y",)], [{"x": "x"}, {"y": "y"}, {}])


def test_colimit_bowtie_single_class():
    d = bowtie_diagram()
    colim = colimit_set(d)
    assert len(colim.classes) == 1
    b = d.shape.obj_index["B"]
    assert injective_rows(colim)[b] is False
    assert colim.collision is not None


def test_colimit_identity_shape():
    shape = category(["X"])
    d = validate_diagram(shape, [("1", "2")], [{"1": "1", "2": "2"}])
    colim = colimit_set(d)
    assert len(colim.classes) == 2
    assert colim.ids == ((0, 1),) and colim.collision is None


def test_colimit_disjoint_objects():
    shape = category(["X", "Y"])
    d = validate_diagram(shape, [("1",), ("2",)], [{"1": "1"}, {"2": "2"}])
    colim = colimit_set(d)
    assert len(colim.classes) == 2
    assert colim.ids == ((0,), (1,)) and colim.collision is None


def test_has_cocone_bowtie_false_with_collision_at_B():
    d = bowtie_diagram()
    answer = has_cocone(d)
    assert not answer
    col = answer.colimit.collision
    assert d.shape.objects[col.obj] == "B"
    assert {col.x, col.y} == {"0", "1"}


def test_collision_zigzag_replays():
    d = bowtie_diagram()
    col = has_cocone(d).colimit.collision
    action = zigzag_action(d, collision_word(d, col))
    assert action.get(col.x) == col.y


def test_the_cocone_legs_are_the_colimit_class_rows():
    answer = has_cocone(bowtie_diagram(k_target="0"))
    assert answer and answer.cocone.legs is answer.colimit.ids
    assert answer.cocone.apex == tuple(f"q{k}" for k in range(answer.colimit.count))


def test_has_cocone_checks_the_cocone_it_returns(monkeypatch):
    def refuse(diagram, cocone):
        raise FunctorialityViolation("cocone refused")

    d = bowtie_diagram(k_target="0")
    assert has_cocone(d)
    monkeypatch.setattr("amalgam.diagram.validate_cocone", refuse)
    with pytest.raises(FunctorialityViolation, match="cocone refused"):
        has_cocone(d)


def test_collision_zigzag_refuses_a_collision_the_colimit_does_not_glue():
    d = validate_diagram(category(["A"]), [("x", "y")], [None])
    with pytest.raises(DiagramError) as info:
        collision_zigzag(d, Collision(0, "x", "y"))
    assert str(info.value) == "no zigzag found for a colimit collision"


def test_the_parallel_pair_witness_checks_its_rows_are_injective(monkeypatch):
    """Post-composition acts injectively only once the shape is reflected to
    a monic category: a reflection that keeps a left-zero monoid as it is
    makes a row that the witness refuses."""
    shape = left_zero_monoid_cat(2)
    identity = tuple(range(len(shape.morphisms)))
    monkeypatch.setattr("amalgam.diagram.monic_reflection", lambda cat: (cat, identity))
    with pytest.raises(NotInjective) as info:
        witness_no_cocone(shape)
    assert str(info.value) == "action of z0 is not injective"


@pytest.mark.parametrize("present", [FinPoset, lambda *a: category_from_poset(FinPoset(*a))],
                         ids=["poset", "category"])
@pytest.mark.parametrize("size, rows, fault, message", [
    (2, ((0, 1), (0, 1), (0, 1, 1)), CarrierMismatch,
     "action of a->b is not defined on exactly its carrier"),
    (2, ((0, 1), (0, 1), (0,)), CarrierMismatch,
     "action of a->b is not defined on exactly its carrier"),
    (0, ((), (0, 1), (0,)), CarrierMismatch,
     "action of a->b is not defined on exactly its carrier"),
    (2, ((0, 1), (0, 1), (0, 2)), CarrierMismatch, "action of a->b leaves the target carrier"),
    (2, ((0, 1), (0, 1), (1, 1)), NotInjective, "action of a->b is not injective"),
    (2, ((0, 1), (1, 0), (0, 1)), FunctorialityViolation,
     "identity of b does not act as the identity"),
], ids=["longer", "shorter", "out-of-an-empty-carrier", "leaves-its-target", "not-injective",
        "last-identity"])
def test_the_witness_check_refuses_a_row_naming_its_arrow(present, size, rows, fault, message):
    """The one check of a synthesized witness, on a < b with b carrying
    two points and a ``size`` of them, refuses forged rows (id_a, id_b,
    a -> b)."""
    shape = present(["a", "b"], [(0, 1)])
    with pytest.raises(fault) as info:
        _check_rows(shape, (("0", "1")[:size], ("0", "1")), rows)
    assert str(info.value) == message


def test_the_witness_is_checked_by_the_oracle(monkeypatch):
    """A synthesized diagram that has a cocone is refused, not returned."""

    def empty(poset, witness):
        identities = range(len(poset))
        actions = [None if i in identities else () for i in range(len(poset.morphisms))]
        return validate_diagram(poset, [()] * len(poset), actions)

    for shape in (boat_poset(), bowtie_cat()):
        assert not has_cocone(witness_no_cocone(shape))
        with monkeypatch.context() as patch:
            patch.setattr("amalgam.diagram._poset_diagram", empty)
            with pytest.raises(DiagramError) as info:
                witness_no_cocone(shape)
        assert str(info.value) == "synthesized witness unexpectedly has a cocone"


def test_has_cocone_boat_with_empty_bottom():
    poset = boat_poset()
    shape = category_from_poset(poset)
    carriers = {"A": ("*",), "B": ("0", "1"), "C": ("*",), "D": ("*",), "E": ()}
    actions = []
    for dom, cod in shape.morphisms:
        dom, cod = shape.objects[dom], shape.objects[cod]
        if dom == "E":
            actions.append({})
        elif dom == cod:
            actions.append({e: e for e in carriers[dom]})
        elif dom == "C" and cod == "B":
            actions.append({"*": "0"})
        elif dom == "D" and cod == "B":
            actions.append({"*": "1"})
        else:
            actions.append({"*": "*"})
    d = validate_diagram(shape, [carriers[n] for n in shape.objects], actions)
    assert not has_cocone(d)


def _actions_by_name(shape, carriers, named):
    out = []
    for name, (dom, _) in zip(shape.arrow_names, shape.morphisms):
        if name in named:
            out.append(named[name])
        else:
            out.append({e: e for e in carriers[dom]})
    return out


def test_has_cocone_chain_true():
    shape = chain_shape(3)
    carriers = [("a",), ("a", "b"), ("a", "b", "c")]
    d = validate_diagram(
        shape,
        carriers,
        _actions_by_name(
            shape,
            carriers,
            {
                "c0->c1": {"a": "b"},
                "c1->c2": {"a": "c", "b": "a"},
                "c0->c2": {"a": "a"},
            },
        ),
    )
    answer = has_cocone(d)
    assert answer
    validate_cocone(d, answer.cocone)


def test_zigzag_action_undefined_step_gives_empty_map():
    d = bowtie_diagram()
    m = d.shape.mor_index
    word = ZigzagWord(
        d.shape.obj_index["A"],
        ((m["f"], False), (m["h"], True), (m["k"], False), (m["g"], True)),
    )
    assert zigzag_action(d, word) == {}


def test_zigzag_action_partial_identity_when_targets_agree():
    d = bowtie_diagram(h_target="0", k_target="0")
    m = d.shape.mor_index
    word = ZigzagWord(
        d.shape.obj_index["A"],
        ((m["f"], False), (m["h"], True), (m["k"], False), (m["g"], True)),
    )
    assert is_partial_identity(word_pinj(d, word))
    assert zigzag_action(d, word) == {"*": "*"}


def test_zigzag_empty_word_is_identity():
    d = bowtie_diagram()
    b = d.shape.obj_index["B"]
    action = word_pinj(d, ZigzagWord(b, ()))
    assert is_partial_identity(action) and is_total(action)
    assert zigzag_action(d, ZigzagWord(b, ())) == {"0": "0", "1": "1"}


def test_zigzag_rejects_ill_formed():
    from amalgam.diagram import IllFormedWord

    d = bowtie_diagram()
    m = d.shape.mor_index
    with pytest.raises(IllFormedWord):
        zigzag_action(d, ZigzagWord(d.shape.obj_index["A"], ((m["f"], True),)))


def test_pushout_inclusions():
    f = PartialInjection(("a",), ("a", "b"), {"a": "a"})
    g = PartialInjection(("a",), ("a", "c"), {"a": "a"})
    po = pushout_inj(f, g)
    assert len(po.apex) == 3  # |B| + |C| - |A|
    assert po.left("a") == po.right("a")
    assert set(po.left.mapping.values()) | set(po.right.mapping.values()) == set(po.apex)


def test_pushout_identity_sides():
    ident = PartialInjection.identity(("a", "b"))
    po = pushout_inj(ident, ident)
    assert len(po.apex) == 2
    assert po.left == po.right


def test_pushout_empty_source_is_disjoint_union():
    f = PartialInjection((), ("a",), {})
    g = PartialInjection((), ("b", "c"), {})
    po = pushout_inj(f, g)
    assert len(po.apex) == 3


def test_build_cocone_span_matches_pushout():
    poset = span_poset()
    shape = category_from_poset(poset)
    cert = is_forest_like(poset)
    d = validate_diagram(
        shape,
        [("a",), ("a", "b"), ("a", "c")],
        [
            {"a": "a"},
            {e: e for e in ("a", "b")},
            {e: e for e in ("a", "c")},
            {"a": "a"},
            {"a": "a"},
        ],
    )
    cocone = build_cocone_forest(d, cert)
    assert len(cocone.apex) == 3
    validate_cocone(d, cocone)


def test_build_cocone_chain_apex_is_top_carrier():
    shape = chain_shape(3)
    poset = poset_of_shape(shape)
    cert = is_forest_like(poset)
    carriers = [("a",), ("a", "b"), ("x", "y", "z")]
    d = validate_diagram(
        shape,
        carriers,
        _actions_by_name(
            shape,
            carriers,
            {
                "c0->c1": {"a": "b"},
                "c1->c2": {"a": "z", "b": "x"},
                "c0->c2": {"a": "x"},
            },
        ),
    )
    cocone = build_cocone_forest(d, cert)
    assert len(cocone.apex) == 3
    validate_cocone(d, cocone)
    top = shape.obj_index["c2"]
    assert len(set(cocone.legs[top])) == 3


def test_build_cocone_two_singletons_disjoint_union():
    poset = FinPoset(["x", "y"], [])
    shape = category_from_poset(poset)
    cert = is_forest_like(poset)
    d = validate_diagram(shape, [("1",), ("1",)], [{"1": "1"}, {"1": "1"}])
    cocone = build_cocone_forest(d, cert)
    assert len(cocone.apex) == 2
    validate_cocone(d, cocone)


def test_build_cocone_rejects_wrong_certificate():
    poset = span_poset()
    other = FinPoset(["x", "y"], [])
    cert = is_forest_like(other)
    shape = category_from_poset(poset)
    d = validate_diagram(
        shape,
        [(), (), ()],
        [{} for _ in shape.morphisms],
    )
    with pytest.raises(CertificateMismatch):
        build_cocone_forest(d, cert)


def test_witness_bowtie_case2():
    shape = bowtie_cat()
    w = witness_no_cocone(shape)
    assert not has_cocone(w)
    c = shape.obj_index["C"]
    assert w.carriers[c] == ("*",)


def test_witness_parallel_pair_case1():
    shape = parallel_pair_cat()
    w = witness_no_cocone(shape)
    assert not has_cocone(w)
    c, b = shape.obj_index["C"], shape.obj_index["B"]
    assert w.carriers[c] == ("id_C",)
    assert set(w.carriers[b]) == {"u", "v"}


def test_witness_not_applicable_for_span():
    shape = category_from_poset(span_poset())
    with pytest.raises(NotApplicable):
        witness_no_cocone(shape)


def test_witness_case1_on_non_preorder_reflection():
    # parallel pair plus an equalizing arrow on a *different* pair keeps u, v distinct
    shape = parallel_pair_cat()
    analysis = analyze_shape(shape)
    assert not analysis.preorder
    w = witness_no_cocone(shape, analysis)
    assert not has_cocone(w)


def test_witness_case1_with_downstream_structure():
    """Parallel pair that stays distinct under a further arrow: the hom-set
    carriers pick up the composites and the collision still appears."""
    shape = category(
        ["A", "B", "C"],
        [
            ("u", "A", "B"),
            ("v", "A", "B"),
            ("w", "B", "C"),
            ("p", "A", "C"),
            ("q", "A", "C"),
        ],
        [("w", "u", "p"), ("w", "v", "q")],
    )
    analysis = analyze_shape(shape)
    assert not analysis.preorder
    d = witness_no_cocone(shape, analysis)
    assert not has_cocone(d)
    assert set(d.carriers[shape.obj_index["C"]]) >= {"p", "q"}
    shrunk = shrink_witness(d)
    assert not has_cocone(shrunk)


def test_witness_case2_upset_reaching_other_components():
    """x sees one split component plus a separate branch of its up-set; the
    separate branch must be carried and sent to the 0 side."""
    poset = FinPoset(
        ["x", "z", "a", "b", "c"],
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)],
    )
    from amalgam.poset import NonForestWitness

    witness = is_forest_like(poset)
    assert isinstance(witness, NonForestWitness)
    assert poset.elements[witness.x] == "x"
    shape = category_from_poset(poset)
    d = witness_no_cocone(shape)
    assert not has_cocone(d)
    x, c = shape.obj_index["x"], shape.obj_index["c"]
    assert d.carriers[x] == ("*",)
    assert d.carriers[c] == ("0", "1")
    assert action(d, shape.mor_index["x->c"]) == {"*": "0"}


def test_shrink_witness_keeps_failure():
    shape = bowtie_cat()
    w = witness_no_cocone(shape)
    shrunk = shrink_witness(w)
    assert not has_cocone(shrunk)
    assert total_elements(shrunk) <= total_elements(w)


def test_shrink_removes_padding():
    d = bowtie_diagram()
    # pad every carrier with junk not reachable from the collision zigzag
    carriers = [c + (f"junk{i}",) for i, c in enumerate(d.carriers)]
    actions = []
    for i, (dom, cod) in enumerate(d.shape.morphisms):
        act = action(d, i)
        act[f"junk{dom}"] = f"junk{cod}"
        if dom == cod:
            act[f"junk{dom}"] = f"junk{dom}"
        actions.append(act)
    padded = validate_diagram(d.shape, carriers, actions)
    assert not has_cocone(padded)
    shrunk = shrink_witness(padded)
    assert not has_cocone(shrunk)
    for c in shrunk.carriers:
        assert all(not e.startswith("junk") for e in c)


def test_shrink_rejects_completable_diagram():
    shape = chain_shape(2)
    d = validate_diagram(shape, [("x",), ("y",)], [{"x": "x"}, {"y": "y"}, {"x": "y"}])
    with pytest.raises(HasCocone):
        shrink_witness(d)


def test_random_diagrams_over_forest_have_cocones():
    rng = random.Random(11)
    poset = span_poset()
    shape = category_from_poset(poset)
    cert = is_forest_like(poset)
    for _ in range(20):
        d = random_diagram_over_poset(poset, rng, shape=shape)
        cocone = build_cocone_forest(d, cert)
        validate_cocone(d, cocone)
        assert has_cocone(d)


def test_collision_zigzag_replays_on_random_witnesses():
    from amalgam.gen import random_nonforest

    rng = random.Random(5)
    for _ in range(10):
        p = random_nonforest(5, rng)
        shape = category_from_poset(p)
        w = witness_no_cocone(shape)
        col = has_cocone(w).colimit.collision
        action = zigzag_action(w, collision_word(w, col))
        assert action.get(col.x) == col.y


def test_skeleton_preserves_cocone_existence():
    """Collapsing a mutually reachable pair does not change the oracle answer."""
    loop = category(
        ["X", "Y", "Z"],
        [("s", "X", "Y"), ("t", "Y", "X"), ("a", "X", "Z"), ("b", "Y", "Z")],
        [("t", "s", "id_X"), ("s", "t", "id_Y"), ("a", "t", "b"), ("b", "s", "a")],
    )
    carriers = [("0", "1"), ("0", "1"), ("0", "1")]
    named = {
        "s": {"0": "1", "1": "0"},
        "t": {"0": "1", "1": "0"},
        "a": {"0": "0", "1": "1"},
        "b": {"0": "1", "1": "0"},
    }
    d = validate_diagram(loop, carriers, _actions_by_name(loop, carriers, named))
    from amalgam.fincat import skeleton_poset

    poset, class_of = skeleton_poset(loop)
    reps = [min(o for o in range(len(loop.objects)) if class_of[o] == v)
            for v in range(len(poset))]
    skel_shape = category_from_poset(poset)
    skel_carriers = [d.carriers[reps[v]] for v in range(len(poset))]
    skel_actions = []
    for dom, cod in skel_shape.morphisms:
        arrow = loop.hom(reps[dom], reps[cod])[0]
        skel_actions.append(dict(action(d, arrow)))
    skel = validate_diagram(skel_shape, skel_carriers, skel_actions)
    assert bool(has_cocone(d)) == bool(has_cocone(skel)) == True  # noqa: E712


# -- the integer-indexed layer against the label-keyed references -------------

def crown(k: int) -> FinPoset:
    """x_i < y_i and x_i < y_(i+1 mod k): the comparability graph is a 2k-cycle."""
    names = [f"x{i}" for i in range(k)] + [f"y{i}" for i in range(k)]
    return FinPoset(names, [(i, k + j) for i in range(k) for j in (i, (i + 1) % k)])


POSETS_4 = [p for n in range(5) for p in all_posets(4)[n]]
CROWNS = [crown(k) for k in (2, 3, 4)]
REFUTED = [p for p in POSETS_4 if not isinstance(is_forest_like(p), ForestCertificate)]
REFUTED += CROWNS


def _relabeled(d, rng, prefix):
    """The same diagram with each carrier's labels renamed at random, keeping
    their positions; returns it with the renaming, per object."""
    rename = []
    for obj, c in enumerate(d.carriers):
        fresh = [f"{prefix}{obj}.{k}" for k in range(len(c))]
        rng.shuffle(fresh)
        rename.append(dict(zip(c, fresh)))
    shape = d.shape
    carriers = [tuple(rename[obj][e] for e in c) for obj, c in enumerate(d.carriers)]
    actions = [
        {rename[dom][x]: rename[cod][y] for x, y in action(d, i).items()}
        for i, (dom, cod) in enumerate(shape.morphisms)
    ]
    return validate_diagram(shape, carriers, actions), rename


def _union(first, second):
    """Disjoint union over one shape, the second's carriers after the first's."""
    shape = first.shape
    carriers = [a + b for a, b in zip(first.carriers, second.carriers)]
    actions = [{**action(first, i), **action(second, i)} for i in range(len(shape.morphisms))]
    return validate_diagram(shape, carriers, actions)


def _padded(d, rng):
    """Each carrier gains a junk element at a random position, and the junk
    elements form a constant sub-diagram that no zigzag of the rest reaches."""
    shape = d.shape
    carriers = []
    for obj, c in enumerate(d.carriers):
        at = rng.randint(0, len(c))
        carriers.append(c[:at] + (f"junk{obj}",) + c[at:])
    actions = []
    for i, (dom, cod) in enumerate(shape.morphisms):
        act = action(d, i)
        act[f"junk{dom}"] = f"junk{cod}"
        actions.append(act)
    return validate_diagram(shape, carriers, actions)


# the posets of at most 4 elements with a composable pair of non-identities
CHAINED_4 = [p for p in POSETS_4 if any(p.up_masks[b] & ~(1 << b) for _, a, b in p.generator_ends)]


def _twisted_crown(poset, size, rng):
    """Every carrier holds the same labels and every arrow permutes them at
    random; a crown has no composites, so this is a diagram, and its classes
    are joined by many zigzags of different lengths."""
    shape = category_from_poset(poset)
    labels = tuple(f"t{k}" for k in range(size))
    actions = []
    for i in range(len(shape.morphisms)):
        image = list(labels)
        if not shape.is_identity(i):
            rng.shuffle(image)
        actions.append(dict(zip(labels, image)))
    return validate_diagram(shape, [labels] * len(shape.objects), actions)


@st.composite
def oracle_diagrams(draw, posets=POSETS_4):
    """Random diagrams over the posets given (they have cocones), twisted
    crowns (cocone-free or not), and cocone-free ones: a refuted shape's
    witness joined with a random diagram, in either order, sometimes padded
    with junk."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "twisted", "witness")))
    if kind == "random":
        poset = draw(st.sampled_from(posets))
        return random_diagram_over_poset(poset, rng, max_extra=3)
    if kind == "twisted":
        return _twisted_crown(draw(st.sampled_from(CROWNS)), draw(st.integers(1, 4)), rng)
    poset = draw(st.sampled_from(REFUTED))
    shape = category_from_poset(poset)
    witness, _ = _relabeled(witness_no_cocone(shape), rng, "w")
    other, _ = _relabeled(random_diagram_over_poset(poset, rng, shape=shape), rng, "r")
    d = _union(witness, other) if draw(st.booleans()) else _union(other, witness)
    return _padded(d, rng) if draw(st.booleans()) else d


def _check_zigzag(d, col):
    """The zigzag joins x to y through single action steps and replays."""
    nodes, steps = collision_zigzag(d, col)
    assert nodes[0] == (col.obj, col.x) and nodes[-1] == (col.obj, col.y)
    for (a, x), (b, y), (i, forward) in zip(nodes, nodes[1:], steps):
        dom, cod = d.shape.morphisms[i]
        if forward:
            assert (dom, cod) == (a, b) and action(d, i)[x] == y
        else:
            assert (cod, dom) == (a, b) and action(d, i)[y] == x
    assert zigzag_action(d, ZigzagWord(col.obj, steps)).get(col.x) == col.y


@settings(max_examples=200, deadline=None)
@given(oracle_diagrams())
def test_colimit_matches_the_tuple_keyed_reference(d):
    ref = reference_colimit(d)
    colim = colimit_set(d)
    assert len(colim.classes) == len(ref.classes)
    assert tuple(colim.classes) == ref.classes
    ref_class = {node: k for k, cl in enumerate(ref.classes) for node in cl}
    assert colim.ids == tuple(
        tuple(ref_class[(o, e)] for e in c) for o, c in enumerate(d.carriers)
    )
    assert injective_rows(colim) == ref.injective
    col = colim.collision
    assert (col and (col.obj, col.x, col.y)) == ref.collision
    if col is not None:
        assert len(collision_zigzag(d, col)[1]) == len(ref.zigzag[1])
        _check_zigzag(d, col)
    else:
        cocone = has_cocone(d).cocone
        for obj, c in enumerate(d.carriers):
            assert [cocone.apex[k] for k in cocone.legs[obj]] == [
                f"q{ref_class[(obj, e)]}" for e in c
            ]


@settings(max_examples=100, deadline=None)
@given(oracle_diagrams(), st.randoms(use_true_random=False))
def test_colimit_is_unchanged_when_labels_are_renamed(d, rng):
    renamed, rename = _relabeled(d, rng, "n")
    a, b = has_cocone(d), has_cocone(renamed)
    assert [{(o, rename[o][e]) for o, e in cl} for cl in a.colimit.classes] == list(
        b.colimit.classes
    )
    assert a.colimit.ids == b.colimit.ids
    if a:
        assert b and a.cocone == b.cocone
    else:
        col = a.colimit.collision
        nodes, steps = collision_zigzag(d, col)
        assert collision_zigzag(renamed, b.colimit.collision) == (
            tuple((o, rename[o][e]) for o, e in nodes), steps
        )


FAULTS = (
    "repeat", "drop", "extra", "escape", "stray", "rename", "none", "collide", "swap",
    "move", "count",
)


def _corrupt(shape, carriers, actions, rng, kind):
    """One fault of the kind: a repeated label, a missing, extra, escaping or
    colliding image, an image moved to a label of another carrier, a source
    renamed to a label outside its carrier (both keep the action's size), a
    morphism's action left out, two images swapped or one moved to a free
    target (both keep the action injective), or a missing carrier or action.
    An identity's action left out (``None``) is written out first, as the
    identity, when a fault is put into it."""
    arrows = [i for i in range(len(actions)) if not shape.is_identity(i)]
    if kind in ("swap", "move") and arrows and rng.random() < 0.8:
        i = rng.choice(arrows)
    else:
        i = rng.randrange(len(actions))
    dom, cod = shape.morphisms[i]
    if actions[i] is None and kind != "count":
        actions[i] = {e: e for e in carriers[dom]}
    act = actions[i]
    if kind == "repeat" and carriers[dom]:
        carriers[dom].append(rng.choice(carriers[dom]))
    elif kind == "drop" and act:
        del act[rng.choice(sorted(act))]
    elif kind == "extra":
        act["extra"] = rng.choice(carriers[cod] or ["extra"])
    elif kind == "escape" and act:
        act[rng.choice(sorted(act))] = "escaped"
    elif kind == "stray" and act:
        elsewhere = sorted(set().union(*carriers) - set(carriers[cod]))
        act[rng.choice(sorted(act))] = rng.choice(elsewhere or ["stray"])
    elif kind == "rename" and act:
        x = rng.choice(sorted(act))
        act["renamed"] = act.pop(x)
    elif kind == "none":
        actions[i] = None
    elif kind == "collide" and len(act) > 1:
        x, y = rng.sample(sorted(act), 2)
        act[x] = act[y]
    elif kind == "swap" and len(act) > 1:
        x, y = rng.sample(sorted(act), 2)
        act[x], act[y] = act[y], act[x]
    elif kind == "move" and act:
        free = sorted(set(carriers[cod]) - set(act.values()))
        if free:
            act[rng.choice(sorted(act))] = rng.choice(free)
    elif kind == "count":
        rng.choice((carriers, actions)).pop()


def _outcome(validate, shape, carriers, actions):
    try:
        validate(
            shape,
            [list(c) for c in carriers],
            [None if a is None else dict(a) for a in actions],
        )
    except DiagramError as exc:
        return type(exc), str(exc)
    return None


def _faulty(d, rng, faults):
    """The diagram's carriers and actions with the faults put in, each
    identity's action left out (``None``) or listed at random."""
    shape = d.shape
    carriers = [list(c) for c in d.carriers]
    actions = [
        None if shape.is_identity(i) and rng.random() < 0.5 else action(d, i)
        for i in range(len(shape.morphisms))
    ]
    for kind in faults:
        if not actions or len(carriers) != len(shape.objects) or len(actions) != len(
            shape.morphisms
        ):
            break  # nothing to corrupt, or a missing carrier or action comes first
        _corrupt(shape, carriers, actions, rng, kind)
    return carriers, actions


def _check_first_fault(d, rng, faults):
    """Both validators on the diagram with the faults put in."""
    carriers, actions = _faulty(d, rng, faults)
    expected = _outcome(reference_validate_diagram, d.shape, carriers, actions)
    assert _outcome(validate_diagram, d.shape, carriers, actions) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(oracle_diagrams(), oracle_diagrams(CHAINED_4)),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3),
)
def test_validation_reports_the_reference_first_fault(d, rng, faults):
    _check_first_fault(d, rng, faults)


@settings(max_examples=150, deadline=None)
@given(
    oracle_diagrams(CHAINED_4),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from(("swap", "move")), min_size=1, max_size=3),
)
def test_validation_reports_the_reference_first_functoriality_fault(d, rng, faults):
    """Faults that keep every action injective: the identity and composite
    checks find them, at the element the reference names."""
    _check_first_fault(d, rng, faults)


def test_the_first_non_commuting_pair_is_named_in_scan_order_for_any_presentation():
    """Over the chain A < B < C < D, every action the identity but B->C's,
    a swap: (B->C, A->B) and (C->D, B->C) do not commute.  The first of
    them in scan order is named whatever the order of the compose list,
    and over the chain as a poset."""
    poset = FinPoset("ABCD", [(0, 1), (1, 2), (2, 3)])
    shape = category_from_poset(poset)
    names = list(shape.arrow_names)
    arrows = [(m.name, poset.elements[m.dom], poset.elements[m.cod])
              for m in arrows_of(shape)[len(poset):]]
    compose = [(names[g], names[f], names[r]) for g, f, r in shape.composites()]
    carriers = [("x", "y")] * len(poset)
    actions = [{"x": "x", "y": "y"} for _ in names]
    actions[names.index("B->C")] = {"x": "y", "y": "x"}
    broken = [(names[g], names[f]) for g, f, r in shape.composites()
              if {e: actions[g][actions[f][e]] for e in "xy"} != actions[r]]
    assert broken == [("B->C", "A->B"), ("C->D", "B->C")]
    message = "(B->C, A->B) does not commute at element x"
    for order in itertools.permutations(compose):
        with pytest.raises(FunctorialityViolation) as exc:
            validate_diagram(category(poset.elements, arrows, order), carriers, actions)
        assert str(exc.value) == message
    with pytest.raises(FunctorialityViolation) as exc:
        validate_diagram(poset, carriers, actions)
    assert str(exc.value) == message


def _reading(shape, carriers, actions):
    try:
        return validate_diagram(shape, carriers, actions)
    except DiagramError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(oracle_diagrams(), oracle_diagrams(CHAINED_4)),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from(FAULTS + ("swap", "move")), max_size=3),
)
def test_an_action_reads_alike_as_a_mapping_its_pairs_or_its_pairs_shuffled(d, rng, faults):
    """Each action given as a label dict, as another kind of mapping, as its
    list of [x, y] pairs, or as that list shuffled: the same diagram, or the
    same exception with the same message, and the reference's outcome."""
    carriers, mappings = _faulty(d, rng, faults)
    proxies = [None if a is None else MappingProxyType(a) for a in mappings]
    pairs = [None if a is None else [[x, y] for x, y in a.items()] for a in mappings]
    shuffled = [None if p is None else rng.sample(p, len(p)) for p in pairs]
    reading = _reading(d.shape, carriers, mappings)
    assert _reading(d.shape, carriers, proxies) == reading
    assert _reading(d.shape, carriers, pairs) == reading
    assert _reading(d.shape, carriers, shuffled) == reading
    expected = _outcome(reference_validate_diagram, d.shape, carriers, mappings)
    assert (None if isinstance(reading, FinInjDiagram) else reading) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CHAINED_4 + CROWNS),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from(FAULTS + ("swap", "move")), min_size=1, max_size=3),
)
def test_poset_validation_reports_what_its_category_reports(poset, rng, faults):
    """A diagram over the poset and the same diagram over its category, with
    the same faults injected: the same exception and message, or none."""
    d = random_diagram_over_poset(poset, rng, max_extra=3)
    carriers = [list(c) for c in d.carriers]
    actions = [
        None if poset.is_identity(i) and rng.random() < 0.5 else action(d, i)
        for i in range(len(poset.morphisms))
    ]
    for kind in faults:
        if len(carriers) != len(poset.objects) or len(actions) != len(poset.morphisms):
            break
        _corrupt(poset, carriers, actions, rng, kind)
    expected = _outcome(validate_diagram, category_from_poset(poset), carriers, actions)
    assert _outcome(validate_diagram, poset, carriers, actions) == expected


def test_validate_cocone_makes_each_of_its_four_checks():
    d = bowtie_diagram(h_target="0", k_target="0")
    cocone = has_cocone(d).cocone
    validate_cocone(d, cocone)
    apex, legs = cocone.apex, cocone.legs
    a, b = d.shape.obj_index["A"], d.shape.obj_index["B"]

    def with_leg(obj, row, apex=apex):
        return Cocone(apex, tuple(row if o == obj else leg for o, leg in enumerate(legs)))

    with pytest.raises(CarrierMismatch, match="one leg per object"):
        validate_cocone(d, Cocone(apex, legs[:-1]))
    with pytest.raises(CarrierMismatch, match="leg of B is not total"):
        validate_cocone(d, with_leg(b, legs[b][:1]))
    with pytest.raises(CarrierMismatch, match="leg of B leaves the apex"):
        validate_cocone(d, with_leg(b, (legs[b][0], len(apex))))
    with pytest.raises(NotInjective, match="leg of B is not injective"):
        validate_cocone(d, with_leg(b, (legs[b][0],) * 2))
    # A's one element moves to a fresh apex point, away from C's and D's.
    with pytest.raises(FunctorialityViolation, match="leg does not commute with f at element"):
        validate_cocone(d, with_leg(a, (len(apex),), apex + ("fresh",)))


def test_cocone_from_labels_keeps_label_faults_visible():
    d = bowtie_diagram(h_target="0", k_target="0")
    good = has_cocone(d).cocone
    labels = [
        {e: good.apex[k] for e, k in zip(d.carriers[obj], leg)}
        for obj, leg in enumerate(good.legs)
    ]
    validate_cocone(d, cocone_from_labels(d, good.apex, labels))
    b = d.shape.obj_index["B"]
    missing = [dict(leg) for leg in labels]
    missing[b].pop("1")
    with pytest.raises(CarrierMismatch, match="not total"):
        validate_cocone(d, cocone_from_labels(d, good.apex, missing))
    outside = [dict(leg) for leg in labels]
    outside[b]["1"] = "elsewhere"
    with pytest.raises(CarrierMismatch, match="leaves the apex"):
        validate_cocone(d, cocone_from_labels(d, good.apex, outside))


# -- the generator-driven checks on shapes that are not posets -----------------

CATEGORIES = (
    small_category_suite()
    + [cyclic_cat(n) for n in range(1, 9)]
    + [left_zero_monoid_cat(k) for k in (1, 2, 3)]
)


def _represented(shape, a: int, tag: str):
    """hom(a, -) of the shape's monic reflection, read through the projection:
    post-composition in a monic category is injective, so this is a diagram."""
    refl, proj = monic_reflection(shape)
    carriers = [tuple(f"{tag}{g}" for g in refl.hom(a, x)) for x in range(len(refl.objects))]
    actions = [
        {f"{tag}{g}": f"{tag}{refl.compose(proj[i], g)}" for g in refl.hom(a, dom)}
        for i, (dom, _) in enumerate(shape.morphisms)
    ]
    return validate_diagram(shape, carriers, actions)


@st.composite
def category_diagrams(draw):
    """A disjoint union of one to three relabelled represented diagrams over
    Z_n, a left-zero monoid or a suite category, sometimes padded."""
    shape = draw(st.sampled_from(CATEGORIES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parts = [
        _relabeled(_represented(shape, rng.randrange(len(shape.objects)), "h"), rng, f"r{k}")[0]
        for k in range(draw(st.integers(1, 3)))
    ]
    d = parts[0]
    for part in parts[1:]:
        d = _union(d, part)
    return _padded(d, rng) if draw(st.booleans()) else d


@settings(max_examples=200, deadline=None)
@given(category_diagrams())
def test_colimit_matches_the_reference_on_categories(d):
    ref = reference_colimit(d)
    colim = colimit_set(d)
    assert tuple(colim.classes) == ref.classes
    assert injective_rows(colim) == ref.injective
    col = colim.collision
    assert (col and (col.obj, col.x, col.y)) == ref.collision
    if col is not None:
        assert len(collision_zigzag(d, col)[1]) == len(ref.zigzag[1])
        _check_zigzag(d, col)


@settings(max_examples=300, deadline=None)
@given(
    category_diagrams(),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3),
)
def test_validation_reports_the_reference_first_fault_on_categories(d, rng, faults):
    _check_first_fault(d, rng, faults)


@settings(max_examples=150, deadline=None)
@given(
    category_diagrams(),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from(("swap", "move")), min_size=1, max_size=3),
)
def test_validation_reports_the_reference_first_functoriality_fault_on_categories(
    d, rng, faults
):
    _check_first_fault(d, rng, faults)


@settings(max_examples=300, deadline=None)
@given(
    category_diagrams(),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from(("swap", "fresh", "any")), max_size=3),
)
def test_cocone_check_reports_the_reference_first_fault_on_categories(d, rng, moves):
    """The colimit's legs with up to three faults: two entries of a leg
    swapped, one moved to an unused apex point, or one moved anywhere."""
    colim = colimit_set(d)
    legs = list(map(list, colim.ids))
    apex = tuple(f"q{k}" for k in range(colim.count + 1))
    for kind in moves:
        leg = legs[rng.randrange(len(legs))]
        if len(leg) > 1 and kind == "swap":
            x, y = rng.sample(range(len(leg)), 2)
            leg[x], leg[y] = leg[y], leg[x]
        elif leg and kind != "swap":
            point = colim.count if kind == "fresh" else rng.randrange(len(apex))
            leg[rng.randrange(len(leg))] = point
    cocone = Cocone(apex, tuple(map(tuple, legs)))
    outcomes = []
    for check in (validate_cocone, reference_validate_cocone):
        try:
            check(d, cocone)
            outcomes.append(None)
        except DiagramError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=150, deadline=None)
@given(st.one_of(oracle_diagrams(), category_diagrams()), st.randoms(use_true_random=False))
def test_a_document_parses_alike_with_its_identity_actions_omitted_or_listed(d, rng):
    """The writer leaves every identity's action out.  Listing some of them,
    each as the identity, gives the same diagram; listing one that swaps two
    elements is named as the identity that does not act as the identity."""
    shape = d.shape
    doc = serialize.diagram_to_doc(d)
    assert serialize.diagram_from_doc(doc, shape=shape) == d
    listed = dict(doc, actions=dict(doc["actions"]))
    for x in range(len(shape.objects)):
        if rng.random() < 0.5:
            listed["actions"][shape.arrow_names[x]] = [[e, e] for e in d.carriers[x]]
    assert serialize.diagram_from_doc(listed, shape=shape) == d
    wide = [x for x, c in enumerate(d.carriers) if len(c) > 1]
    if wide:
        x = rng.choice(wide)
        c = d.carriers[x]
        images = (c[1], c[0]) + c[2:]
        listed["actions"][shape.arrow_names[x]] = list(
            map(list, zip(c, images))
        )
        with pytest.raises(FunctorialityViolation) as exc:
            serialize.diagram_from_doc(listed, shape=shape)
        assert str(exc.value) == (
            f"identity of {shape.objects[x]} does not act as the identity"
        )


@settings(max_examples=150, deadline=None)
@given(st.one_of(oracle_diagrams(), category_diagrams()))
def test_writers_give_the_bytes_of_label_pair_lists(d):
    """Read off the rows as sorted tuples, an action or a leg is written as
    the sorted [element, image] lists of its label dict, in any carrier
    order."""
    shape = d.shape
    doc = serialize.diagram_to_doc(d)
    actions = {
        name: sorted(map(list, action(d, i).items()))
        for i, name in enumerate(shape.arrow_names)
        if not shape.is_identity(i)
    }
    assert serialize.dump(doc) == serialize.dump(dict(doc, actions=actions))
    answer = has_cocone(d)
    if answer:
        apex = answer.cocone.apex
        doc = serialize.cocone_to_doc(d, answer.cocone)
        legs = {
            shape.objects[obj]: sorted([e, apex[k]] for e, k in zip(c, answer.cocone.legs[obj]))
            for obj, c in enumerate(d.carriers)
        }
        assert serialize.dump(doc) == serialize.dump(dict(doc, legs=legs))



@st.composite
def zigzag_cases(draw):
    """(diagram, word): a diagram drawn over a random concrete category
    through its skeleton map, or its cocone-free witness when the skeleton
    is missing; the corpus bowtie diagram; or the witness of a random
    non-forest poset, over the poset or its category.  The word is a
    random endo word, a prefix of one, or arbitrary steps, which are
    mostly ill-formed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("concrete", "bowtie", "poset witness")))
    if kind == "concrete":
        cat = draw(concrete_categories())
        analysis = analyze_shape(cat)
        if analysis.skeleton is not None and (analysis.usc or draw(st.booleans())):
            d = random_diagram_over_poset(
                analysis.skeleton, rng, shape=cat, element_of=analysis.skeleton_map
            )
        else:
            d = witness_no_cocone(cat, analysis)
    elif kind == "bowtie":
        path = corpus.resolve("bowtie_diagram")
        d = serialize.diagram_from_doc(serialize.load_document(path), os.path.dirname(path))
    else:
        poset = random_nonforest(rng.randint(4, 7), rng)
        d = witness_no_cocone(poset if draw(st.booleans()) else category_from_poset(poset))
    shape = d.shape
    word = draw(st.sampled_from(("endo", "prefix", "arbitrary")))
    if word == "arbitrary":
        steps = tuple(
            (rng.randrange(len(shape.morphisms)), rng.random() < 0.5)
            for _ in range(rng.randint(0, 6))
        )
        return d, ZigzagWord(rng.randrange(len(shape.objects)), steps)
    endo = random_endo_word(shape, rng)
    if word == "prefix":
        return d, ZigzagWord(endo.source, endo.steps[:rng.randint(0, len(endo.steps))])
    return d, endo


def _evaluated(evaluate, d, word):
    try:
        return evaluate(d, word)
    except IllFormedWord as exc:
        return ("IllFormedWord", str(exc))


@settings(max_examples=300, deadline=None)
@given(zigzag_cases())
def test_the_row_zigzag_action_is_the_label_one(case):
    """The word evaluated on rows is the partial injection of the label-dict
    evaluation, key for key, or raises the same IllFormedWord."""
    d, word = case
    rows = _evaluated(zigzag_action, d, word)
    labels = _evaluated(label_zigzag_action, d, word)
    if isinstance(labels, tuple):
        assert rows == labels
    else:
        assert type(rows) is dict and rows == labels.mapping
        assert list(rows) == list(labels.mapping)
