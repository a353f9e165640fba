import random

import pytest

from amalgam.diagram import (
    CarrierMismatch,
    FunctorialityViolation,
    HasCocone,
    NotApplicable,
    NotInjective,
    ZigzagWord,
    analyze_shape,
    colimit_set,
    has_cocone,
    shrink_witness,
    validate_cocone,
    validate_diagram,
    witness_no_cocone,
    zigzag_action,
)
from amalgam.fincat import category, category_from_poset
from amalgam.gen import random_diagram_over_poset
from amalgam.pinj import PartialInjection
from amalgam.poset import FinPoset, is_forest_like
from conftest import (
    CertificateMismatch,
    boat_poset,
    bowtie_cat,
    build_cocone_forest,
    parallel_pair_cat,
    poset_of_shape,
    pushout_inj,
    span_poset,
)


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
            actions.get(m.name, {e: e for e in carriers[shape.objects[m.dom]]})
            for m in shape.morphisms
        ],
    )


def chain_shape(n=3):
    return category_from_poset(
        FinPoset.from_covers([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    )


def test_validate_bowtie_diagram():
    d = bowtie_diagram()
    assert d.total_elements() == 5


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
    by_name = {shape.morphisms[i].name: i for i in range(len(shape.morphisms))}
    actions = [None] * len(shape.morphisms)
    carriers = [("a", "b"), ("a", "b"), ("a", "b")]
    for i, m in enumerate(shape.morphisms):
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
    assert not colim.injective[b]
    assert colim.collision is not None


def test_colimit_identity_shape():
    shape = category(["X"])
    d = validate_diagram(shape, [("1", "2")], [{"1": "1", "2": "2"}])
    colim = colimit_set(d)
    assert len(colim.classes) == 2
    assert colim.all_injective


def test_colimit_disjoint_objects():
    shape = category(["X", "Y"])
    d = validate_diagram(shape, [("1",), ("2",)], [{"1": "1"}, {"2": "2"}])
    colim = colimit_set(d)
    assert len(colim.classes) == 2
    assert colim.all_injective


def test_has_cocone_bowtie_false_with_collision_at_B():
    d = bowtie_diagram()
    answer = has_cocone(d)
    assert not answer
    col = answer.collision
    assert d.shape.objects[col.obj] == "B"
    assert {col.x, col.y} == {"0", "1"}


def test_collision_zigzag_replays():
    d = bowtie_diagram()
    col = has_cocone(d).collision
    action = zigzag_action(d, col.word())
    assert action.mapping.get(col.x) == col.y


def test_has_cocone_boat_with_empty_bottom():
    poset = boat_poset()
    shape = category_from_poset(poset)
    carriers = {"A": ("*",), "B": ("0", "1"), "C": ("*",), "D": ("*",), "E": ()}
    actions = []
    for m in shape.morphisms:
        dom = shape.objects[m.dom]
        cod = shape.objects[m.cod]
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
    for i, m in enumerate(shape.morphisms):
        if m.name in named:
            out.append(named[m.name])
        else:
            out.append({e: e for e in carriers[m.dom]})
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
    action = zigzag_action(d, word)
    assert action.mapping == {}


def test_zigzag_action_partial_identity_when_targets_agree():
    d = bowtie_diagram(h_target="0", k_target="0")
    m = d.shape.mor_index
    word = ZigzagWord(
        d.shape.obj_index["A"],
        ((m["f"], False), (m["h"], True), (m["k"], False), (m["g"], True)),
    )
    action = zigzag_action(d, word)
    assert action.is_partial_identity
    assert action.mapping == {"*": "*"}


def test_zigzag_empty_word_is_identity():
    d = bowtie_diagram()
    b = d.shape.obj_index["B"]
    action = zigzag_action(d, ZigzagWord(b, ()))
    assert action.is_partial_identity and action.is_total


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
    assert len(set(cocone.legs[top].values())) == 3


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
    assert w.carrier(c) == ("*",)


def test_witness_parallel_pair_case1():
    shape = parallel_pair_cat()
    w = witness_no_cocone(shape)
    assert not has_cocone(w)
    c, b = shape.obj_index["C"], shape.obj_index["B"]
    assert w.carrier(c) == ("id_C",)
    assert set(w.carrier(b)) == {"u", "v"}


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
    assert set(d.carrier(shape.obj_index["C"])) >= {"p", "q"}
    shrunk = shrink_witness(d)
    assert not has_cocone(shrunk)


def test_witness_case2_upset_reaching_other_components():
    """x sees one split component plus a separate branch of its up-set; the
    separate branch must be carried and sent to the 0 side."""
    poset = FinPoset.from_covers(
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
    assert d.carrier(x) == ("*",)
    assert d.carrier(c) == ("0", "1")
    assert d.action(shape.mor_index["x->c"]) == {"*": "0"}


def test_shrink_witness_keeps_failure():
    shape = bowtie_cat()
    w = witness_no_cocone(shape)
    shrunk = shrink_witness(w)
    assert not has_cocone(shrunk)
    assert shrunk.total_elements() <= w.total_elements()


def test_shrink_removes_padding():
    d = bowtie_diagram()
    # pad every carrier with junk not reachable from the collision zigzag
    carriers = [c + (f"junk{i}",) for i, c in enumerate(d.carriers)]
    actions = []
    for i, m in enumerate(d.shape.morphisms):
        act = dict(d.actions[i])
        act[f"junk{m.dom}"] = f"junk{m.cod}"
        if m.dom == m.cod:
            act[f"junk{m.dom}"] = f"junk{m.dom}"
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
        col = has_cocone(w).collision
        action = zigzag_action(w, col.word())
        assert action.mapping.get(col.x) == col.y


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
    skel_carriers = [d.carrier(reps[v]) for v in range(len(poset))]
    skel_actions = []
    for m in skel_shape.morphisms:
        src = reps[m.dom]
        arrow = loop.hom(src, reps[m.cod])[0]
        skel_actions.append(dict(d.action(arrow)))
    skel = validate_diagram(skel_shape, skel_carriers, skel_actions)
    assert bool(has_cocone(d)) == bool(has_cocone(skel)) == True  # noqa: E712
