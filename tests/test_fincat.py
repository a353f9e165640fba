import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.fincat import (
    AssociativityViolation,
    CategoryError,
    Congruence,
    DomCodMismatch,
    FinCategory,
    FunctorMap,
    IdentityViolation,
    MissingComposite,
    NonParallelSeed,
    NotAPreorder,
    PresentationError,
    category,
    category_from_poset,
    congruence_close,
    connected_components,
    is_congruence,
    is_monic,
    is_preorder,
    monic_reflection,
    quotient_category,
    skeleton_poset,
    validate_category,
)
from amalgam.gen import all_posets
from conftest import (
    bowtie_cat,
    collapsing_pair_cat,
    cyclic_cat,
    left_zero_monoid_cat,
    naive_check_axioms,
    null_monoid_cat,
    parallel_pair_cat,
    partition_is_congruence,
    reachable_pairs,
    set_partitions,
    small_category_suite,
    span_poset,
    z2_cat,
    z3_cat,
)


def test_validate_bowtie():
    cat = bowtie_cat()
    assert len(cat.objects) == 4
    assert len(cat.morphisms) == 8  # four identities, four arrows
    assert cat.hom(cat.obj_index["C"], cat.obj_index["A"]) != ()


def test_validate_single_object():
    cat = category(["X"])
    assert len(cat.morphisms) == 1
    assert cat.compose(0, 0) == 0


def test_validate_empty_category():
    cat = category([])
    assert cat.objects == ()
    assert connected_components(cat) == ()


def test_missing_composite():
    with pytest.raises(MissingComposite):
        category(["X"], [("a", "X", "X")])  # a∘a unlisted


def test_dom_cod_mismatch():
    with pytest.raises(DomCodMismatch):
        category(
            ["X", "Y"],
            [("a", "X", "Y"), ("b", "X", "Y")],
            [("b", "a", "a")],  # not composable
        )


def test_bad_composite_endpoints():
    with pytest.raises(DomCodMismatch):
        category(
            ["X", "Y"],
            [("a", "X", "Y"), ("e", "X", "X")],
            [("a", "e", "e")],  # a∘e should go X -> Y
        )


def test_identity_violation():
    with pytest.raises(IdentityViolation):
        category(
            ["X"],
            [("a", "X", "X"), ("b", "X", "X")],
            [
                ("a", "id_X", "b"),  # contradicts the identity law
                ("a", "a", "a"),
                ("a", "b", "b"),
                ("b", "a", "a"),
                ("b", "b", "b"),
            ],
        )


def test_associativity_violation():
    # a∘a = b, b∘a = a, a∘b = b, b∘b = b: (a∘a)∘a = a but a∘(a∘a) = b
    with pytest.raises(AssociativityViolation):
        category(
            ["X"],
            [("a", "X", "X"), ("b", "X", "X")],
            [("a", "a", "b"), ("b", "a", "a"), ("a", "b", "b"), ("b", "b", "b")],
        )


def test_duplicate_names_rejected():
    with pytest.raises(PresentationError):
        category(["X", "X"])
    with pytest.raises(PresentationError):
        category(["X"], [("a", "X", "X"), ("a", "X", "X")])


def test_connected_components_examples():
    assert len(connected_components(bowtie_cat())) == 1
    two = category(["X", "Y"])
    assert len(connected_components(two)) == 2
    assert connected_components(category([])) == ()


def test_connected_components_match_matrix_closure():
    for cat in small_category_suite():
        reach = reachable_pairs(cat)
        parts = connected_components(cat)
        for i in range(len(cat.objects)):
            for j in range(len(cat.objects)):
                same = any(i in p and j in p for p in parts)
                assert same == reach[i][j]


def test_congruence_close_empty_seed_is_discrete():
    cat = bowtie_cat()
    cong = congruence_close(cat, [])
    assert all(len(cl) == 1 for cl in cong.classes)


def test_congruence_close_rejects_non_parallel():
    cat = bowtie_cat()
    f = cat.mor_index["f"]
    h = cat.mor_index["h"]
    with pytest.raises(NonParallelSeed):
        congruence_close(cat, [(f, h)])


def test_congruence_close_propagates_composition():
    cat = collapsing_pair_cat()
    u, v = cat.mor_index["u"], cat.mor_index["v"]
    cong = congruence_close(cat, [(u, v)])
    d = cat.mor_index["d"]
    assert cong.related(cat.compose(d, u), cat.compose(d, v))


def test_congruence_close_is_least_vs_brute_force():
    """The closure equals the intersection of all congruences containing the seed."""
    for cat in small_category_suite():
        pairs = list(cat.parallel_pairs())
        if not pairs:
            continue
        seed = pairs[0]
        closed = congruence_close(cat, [seed])
        congruences = [
            blocks
            for blocks in set_partitions(range(len(cat.morphisms)))
            if partition_is_congruence(cat, blocks)
            and any(seed[0] in b and seed[1] in b for b in blocks)
        ]
        assert congruences
        for f in range(len(cat.morphisms)):
            for g in range(len(cat.morphisms)):
                in_all = all(
                    any(f in b and g in b for b in blocks) for blocks in congruences
                )
                assert closed.related(f, g) == in_all


def test_quotient_by_congruence_is_valid_category():
    cat = collapsing_pair_cat()
    u, v = cat.mor_index["u"], cat.mor_index["v"]
    cong = congruence_close(cat, [(u, v)])
    quotient, projection = quotient_category(cat, cong)
    projection.validate()  # functor laws re-checked
    assert len(quotient.morphisms) == len(cat.morphisms) - 1


def test_monic_reflection_bowtie_unchanged():
    cat = bowtie_cat()
    refl, proj = monic_reflection(cat)
    assert len(refl.morphisms) == len(cat.morphisms)
    assert is_monic(refl)


def test_monic_reflection_merges_equalized_pair():
    cat = collapsing_pair_cat()
    refl, proj = monic_reflection(cat)
    u, v = cat.mor_index["u"], cat.mor_index["v"]
    assert proj.mor_map[u] == proj.mor_map[v]
    assert is_monic(refl)
    # re-running the closure on the merged pair reproduces the projection kernel
    cong = congruence_close(cat, [(u, v)])
    for f in range(len(cat.morphisms)):
        for g in range(len(cat.morphisms)):
            assert (proj.mor_map[f] == proj.mor_map[g]) == cong.related(f, g)


def test_monic_reflection_of_group_is_identity():
    for cat in (z2_cat(), z3_cat()):
        refl, proj = monic_reflection(cat)
        assert len(refl.morphisms) == len(cat.morphisms)


def test_monic_reflection_idempotent():
    for cat in small_category_suite():
        refl, _ = monic_reflection(cat)
        again, proj = monic_reflection(refl)
        assert len(again.morphisms) == len(refl.morphisms)
        assert sorted(proj.mor_map) == list(range(len(refl.morphisms)))


def test_monic_reflection_universal_factorization():
    """Any functor into a monic category factors through the reflection."""
    cat = collapsing_pair_cat()
    refl, proj = monic_reflection(cat)
    # G collapses u and v directly: target is the poset category C < B < D
    from amalgam.poset import FinPoset

    chain = category_from_poset(
        FinPoset.from_covers(["C", "B", "D"], [(0, 1), (1, 2)])
    )
    obj_map = [chain.obj_index[name] for name in cat.objects]
    mor_map = []
    for m in cat.morphisms:
        mor_map.append(chain.hom(obj_map[m.dom], obj_map[m.cod])[0])
    functor = FunctorMap(cat, chain, obj_map, mor_map)
    functor.validate()
    # exhibit H with H∘proj = functor
    lift = {}
    for f in range(len(cat.morphisms)):
        image = proj.mor_map[f]
        assert lift.setdefault(image, mor_map[f]) == mor_map[f]
    factored = FunctorMap(
        refl, chain, obj_map, [lift[i] for i in range(len(refl.morphisms))]
    )
    factored.validate()


def test_is_monic_examples():
    assert is_monic(bowtie_cat())
    assert is_monic(parallel_pair_cat())
    assert not is_monic(null_monoid_cat())  # a·a = a·z = z with a != z


def test_is_preorder_examples():
    assert is_preorder(bowtie_cat())
    assert not is_preorder(parallel_pair_cat())


def test_skeleton_poset_bowtie():
    poset, class_of = skeleton_poset(bowtie_cat())
    assert len(poset) == 4
    c, a, b, d = (poset.elements.index(x) for x in "CABD")
    assert poset.leq(c, a) and poset.leq(c, b)
    assert poset.leq(d, a) and poset.leq(d, b)
    assert not poset.comparable(a, b) and not poset.comparable(c, d)
    assert list(class_of) == [0, 1, 2, 3]


def test_skeleton_poset_collapses_loops():
    loop = category(
        ["X", "Y"],
        [("s", "X", "Y"), ("t", "Y", "X")],
        [("t", "s", "id_X"), ("s", "t", "id_Y")],
    )
    poset, class_of = skeleton_poset(loop)
    assert len(poset) == 1
    assert class_of == (0, 0)


def test_skeleton_poset_chain_unchanged():
    chain = category_from_poset(
        span_poset()
    )
    poset, class_of = skeleton_poset(chain)
    assert len(poset) == 3
    assert class_of == (0, 1, 2)


def test_skeleton_requires_preorder():
    with pytest.raises(NotAPreorder):
        skeleton_poset(parallel_pair_cat())


def test_is_congruence_validates_partitions():
    cat = collapsing_pair_cat()
    u, v = cat.mor_index["u"], cat.mor_index["v"]
    good = congruence_close(cat, [(u, v)])
    assert is_congruence(cat, good)
    d, w = cat.mor_index["d"], cat.mor_index["w"]
    bad = Congruence(
        (frozenset({d, w}),) + tuple(frozenset({i}) for i in range(len(cat.morphisms)) if i not in (d, w)),
        tuple(0 if i in (d, w) else 1 + sorted(set(range(len(cat.morphisms))) - {d, w}).index(i) for i in range(len(cat.morphisms))),
    )
    assert not is_congruence(cat, bad)  # d and w are not parallel


def test_validate_category_raw_roundtrip():
    raw = {
        "objects": ["A", "B"],
        "morphisms": [{"name": "a", "dom": "A", "cod": "B"}],
        "compose": [],
    }
    cat = validate_category(raw)
    assert cat.morphisms[cat.mor_index["a"]].dom == cat.obj_index["A"]


# -- the indexed core against its naive references -----------------------------

AXIOM_SUITE = (
    [category_from_poset(p) for ps in all_posets(4).values() for p in ps]
    + small_category_suite()
    + [cyclic_cat(n) for n in range(1, 7)]
    + [left_zero_monoid_cat(3)]
)


def _check_outcome(check, cat, table):
    try:
        check(cat.objects, cat.morphisms, cat.identity, table)
    except CategoryError as exc:
        return type(exc), str(exc)
    return None


def test_valid_tables_accepted_by_both_checks():
    for cat in AXIOM_SUITE:
        assert _check_outcome(naive_check_axioms, cat, cat.table) is None
        assert _check_outcome(FinCategory, cat, cat.table) is None


def test_every_single_entry_corruption_matches_naive_oracle():
    """Each entry deleted, or redirected to each other morphism, raises the
    same exception class and message as the all-morphism scan."""
    for cat in AXIOM_SUITE:
        for key, value in cat.table.items():
            for target in [None] + [r for r in range(len(cat.morphisms)) if r != value]:
                table = dict(cat.table)
                if target is None:
                    del table[key]
                else:
                    table[key] = target
                expected = _check_outcome(naive_check_axioms, cat, table)
                assert _check_outcome(FinCategory, cat, table) == expected


def test_every_two_arrow_monoid_table_matches_naive_oracle():
    """All 81 ways to fill the products of a, b in {id, a, b}: some fail
    associativity first on the last arrow, some are monoids."""
    cat = category(["X"], [("a", "X", "X"), ("b", "X", "X")],
                   [(g, f, "a") for g in "ab" for f in "ab"])
    for values in itertools.product(range(3), repeat=4):
        table = dict(cat.table)
        table.update(zip([(1, 1), (1, 2), (2, 1), (2, 2)], values))
        expected = _check_outcome(naive_check_axioms, cat, table)
        assert _check_outcome(FinCategory, cat, table) == expected


@st.composite
def corrupted_tables(draw):
    """A suite category with two or three table entries deleted or redirected."""
    cat = draw(st.sampled_from([c for c in AXIOM_SUITE if c.table]))
    table = dict(cat.table)
    keys = sorted(table)
    for _ in range(draw(st.integers(2, 3))):
        key = draw(st.sampled_from(keys))
        target = draw(st.none() | st.integers(0, len(cat.morphisms) - 1))
        if target is None:
            table.pop(key, None)
        else:
            table[key] = target
    return cat, table


@settings(max_examples=400, deadline=None)
@given(corrupted_tables())
def test_axiom_check_matches_naive_oracle(case):
    """With several faults, the first one reported is the naive scan's."""
    cat, table = case
    expected = _check_outcome(naive_check_axioms, cat, table)
    assert _check_outcome(FinCategory, cat, table) == expected


@st.composite
def labelled_partitions(draw):
    """A suite category and a partition of its morphisms into at most three
    labels, kept within hom-sets half of the time so that congruences occur."""
    cat = draw(st.sampled_from(AXIOM_SUITE))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(cat.morphisms),
                           max_size=len(cat.morphisms)))
    if draw(st.booleans()):
        labels = [(m.dom, m.cod, k) for m, k in zip(cat.morphisms, labels)]
    blocks: dict = {}
    for i, k in enumerate(labels):
        blocks.setdefault(k, []).append(i)
    return cat, list(blocks.values())


@settings(max_examples=300, deadline=None)
@given(labelled_partitions())
def test_is_congruence_matches_definition(case):
    cat, blocks = case
    parent = [0] * len(cat.morphisms)
    for block in blocks:
        for i in block:
            parent[i] = min(block)
    cong = Congruence.from_parent(parent)
    assert is_congruence(cat, cong) == partition_is_congruence(cat, blocks)


def test_monic_reflection_of_poset_is_the_shape_itself():
    for ps in all_posets(5).values():
        for p in ps:
            cat = category_from_poset(p)
            refl, proj = monic_reflection(cat)
            assert refl is cat
            assert proj.source is cat and proj.target is cat
            assert proj.obj_map == tuple(range(len(cat.objects)))
            assert proj.mor_map == tuple(range(len(cat.morphisms)))


def test_monic_reflection_collapses_left_zero_monoid():
    refl, proj = monic_reflection(left_zero_monoid_cat(3))
    assert len(refl.morphisms) == 1
    assert set(proj.mor_map) == {0}


def test_parallel_pairs_match_double_loop():
    for cat in AXIOM_SUITE:
        ms = cat.morphisms
        expected = [
            (f, g)
            for g in range(len(ms))
            for f in range(g)
            if (ms[f].dom, ms[f].cod) == (ms[g].dom, ms[g].cod)
        ]
        assert list(cat.parallel_pairs()) == expected


def test_hom_and_is_monic_match_scans():
    for cat in AXIOM_SUITE:
        for x in range(len(cat.objects)):
            for y in range(len(cat.objects)):
                assert cat.hom(x, y) == tuple(
                    i for i, m in enumerate(cat.morphisms) if (m.dom, m.cod) == (x, y)
                )
        ms = cat.morphisms
        monic = all(
            cat.compose(h, f) != cat.compose(h, g)
            for g in range(len(ms))
            for f in range(g)
            if (ms[f].dom, ms[f].cod) == (ms[g].dom, ms[g].cod)
            for h in range(len(ms))
            if ms[h].dom == ms[f].cod
        )
        assert is_monic(cat) == monic
