import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import corpus, fincat, serialize
from amalgam.fincat import (
    AssociativityViolation,
    CategoryError,
    DomCodMismatch,
    FinCategory,
    IdentityViolation,
    MissingComposite,
    NotAPreorder,
    PresentationError,
    category,
    is_congruence,
    is_preorder,
    monic_reflection,
    quotient_category,
    skeleton_poset,
    validate_category,
)
from amalgam.poset import FinPoset
from conftest import (
    bowtie_cat,
    category_from_poset,
    classes_of,
    collapsing_pair_cat,
    concrete_categories,
    congruence_close,
    corpus_names,
    cyclic_cat,
    dags,
    is_monic,
    left_zero_monoid_cat,
    naive_check_axioms,
    null_monoid_cat,
    parallel_pair_cat,
    partition_is_congruence,
    reachable_pairs,
    related,
    set_partitions,
    small_category_suite,
    span_poset,
    z2_cat,
    z3_cat,
)
from oracles import FunctorMap, all_posets, as_functor, components, congruence_from_parent


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
    assert components(cat, range(0)) == ()


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
    cat = bowtie_cat()
    assert len(components(cat, range(len(cat.objects)))) == 1
    assert len(components(category(["X", "Y"]), range(2))) == 2
    assert components(category([]), range(0)) == ()


def test_connected_components_match_matrix_closure():
    for cat in small_category_suite():
        reach = reachable_pairs(cat)
        parts = components(cat, range(len(cat.objects)))
        for i in range(len(cat.objects)):
            for j in range(len(cat.objects)):
                same = any(i in p and j in p for p in parts)
                assert same == reach[i][j]


def test_congruence_close_empty_seed_is_discrete():
    cat = bowtie_cat()
    cong = congruence_close(cat, [])
    assert all(len(cl) == 1 for cl in classes_of(cong))


def test_congruence_close_propagates_composition():
    cat = collapsing_pair_cat()
    u, v = cat.mor_index["u"], cat.mor_index["v"]
    cong = congruence_close(cat, [(u, v)])
    d = cat.mor_index["d"]
    assert related(cong, cat.compose(d, u), cat.compose(d, v))


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
                assert related(closed, f, g) == in_all


def test_quotient_by_congruence_is_valid_category():
    cat = collapsing_pair_cat()
    u, v = cat.mor_index["u"], cat.mor_index["v"]
    cong = congruence_close(cat, [(u, v)])
    quotient, projection = quotient_category(cat, cong)
    as_functor(cat, quotient, projection).validate()  # functor laws re-checked
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
    assert proj[u] == proj[v]
    assert is_monic(refl)
    # re-running the closure on the merged pair reproduces the projection kernel
    cong = congruence_close(cat, [(u, v)])
    for f in range(len(cat.morphisms)):
        for g in range(len(cat.morphisms)):
            assert (proj[f] == proj[g]) == related(cong, f, g)


def test_monic_reflection_of_group_is_identity():
    for cat in (z2_cat(), z3_cat()):
        refl, proj = monic_reflection(cat)
        assert len(refl.morphisms) == len(cat.morphisms)


def test_monic_reflection_idempotent():
    for cat in small_category_suite():
        refl, _ = monic_reflection(cat)
        again, proj = monic_reflection(refl)
        assert len(again.morphisms) == len(refl.morphisms)
        assert sorted(proj) == list(range(len(refl.morphisms)))


def test_monic_reflection_universal_factorization():
    """Any functor into a monic category factors through the reflection."""
    cat = collapsing_pair_cat()
    refl, proj = monic_reflection(cat)
    # G collapses u and v directly: target is the poset category C < B < D
    from amalgam.poset import FinPoset

    chain = category_from_poset(
        FinPoset(["C", "B", "D"], [(0, 1), (1, 2)])
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
        image = proj[f]
        assert lift.setdefault(image, mor_map[f]) == mor_map[f]
    factored = FunctorMap(
        refl, chain, obj_map, [lift[i] for i in range(len(refl.morphisms))]
    )
    factored.validate()


def test_functor_that_breaks_composition_is_refused():
    """r ↦ r and r2 ↦ r on Z_3 keeps the identity and the endpoints, but
    F(r∘r) = F(r2) = r while F(r)∘F(r) = r2.  The first pair in table order
    that breaks is named."""
    z3 = z3_cat()
    r, r2 = z3.mor_index["r"], z3.mor_index["r2"]
    mor_map = [0, r, r]
    assert (r, r2) == (1, 2)
    with pytest.raises(AssociativityViolation, match=r"functor breaks composition on \(r, r\)"):
        FunctorMap(z3, z3, [0], mor_map).validate()


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
    assert not poset.neighbour_masks[a] >> b & 1 and not poset.neighbour_masks[c] >> d & 1
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
    others = [i for i in range(len(cat.morphisms)) if i not in (d, w)]
    bad = tuple(0 if i in (d, w) else 1 + others.index(i) for i in range(len(cat.morphisms)))
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
        check(cat.objects, cat.morphisms, table)
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
    cong = congruence_from_parent(parent)
    assert is_congruence(cat, cong) == partition_is_congruence(cat, blocks)


def test_quotient_refuses_a_partition_that_is_not_a_congruence():
    """One partition glues arrows with different ends, the other a parallel
    pair whose composites with w stay apart: both are refused with one
    message, whichever check finds the fault."""
    cat = category(
        ["A", "B", "C"],
        [("u", "A", "B"), ("v", "A", "B"), ("w", "B", "C"), ("p", "A", "C"), ("q", "A", "C")],
        [("w", "u", "p"), ("w", "v", "q")],
    )
    u, v, w, p = (cat.mor_index[name] for name in ("u", "v", "w", "p"))
    n = len(cat.morphisms)
    not_parallel = list(range(n))
    not_parallel[p] = w
    incompatible = list(range(n))
    incompatible[v] = u
    for parent in (not_parallel, incompatible):
        cong = congruence_from_parent(parent)
        assert len(set(cong)) == n - 1 and not is_congruence(cat, cong)
        with pytest.raises(PresentationError, match=r"^partition is not a congruence$"):
            quotient_category(cat, cong)


@settings(max_examples=300, deadline=None)
@given(labelled_partitions())
def test_quotient_is_built_exactly_for_congruences(case):
    cat, blocks = case
    parent = list(range(len(cat.morphisms)))
    for block in blocks:
        for i in block:
            parent[i] = min(block)
    cong = congruence_from_parent(parent)
    if partition_is_congruence(cat, blocks):
        quotient, projection = quotient_category(cat, cong)
        assert len(quotient.morphisms) == len(blocks)
        assert projection == cong
    elif len(blocks) < len(cat.morphisms):
        with pytest.raises(PresentationError, match=r"^partition is not a congruence$"):
            quotient_category(cat, cong)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(AXIOM_SUITE) | concrete_categories())
def test_compose_and_the_rows_agree_with_the_table(cat):
    """The rows are the one table the checks read: every entry of the
    presentation is found by ``compose``, ``post`` and ``pre``, and
    ``place`` names each arrow's place among the arrows out of its domain."""
    hom_out, hom_in = cat.hom_out, cat.hom_in
    assert all(hom_out[m.dom][cat.place[i]] == i for i, m in enumerate(cat.morphisms))
    assert len(cat.table) == sum(len(hom_out[m.cod]) for m in cat.morphisms)
    for (g, f), r in cat.table.items():
        assert cat.compose(g, f) == r
    for f, m in enumerate(cat.morphisms):
        assert cat.post[f] == tuple(cat.table[(h, f)] for h in hom_out[m.cod])
        assert cat.pre[f] == [cat.table[(f, g)] for g in hom_in[m.dom]]


def _glued(cat, *pairs):
    """The partition of the category's morphisms that glues each named pair."""
    parent = list(range(len(cat.morphisms)))
    for a, b in pairs:
        parent[cat.mor_index[b]] = cat.mor_index[a]
    return congruence_from_parent(parent)


def test_a_quotient_checks_its_partition_once(monkeypatch):
    """A congruence that glues u and v is checked by one ``is_congruence``
    call; the projection is a functor by construction (the package has no
    functor check), as the test functor check confirms."""
    cat = collapsing_pair_cat()
    cong = _glued(cat, ("u", "v"))
    calls = []

    def counted(*args):
        calls.append(args)
        return is_congruence(*args)

    monkeypatch.setattr(fincat, "is_congruence", counted)
    quotient, projection = quotient_category(cat, cong)
    assert calls == [(cat, cong)]
    assert len(quotient.morphisms) == len(cat.morphisms) - 1
    assert projection == cong
    monkeypatch.undo()
    as_functor(cat, quotient, projection).validate()


def test_a_congruence_whose_classes_are_permuted_is_refused_by_name():
    """The quotient's identities are its first classes, so a congruence whose
    class x does not hold identity x is refused with the order it needs."""
    cat = collapsing_pair_cat()
    cong = _glued(cat, ("u", "v"))
    last = max(cong)
    swap = {0: last, last: 0}
    permuted = tuple(swap.get(k, k) for k in cong)
    assert is_congruence(cat, permuted)
    with pytest.raises(PresentationError, match=r"^class x of a congruence must hold identity x$"):
        quotient_category(cat, permuted)


def test_a_quotient_reads_the_class_map_it_is_given():
    """On Z_4: the map that merges every arrow gives the one-arrow quotient,
    and the map that merges r2 with the identity gives Z_2; the identity map
    alone returns Z_4 itself, and a map that renumbers r2 and r3 gives a
    copy of Z_4 in that order.  A map that does not give each arrow one of
    the classes 0..k-1 is refused by name, as is one that is no congruence."""
    z4 = cyclic_cat(4)
    assert quotient_category(z4, (0, 1, 2, 3))[0] is z4
    quotient, projection = quotient_category(z4, (0, 1, 3, 2))
    assert [m.name for m in quotient.morphisms] == ["id_X", "r1", "r3", "r2"]
    assert projection == (0, 1, 3, 2)
    quotient, projection = quotient_category(z4, (0, 0, 0, 0))
    assert [m.name for m in quotient.morphisms] == ["id_X"] and projection == (0, 0, 0, 0)
    quotient, projection = quotient_category(z4, (0, 1, 0, 1))
    assert [m.name for m in quotient.morphisms] == ["id_X", "r1"] and projection == (0, 1, 0, 1)
    as_functor(z4, quotient, projection).validate()
    for bad in ((0, 1, 2), (0, 2, 2, 2)):
        for reader in (quotient_category, is_congruence):
            with pytest.raises(PresentationError, match=r"^a class map "):
                reader(z4, bad)
    with pytest.raises(PresentationError, match=r"^partition is not a congruence$"):
        quotient_category(z4, (0, 1, 1, 2))


@pytest.mark.parametrize("pairs", [[("w", "d")], [("u", "v")]], ids=["ends", "composites"])
def test_a_partition_that_is_not_a_congruence_builds_no_quotient(monkeypatch, pairs):
    """Gluing arrows with different ends, or a parallel pair that ``w`` does
    not equalize, is refused before a quotient table is made."""
    cat = category(
        ["A", "B", "C"],
        [("u", "A", "B"), ("v", "A", "B"), ("w", "B", "C"), ("p", "A", "C"), ("q", "A", "C"),
         ("d", "A", "C")],
        [("w", "u", "p"), ("w", "v", "q")],
    )
    cong = _glued(cat, *pairs)
    built = []
    monkeypatch.setattr(fincat, "FinCategory", lambda *args: built.append(args))
    with pytest.raises(PresentationError, match=r"^partition is not a congruence$"):
        quotient_category(cat, cong)
    assert built == []


def test_from_parent_follows_chains_to_their_roots():
    parent = [0, 0, 1, 3, 2]  # 2 -> 1 -> 0 and 4 -> 2; 3 is its own root
    cong = congruence_from_parent(parent)
    assert classes_of(cong) == (frozenset({0, 1, 2, 4}), frozenset({3}))
    assert cong == (0, 0, 0, 1, 0)
    assert parent == [0, 0, 1, 3, 2]
    # a root may come after its members: 2 -> 0 -> 1
    assert classes_of(congruence_from_parent([1, 1, 0])) == (frozenset({0, 1, 2}),)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=12))
def test_from_parent_matches_the_classes_of_its_forest(raw):
    # entry i points to an earlier index or to itself, so the array is a forest
    parent = [min(p, i) for i, p in enumerate(raw)]
    cong = congruence_from_parent(parent)

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    groups = {}
    for i in range(len(parent)):
        groups.setdefault(root(i), set()).add(i)
    classes = classes_of(cong)
    assert set(classes) == set(map(frozenset, groups.values()))
    assert [min(cl) for cl in classes] == sorted(min(cl) for cl in classes)


def test_monic_reflection_of_poset_is_the_shape_itself():
    for ps in all_posets(5).values():
        for p in ps:
            cat = category_from_poset(p)
            refl, proj = monic_reflection(cat)
            assert refl is cat
            assert proj == tuple(range(len(cat.morphisms)))
            as_functor(cat, refl, proj).validate()


def test_monic_reflection_collapses_left_zero_monoid():
    refl, proj = monic_reflection(left_zero_monoid_cat(3))
    assert len(refl.morphisms) == 1
    assert set(proj) == {0}


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


def _reference_skeleton(cat):
    """Skeleton from the reachability relation, class by least object."""
    reach = {(m.dom, m.cod) for m in cat.morphisms}
    reps, class_of = [], []
    for x in range(len(cat.objects)):
        rep = next(r for r in range(x + 1) if (r, x) in reach and (x, r) in reach)
        if rep == x:
            reps.append(x)
        class_of.append(reps.index(rep))
    pairs = {(class_of[a], class_of[b]) for a, b in reach}
    return FinPoset([cat.objects[r] for r in reps], pairs), tuple(class_of)


def test_skeleton_poset_matches_reachability_reference():
    loop = category(
        ["X", "Y", "Z"],
        [("s", "X", "Y"), ("t", "Y", "X"), ("u", "Y", "Z"), ("v", "X", "Z")],
        [("t", "s", "id_X"), ("s", "t", "id_Y"), ("u", "s", "v"), ("v", "t", "u")],
    )
    cats = AXIOM_SUITE + [monic_reflection(c)[0] for c in AXIOM_SUITE] + [loop]
    preorders = [c for c in cats if is_preorder(c)]
    assert len(preorders) > 30
    for cat in preorders:
        assert skeleton_poset(cat) == _reference_skeleton(cat)


def _skeletons_agree_on_all_morphism_ends(cat) -> int:
    """The skeleton of the category, and of its monic reflection, where each
    is a preorder, is the poset built from the ends of every morphism, not
    only the generators'.  Returns how many skeletons were compared."""
    compared = 0
    for c in (cat, monic_reflection(cat)[0]):
        if is_preorder(c):
            poset, class_of = skeleton_poset(c)
            ends = [(class_of[m.dom], class_of[m.cod]) for m in c.morphisms]
            assert poset == FinPoset(poset.elements, ends), c
            compared += 1
    return compared


def test_a_skeleton_is_built_from_generator_ends_on_the_suite_and_the_corpus():
    cats = list(AXIOM_SUITE)
    for name in corpus_names():
        doc = serialize.load_document(corpus.resolve(name))
        if doc["type"] == "category":
            cats.append(serialize.category_from_doc(doc))
        elif doc["type"] == "poset":
            cats.append(category_from_poset(serialize.poset_from_doc(doc)))
    assert sum(map(_skeletons_agree_on_all_morphism_ends, cats)) > 60


@settings(max_examples=150, deadline=None)
@given(concrete_categories())
def test_a_skeleton_is_built_from_generator_ends_on_concrete_categories(cat):
    _skeletons_agree_on_all_morphism_ends(cat)


# -- generators and Light's associativity test -----------------------------------

def _right_nested_composites(cat, generators) -> set[int]:
    """Every g1∘(g2∘(…∘gk)) of the generators, by rounds over all morphisms."""
    reached = set(generators)
    while True:
        fresh = {
            cat.compose(g, x)
            for g in generators
            for x in reached
            if cat.morphisms[x].cod == cat.morphisms[g].dom
        } - reached
        if not fresh:
            return reached
        reached |= fresh


GENERATED = (
    AXIOM_SUITE
    + [cyclic_cat(n) for n in range(7, 9)]
    + [left_zero_monoid_cat(k) for k in (1, 2, 4)]
    + [monic_reflection(c)[0] for c in small_category_suite()]
)


def generators(shape) -> tuple[int, ...]:
    return tuple(g for g, _, _ in shape.generator_ends)


def test_generators_reach_every_non_identity():
    for cat in GENERATED:
        gens = generators(cat)
        assert [(g, cat.morphisms[g].dom, cat.morphisms[g].cod) for g in gens] == list(
            cat.generator_ends
        )
        assert list(gens) == sorted(set(gens))
        assert not any(map(cat.is_identity, gens))
        arrows = {m for m in range(len(cat.morphisms)) if not cat.is_identity(m)}
        assert arrows <= _right_nested_composites(cat, gens), cat


def test_every_generator_is_needed_or_irreducible():
    """A generator is irreducible, or the ones before it do not reach it."""
    for cat in GENERATED:
        for k, g in enumerate(generators(cat)):
            irreducible = not any(
                cat.compose(a, b) == g and g not in (a, b)
                for b in range(len(cat.morphisms))
                for a in cat.hom_out[cat.morphisms[b].cod]
                if not (cat.is_identity(a) or cat.is_identity(b))
            )
            earlier = generators(cat)[:k]
            assert irreducible or g not in _right_nested_composites(cat, earlier), (cat, g)


def test_generators_are_the_covers_of_a_poset():
    for ps in all_posets(5).values():
        for p in ps:
            cat = category_from_poset(p)
            covers = tuple(cat.mor_index[f"{p.elements[a]}->{p.elements[b]}"]
                           for _, a, b in p.generator_ends)
            assert generators(cat) == covers and cat.generator_ends == p.generator_ends


@settings(max_examples=100, deadline=None)
@given(dags())
def test_generators_are_the_covers_of_a_random_dag(case):
    p = case[0]
    assert category_from_poset(p).generator_ends == p.generator_ends


def test_generators_are_proper_on_monoids():
    """Z_n is generated by its first arrow; a left zero is never a composite
    of other arrows, so each is a generator."""
    for n in range(1, 9):
        assert generators(cyclic_cat(n)) == tuple(range(1, min(n, 2)))
    for k in (1, 2, 4):
        assert generators(left_zero_monoid_cat(k)) == tuple(range(1, k + 1))
    assert generators(z3_cat()) == (1,)
    assert generators(null_monoid_cat()) == (1,)  # z = a∘a


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=9, max_size=9))
def test_three_arrow_monoid_tables_match_naive_oracle(values):
    """Random products of a, b, c in {id, a, b, c}: associative monoids,
    cyclic ones whose every element is a composite, and tables that fail
    associativity only away from the irreducibles."""
    cat = category(["X"], [(m, "X", "X") for m in "abc"],
                   [(g, f, "a") for g in "abc" for f in "abc"])
    table = dict(cat.table)
    table.update(zip([(g, f) for g in (1, 2, 3) for f in (1, 2, 3)], values))
    expected = _check_outcome(naive_check_axioms, cat, table)
    assert _check_outcome(FinCategory, cat, table) == expected
