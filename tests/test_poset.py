import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.fincat import PresentationError
from amalgam.poset import (
    DecompositionNode,
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    NotAPartialOrder,
    _component_masks,
    _members,
    is_forest_like,
    replay_certificate,
    upward_closure,
    verify_certificate,
    verify_witness,
    witness_points,
)
from conftest import (
    TooLarge,
    as_masks,
    boat_poset,
    bowtie_poset,
    brute_force_tree_like,
    category_from_poset,
    chain,
    crown_poset,
    dags,
    mask,
    members,
    recursive_forest_like,
    replaced_witness,
    span_poset,
    with_points,
)
from oracles import (
    all_posets,
    components,
    minimal,
    restrict,
    simply_connected_bounded,
    upward_closed_subsets,
)


def test_poset_validation():
    with pytest.raises(NotAPartialOrder):
        FinPoset(["a", "b"], [(0, 1), (1, 0)])  # antisymmetry
    FinPoset(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])


def test_a_pair_list_that_is_not_transitively_closed_builds_its_closure():
    p = FinPoset(["a", "b", "c"], [(0, 1), (1, 2)])
    assert p == FinPoset(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    assert p.relation_pairs() == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}


def test_covers_close():
    p = chain(3)
    assert p.leq(0, 2)
    assert p.leq(0, 0)


def test_upward_closure_examples():
    p = bowtie_poset()
    c = p.elements.index("C")
    assert upward_closure(p, {c}) == {c, p.elements.index("A"), p.elements.index("B")}
    a = p.elements.index("A")
    assert upward_closure(p, {a}) == {a}
    assert upward_closure(p, set()) == frozenset()


def test_components_examples():
    p = bowtie_poset()
    a, b, c, d = (p.elements.index(x) for x in "ABCD")
    assert components(p, {a, b, d}) == (frozenset({a, b, d}),)
    assert components(p, {a, b}) == (frozenset({a}), frozenset({b}))
    assert components(p, {a}) == (frozenset({a}),)
    assert components(p, set()) == ()


def test_bowtie_witness():
    p = bowtie_poset()
    result = is_forest_like(p)
    assert isinstance(result, NonForestWitness)
    assert p.elements[result.x] == "C"
    assert {p.elements[e] for e in members(result.component)} == {"A", "B", "D"}
    assert len(result.upset_components) == 2
    assert verify_witness(p, result)


def test_boat_witness_region_excludes_bottom():
    p = boat_poset()
    result = is_forest_like(p)
    assert isinstance(result, NonForestWitness)
    region = witness_points(p, result)[3]
    assert {p.elements[e] for e in members(region)} == {"A", "B", "C", "D"}
    assert verify_witness(p, result)


def test_span_certificate():
    p = span_poset()
    result = is_forest_like(p)
    assert isinstance(result, ForestCertificate)
    assert len(result.roots) == 1
    root = result.roots[0]
    assert p.elements[root.point] == "p"
    assert len(root.children) == 2
    assert all(u.bit_count() == 1 for u in root.upsets)
    assert verify_certificate(p, result)


def test_empty_poset_is_forest_like():
    p = FinPoset([], [])
    result = is_forest_like(p)
    assert isinstance(result, ForestCertificate)
    assert result.roots == ()
    assert verify_certificate(p, result)


def test_certificate_replay_reconstructs():
    for p in (span_poset(), chain(4), boat_poset()):
        result = is_forest_like(p)
        if isinstance(result, ForestCertificate):
            elems, pairs = replay_certificate(result)
            assert elems == frozenset(range(len(p)))
            assert pairs == p.relation_pairs()


def test_witness_zigzag_stays_in_component_and_alternates():
    for p in (bowtie_poset(), crown_poset()):
        w = is_forest_like(p)
        assert isinstance(w, NonForestWitness)
        u, v, z, _ = witness_points(p, w)
        assert z[0] == u and z[-1] == v
        assert set(z) <= members(w.component)
        dirs = [p.leq(a, b) for a, b in zip(z, z[1:])]
        assert all(x != y for x, y in zip(dirs, dirs[1:]))
        # endpoints in distinct pieces of the up-set
        assert not any(
            {u, v} <= members(part) for part in w.upset_components
        )


def test_brute_force_examples():
    assert brute_force_tree_like(chain(3))
    assert not brute_force_tree_like(bowtie_poset())
    assert brute_force_tree_like(FinPoset(["x"], []))


def test_brute_force_bounds():
    with pytest.raises(TooLarge):
        brute_force_tree_like(chain(9))
    with pytest.raises(ValueError):
        brute_force_tree_like(FinPoset(["a", "b"], []))  # disconnected


def test_simply_connected_examples():
    assert simply_connected_bounded(bowtie_poset()) is False
    assert simply_connected_bounded(boat_poset()) is True
    for n in (1, 2, 5):
        assert simply_connected_bounded(chain(n)) is True
    assert simply_connected_bounded(crown_poset()) is False
    assert simply_connected_bounded(FinPoset([], [])) is True


def test_simply_connected_disjoint_chains():
    p = FinPoset(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    assert simply_connected_bounded(p) is True


def test_simply_connected_unknown_when_budget_exhausted():
    # an exhausted budget must answer in-band, never guess
    p = FinPoset(
        [f"e{i}" for i in range(6)],
        [(0, 2), (0, 4), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
    )
    assert simply_connected_bounded(p, max_cosets=2) is None
    assert simply_connected_bounded(p) is True


def test_witness_region_refutes_simple_connectedness():
    """The recorded region is an upward-closed subposet that fails the
    topological test, for every non-forest poset up to 5 elements."""
    from amalgam.poset import upward_closure

    for n in range(4, 6):
        for p in all_posets(5)[n]:
            w = is_forest_like(p)
            if isinstance(w, ForestCertificate):
                continue
            region = members(witness_points(p, w)[3])
            assert upward_closure(p, region) == region
            sub, _ = restrict(p, region)
            assert simply_connected_bounded(sub) is False, p


def test_restrict_induced_subposet():
    p = boat_poset()
    keep = [p.elements.index(x) for x in "ABCD"]
    q, index = restrict(p, keep)
    assert q == bowtie_poset()
    assert index[p.elements.index("A")] == 0


def test_upward_closed_subsets_of_span():
    p = span_poset()
    subs = upward_closed_subsets(p)
    a, b, top_p = (p.elements.index(x) for x in ("a", "b", "p"))
    assert frozenset() in subs
    assert frozenset({a}) in subs
    assert frozenset({a, b}) in subs
    assert frozenset({top_p}) not in subs  # p is below a and b
    assert frozenset({top_p, a, b}) in subs
    assert len(subs) == 5


def test_covers_reject_cycles_and_keep_loops():
    with pytest.raises(NotAPartialOrder):
        FinPoset(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NotAPartialOrder):
        FinPoset(["a", "b"], [(0, 2)])
    assert FinPoset(["a", "b"], [(0, 0), (0, 1)]) == FinPoset(["a", "b"], [(0, 1)])


def test_repeated_names_are_rejected():
    with pytest.raises(NotAPartialOrder, match="element names must be distinct"):
        FinPoset(["a", "b", "a"], [(0, 1)])


def _closure(n, covers):
    rel = {(i, i) for i in range(n)} | set(covers)
    while True:
        more = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not more:
            return rel
        rel |= more


def _reference_components(n, rel, subset):
    parts = []
    left = sorted(subset)
    while left:
        comp, frontier = {left[0]}, [left[0]]
        while frontier:
            a = frontier.pop()
            for b in left:
                if b not in comp and ((a, b) in rel or (b, a) in rel):
                    comp.add(b)
                    frontier.append(b)
        parts.append(frozenset(comp))
        left = [b for b in left if b not in comp]
    return tuple(parts)


def check_against_pairs(p, rel, subset):
    """Every mask-backed query agrees with its definition over the pair set."""
    n = len(p)
    assert p.relation_pairs() == rel
    covers = sorted(
        (a, b) for a, b in rel
        if a != b and not any(c not in (a, b) and (a, c) in rel and (c, b) in rel for c in range(n))
    )
    assert [(a, b) for _, a, b in p.generator_ends] == covers
    for a in range(n):
        assert _members(p.up_masks[a]) == {b for b in range(n) if (a, b) in rel}
        assert _members(p.down_masks[a]) == {b for b in range(n) if (b, a) in rel}
        for b in range(n):
            assert p.leq(a, b) == ((a, b) in rel)
            assert (p.neighbour_masks[a] >> b & 1 == 1) == ((a, b) in rel or (b, a) in rel)
    assert minimal(p, subset) == sorted(
        a for a in subset if not any(b != a and (b, a) in rel for b in subset)
    )
    assert minimal(p) == minimal(p, range(n))
    assert components(p, subset) == _reference_components(n, rel, subset)
    assert upward_closure(p, subset) == {b for a in subset for b in range(n) if (a, b) in rel}
    if n <= 8:
        closed = [
            frozenset(s)
            for k in range(n + 1)
            for s in combinations(range(n), k)
            if all((a, b) not in rel or b in s for a in s for b in range(n))
        ]
        assert upward_closed_subsets(p) == sorted(closed, key=lambda s: (len(s), sorted(s)))


@settings(max_examples=150, deadline=None)
@given(dags())
def test_mask_queries_match_the_pair_set(case):
    p, covers, subset = case
    check_against_pairs(p, _closure(len(p), covers), subset)
    assert FinPoset(p.elements, p.relation_pairs()) == p
    assert with_points(p, is_forest_like(p)) == as_masks(recursive_forest_like(p))


def test_decomposition_matches_the_recursive_reference_on_all_posets_of_six():
    for posets in all_posets(6).values():
        for p in posets:
            assert with_points(p, is_forest_like(p)) == as_masks(recursive_forest_like(p)), p


def _forged_bowtie():
    """A certificate for the bowtie p, q < a, b that replays its relation
    exactly, though the up-set {a, b} below p is disconnected."""
    p = FinPoset(["p", "q", "a", "b"], [(0, 2), (0, 3), (1, 2), (1, 3)])
    leaf_a, leaf_b = DecompositionNode(2, (), ()), DecompositionNode(3, (), ())
    q = DecompositionNode(1, (leaf_a, leaf_b), (mask({2}), mask({3})))
    return p, DecompositionNode(0, (q,), (mask({2, 3}),))


def test_forged_certificates_are_rejected():
    bowtie, root = _forged_bowtie()
    cert = ForestCertificate((root,))
    assert replay_certificate(cert)[1] == bowtie.relation_pairs()
    assert not verify_certificate(bowtie, cert)
    # the same forgery one level down, below a new least element r
    cone = FinPoset(["r", "p", "q", "a", "b"], [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)])

    def moved(node):  # every index one higher: each mask shifts by one bit
        return DecompositionNode(
            node.point + 1,
            tuple(moved(c) for c in node.children),
            tuple(u << 1 for u in node.upsets),
        )

    cert = ForestCertificate((DecompositionNode(0, (moved(root),), (mask({1, 2, 3, 4}),)),))
    assert replay_certificate(cert)[1] == cone.relation_pairs()
    assert not verify_certificate(cone, cert)
    # subtrees sharing c: the up-set {b} of the first is not upward-closed in {b, c}
    chain3 = chain(3)
    leaf_c = DecompositionNode(2, (), ())
    b = DecompositionNode(1, (leaf_c,), (mask({2}),))
    cert = ForestCertificate((DecompositionNode(0, (b, leaf_c), (mask({1}), mask({2}))),))
    assert replay_certificate(cert) == (frozenset(range(3)), chain3.relation_pairs())
    assert not verify_certificate(chain3, cert)


def test_certificates_that_adjoin_an_element_twice_are_rejected():
    span = span_poset()  # p < a, b
    p, a, b = (span.elements.index(x) for x in "pab")
    leaf_a, leaf_b = DecompositionNode(a, (), ()), DecompositionNode(b, (), ())
    good = DecompositionNode(p, (leaf_a, leaf_b), (mask({a}), mask({b})))
    assert verify_certificate(span, ForestCertificate((good,)))
    # a second tree repeating a
    assert not verify_certificate(span, ForestCertificate((good, leaf_a)))
    # p adjoined again inside its own child: every up-set is connected and
    # upward-closed in its child, and the replayed order is the poset's
    again = DecompositionNode(p, (leaf_a,), (mask({a}),))
    root = DecompositionNode(p, (again, leaf_b), (mask({p, a}), mask({b})))
    assert replay_certificate(ForestCertificate((root,)))[1] == span.relation_pairs()
    assert not verify_certificate(span, ForestCertificate((root,)))


def test_certificates_of_another_order_are_rejected():
    antichain = FinPoset(["x", "y"], [])
    below = ForestCertificate((DecompositionNode(0, (DecompositionNode(1, (), ()),), (mask({1}),)),))
    apart = ForestCertificate((DecompositionNode(0, (), ()), DecompositionNode(1, (), ())))
    assert verify_certificate(chain(2), below) and verify_certificate(antichain, apart)
    assert not verify_certificate(antichain, below)
    assert not verify_certificate(chain(2), apart)


def test_certificates_with_misplaced_upsets_are_rejected():
    span = span_poset()  # p < a, b
    p, a, b = (span.elements.index(x) for x in "pab")
    leaf_a, leaf_b = DecompositionNode(a, (), ()), DecompositionNode(b, (), ())
    # the up-sets swapped: each lies in the other child, and the replayed order is right
    swapped = DecompositionNode(p, (leaf_a, leaf_b), (mask({b}), mask({a})))
    assert replay_certificate(ForestCertificate((swapped,)))[1] == span.relation_pairs()
    assert not verify_certificate(span, ForestCertificate((swapped,)))
    # an up-set reaching into the other child: each meets its own child in a
    # connected set, and the replayed order is right
    reaching = DecompositionNode(p, (leaf_a, leaf_b), (mask({a, b}), mask({b})))
    assert replay_certificate(ForestCertificate((reaching,)))[1] == span.relation_pairs()
    assert not verify_certificate(span, ForestCertificate((reaching,)))
    # one up-set more than there are children
    extra = DecompositionNode(0, (DecompositionNode(1, (), ()),), (mask({1}), mask({1})))
    assert not verify_certificate(chain(2), ForestCertificate((extra,)))


@pytest.mark.parametrize("member", [-1, 2, 5])
def test_certificates_naming_unknown_elements_are_rejected(member):
    """Points outside the poset, and up-sets naming one: a bit at index n
    or beyond, or, standing in for a negative index, a negative mask, which
    has every bit past its last clear one set."""
    leaf = DecompositionNode(1, (), ())
    if member < 0:
        upsets = (member, mask({1}) | -1 << 2, ~mask({1}))
    else:
        upsets = (1 << member, mask({1}) | 1 << member, 0b11 << member)
    for upset in upsets:
        cert = ForestCertificate((DecompositionNode(0, (leaf,), (upset,)),))
        assert not verify_certificate(chain(2), cert)
    assert not verify_certificate(chain(2), ForestCertificate((DecompositionNode(member, (), ()),)))


def test_negative_masks_and_bits_past_the_poset_are_rejected():
    """Each forged mask agrees with the true up-set on every element of the
    poset; only its bits past the last element differ."""
    span = span_poset()  # p < a, b
    p, a, b = (span.elements.index(x) for x in "pab")
    leaf_a, leaf_b = DecompositionNode(a, (), ()), DecompositionNode(b, (), ())

    def cert(upset_a):
        return ForestCertificate((DecompositionNode(p, (leaf_a, leaf_b), (upset_a, mask({b}))),))

    assert verify_certificate(span, cert(mask({a})))
    for forged in (mask({a}) | -1 << len(span), mask({a}) | 1 << len(span), mask({a}) | 1 << 70):
        assert forged & (1 << len(span)) - 1 == mask({a})
        assert not verify_certificate(span, cert(forged))
        assert cert(forged) != cert(mask({a}))
    w = is_forest_like(bowtie_poset())
    assert verify_witness(bowtie_poset(), w)
    n = len(bowtie_poset())
    first, second = w.upset_components
    for extra in (-1 << n, 1 << n):
        forged = replaced_witness(w, component=w.component | extra)
        assert not verify_witness(bowtie_poset(), forged)
        forged = replaced_witness(w, upset_components=(first | extra, second))
        assert not verify_witness(bowtie_poset(), forged)
    for index in (-1, n):
        assert not verify_witness(bowtie_poset(), replaced_witness(w, x=index))


def test_forged_witnesses_are_rejected():
    bowtie = bowtie_poset()
    w = is_forest_like(bowtie)
    first, second = w.upset_components
    for pieces in ((second, first), (first,), (first | second,), (first, second, 0)):
        assert not verify_witness(bowtie, replaced_witness(w, upset_components=pieces))
    # p < a, b: the component {a, b} below p splits into the pieces {a}
    # and {b}, and spans the upward-closed region {p, a, b}, but it is two
    # parts
    span = span_poset()
    p, a, b = (span.elements.index(x) for x in "pab")
    assert not verify_witness(span, NonForestWitness(p, mask({a, b}), (mask({a}), mask({b}))))
    # x < a, b and e < a, b, f: the component {a, b, e} below x is
    # connected and splits into {a} and {b}, but the region {x, a, b, e}
    # misses f above e
    p = FinPoset(["x", "a", "b", "e", "f"], [(0, 1), (0, 2), (3, 1), (3, 2), (3, 4)])
    assert not verify_witness(p, NonForestWitness(0, mask({1, 2, 3}), (mask({1}), mask({2}))))


@settings(max_examples=200, deadline=None)
@given(dags(), st.randoms(use_true_random=False))
def test_component_masks_match_a_flood_fill_over_the_relation(case, rnd):
    """The parts and their order, least element first, on random regions."""
    p, _, subset = case
    rel = set(p.relation_pairs())
    for region in (subset, {a for a in range(len(p)) if rnd.random() < 0.6}, range(len(p))):
        reference = _reference_components(len(p), rel, region)
        assert _component_masks(p, mask(region)) == list(map(mask, reference))


def test_evidence_with_masks_past_the_decimal_digit_limit_prints():
    """Python 3.11 and later refuse to write an int of more than 4300
    decimal digits; a mask of 20,000 bits has 6,021."""
    big = 1 << 20000
    w = NonForestWitness(0, big, (big, 2))
    assert f"component={hex(big)}" in repr(w) and f"[{hex(big)}, 0x2]" in repr(w)
    node = DecompositionNode(0, (DecompositionNode(20000, (), ()),), (big,))
    assert repr(node) == f"DecompositionNode(point=0, upsets=[{hex(big)}], children=1)"


def test_deep_certificates_compare_hash_and_print_without_recursion():
    n = sys.getrecursionlimit() + 100
    cert, again = is_forest_like(chain(n)), is_forest_like(chain(n))
    assert cert is not again and cert == again and hash(cert) == hash(again)
    root = cert.roots[0]
    assert root == again.roots[0] and hash(root) == hash(again.roots[0])
    assert repr(root) == f"DecompositionNode(point=0, upsets=[{hex(mask(range(1, n)))}], children=1)"
    assert repr(cert) == f"ForestCertificate(roots=({root!r},))"
    # a fork in the last two elements: the trees differ only at their bottom
    names = [f"c{i}" for i in range(n)]
    fork = FinPoset(names, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)])
    forked = is_forest_like(fork)
    assert isinstance(forked, ForestCertificate)
    assert forked != cert and cert != forked and forked.roots[0] != root
    assert cert != is_forest_like(chain(n + 1))
    assert len({cert, again, forked}) == 2


def test_mask_queries_match_the_pair_set_on_all_posets_of_five():
    rng = random.Random(5)
    for posets in all_posets(5).values():
        for p in posets:
            subset = {a for a in range(len(p)) if rng.random() < 0.5}
            check_against_pairs(p, set(p.relation_pairs()), subset)


def _relabeled(p, perm):
    """The same order with element i moved to index perm[i]."""
    names = [None] * len(p)
    for i, j in enumerate(perm):
        names[j] = p.elements[i]
    return FinPoset(names, [(perm[a], perm[b]) for a, b in p.relation_pairs()])


def _check_verdict_relabeled(p, perm):
    q = _relabeled(p, perm)
    before, after = is_forest_like(p), is_forest_like(q)
    assert type(before) is type(after)
    if isinstance(after, ForestCertificate):
        assert verify_certificate(q, after)
    else:
        assert verify_witness(q, after)


@settings(max_examples=150, deadline=None)
@given(dags(), st.randoms(use_true_random=False))
def test_forest_verdict_is_invariant_under_relabeling(case, rnd):
    p = case[0]
    perm = list(range(len(p)))
    rnd.shuffle(perm)
    _check_verdict_relabeled(p, perm)


def test_forest_verdict_is_invariant_under_relabeling_on_all_posets_of_five():
    rng = random.Random(7)
    for posets in all_posets(5).values():
        for p in posets:
            perm = list(range(len(p)))
            rng.shuffle(perm)
            _check_verdict_relabeled(p, perm)


def test_chain_longer_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    p = chain(n)
    cert = is_forest_like(p)
    assert isinstance(cert, ForestCertificate)
    assert verify_certificate(p, cert)
    elems, pairs = replay_certificate(cert)
    assert elems == frozenset(range(n))
    assert len(pairs) == n * (n + 1) // 2


# -- the poset as a category ----------------------------------------------------

def _same_category(p: FinPoset) -> None:
    """The poset's morphism view is the category of the poset, index for index."""
    cat = category_from_poset(p)
    assert p == cat and cat == p
    assert (p.objects, p.morphisms) == (cat.objects, cat.morphisms)
    assert p.obj_index == cat.obj_index and p.mor_index == cat.mor_index
    assert p.hom_out == cat.hom_out and p.hom_in == cat.hom_in
    assert [m for m in range(len(p.morphisms)) if p.is_identity(m)] == list(range(len(p)))
    assert list(p.composites()) == list(cat.composites())
    for f, mf in enumerate(cat.morphisms):
        for g in cat.hom_out[mf.cod]:
            assert p.compose(g, f) == cat.compose(g, f)
    for x in range(len(p)):
        for y in range(len(p)):
            assert p.hom(x, y) == cat.hom(x, y)


def test_poset_morphisms_are_its_category_on_all_posets_of_five():
    for posets in all_posets(5).values():
        for p in posets:
            _same_category(p)


@settings(max_examples=100, deadline=None)
@given(dags())
def test_poset_morphisms_are_its_category(case):
    _same_category(case[0])


def test_poset_arrows_are_built_on_first_use():
    p = boat_poset()
    assert "_arrows" not in vars(p)
    assert p.generator_ends and "_arrows" not in vars(p)
    p.compose(p.arrow(2, 0), p.arrow(4, 2))
    assert "_arrows" in vars(p)


def test_poset_arrow_name_clash_names_both_morphisms():
    p = FinPoset(["p->q", "id_p", "q"], [(1, 2)])
    with pytest.raises(PresentationError, match="given to both the identity of 'p->q'"):
        p.morphisms
