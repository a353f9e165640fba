import pytest

from amalgam.poset import (
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    NotAPartialOrder,
    components,
    is_forest_like,
    replay_certificate,
    simply_connected_bounded,
    upward_closure,
    verify_certificate,
    verify_witness,
)
from conftest import (
    TooLarge,
    boat_poset,
    bowtie_poset,
    brute_force_tree_like,
    crown_poset,
    span_poset,
)


def chain(n):
    return FinPoset.from_covers([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def test_poset_validation():
    with pytest.raises(NotAPartialOrder):
        FinPoset(["a", "b"], [(0, 1), (1, 0)])  # antisymmetry
    with pytest.raises(NotAPartialOrder):
        FinPoset(["a", "b", "c"], [(0, 1), (1, 2)])  # transitivity not included
    FinPoset(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])


def test_from_covers_closes():
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
    assert {p.elements[e] for e in result.component} == {"A", "B", "D"}
    assert len(result.upset_components) == 2
    assert verify_witness(p, result)


def test_boat_witness_region_excludes_bottom():
    p = boat_poset()
    result = is_forest_like(p)
    assert isinstance(result, NonForestWitness)
    assert {p.elements[e] for e in result.region} == {"A", "B", "C", "D"}
    assert verify_witness(p, result)


def test_span_certificate():
    p = span_poset()
    result = is_forest_like(p)
    assert isinstance(result, ForestCertificate)
    assert len(result.roots) == 1
    root = result.roots[0]
    assert p.elements[root.point] == "p"
    assert len(root.children) == 2
    assert all(len(u) == 1 for u in root.upsets)
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
        z = w.zigzag
        assert z[0] == w.u and z[-1] == w.v
        assert set(z) <= w.component
        dirs = [p.leq(a, b) for a, b in zip(z, z[1:])]
        assert all(x != y for x, y in zip(dirs, dirs[1:]))
        # endpoints in distinct pieces of the up-set
        assert not any(
            w.u in part and w.v in part for part in w.upset_components
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
    p = FinPoset.from_covers(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    assert simply_connected_bounded(p) is True


def test_simply_connected_unknown_when_budget_exhausted():
    # an exhausted budget must answer in-band, never guess
    p = FinPoset.from_covers(
        [f"e{i}" for i in range(6)],
        [(0, 2), (0, 4), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
    )
    assert simply_connected_bounded(p, max_cosets=2) is None
    assert simply_connected_bounded(p) is True


def test_witness_region_refutes_simple_connectedness():
    """The recorded region is an upward-closed subposet that fails the
    topological test, for every non-forest poset up to 5 elements."""
    from amalgam.gen import all_posets
    from amalgam.poset import upward_closure

    for n in range(4, 6):
        for p in all_posets(5)[n]:
            w = is_forest_like(p)
            if isinstance(w, ForestCertificate):
                continue
            assert upward_closure(p, w.region) == w.region
            sub, _ = p.restrict(w.region)
            assert simply_connected_bounded(sub) is False, p


def test_restrict_induced_subposet():
    p = boat_poset()
    keep = [p.elements.index(x) for x in "ABCD"]
    q, index = p.restrict(keep)
    assert q == bowtie_poset()
    assert index[p.elements.index("A")] == 0


def test_upward_closed_subsets_of_span():
    p = span_poset()
    subs = p.upward_closed_subsets()
    a, b, top_p = (p.elements.index(x) for x in ("a", "b", "p"))
    assert frozenset() in subs
    assert frozenset({a}) in subs
    assert frozenset({a, b}) in subs
    assert frozenset({top_p}) not in subs  # p is below a and b
    assert frozenset({top_p, a, b}) in subs
    assert len(subs) == 5
