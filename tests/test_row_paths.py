"""The row paths against the table-and-label paths they replaced.

The witness diagram of a refutation, the congruence closure and the monic
reflection run on integer rows; ``conftest`` keeps the label-dict witness,
the full-adjacency zigzag, and the union-find closure and reflection as
references.  Each test requires the same carriers, rows, collision and
zigzag, or the same partition and quotient.
"""

import random
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import category
from amalgam.diagram import (
    CarrierMismatch,
    Collision,
    FunctorialityViolation,
    _element_zigzag,
    _poset_diagram,
    analyze_shape,
    colimit_set,
    validate_diagram,
    witness_no_cocone,
)
from amalgam.fincat import (
    is_congruence,
    monic_reflection,
    quotient_category,
)
from amalgam.gen import random_diagram_over_poset
from amalgam.poset import FinPoset, NonForestWitness
from conftest import (
    category_from_poset,
    concrete_categories,
    congruence_close,
    cyclic_cat,
    dags,
    left_zero_monoid_cat,
    parallel_pair_cat,
    reference_congruence_close,
    reference_element_zigzag,
    reference_monic_reflection,
    reference_witness,
    small_category_suite,
)
from oracles import all_posets


def two_round_cat():
    """q equalizes u, v: A -> B, so the reflection merges them, and then
    p∘u = s and p∘v = t; only once s ~ t does g tell x, y: A -> C apart no
    more, so x ~ y takes a second round."""
    return category(
        ["A", "B", "C", "E", "D"],
        [("u", "A", "B"), ("v", "A", "B"), ("q", "B", "E"), ("w", "A", "E"),
         ("p", "B", "D"), ("s", "A", "D"), ("t", "A", "D"),
         ("x", "A", "C"), ("y", "A", "C"), ("g", "C", "D")],
        [("q", "u", "w"), ("q", "v", "w"), ("p", "u", "s"), ("p", "v", "t"),
         ("g", "x", "s"), ("g", "y", "t")],
    )


CATEGORIES = (
    [cyclic_cat(n) for n in range(1, 13)]
    + [left_zero_monoid_cat(k) for k in range(1, 13)]
    + small_category_suite()
    + [two_round_cat()]
)


def assert_witness_matches_reference(shape):
    analysis = analyze_shape(shape)
    if analysis.usc:
        return False
    diagram = witness_no_cocone(shape, analysis)
    expected, collision = reference_witness(shape, analysis)
    assert diagram.carriers == expected.carriers
    assert diagram.maps == expected.maps
    assert diagram.collision == collision
    return True


def test_poset_witnesses_match_the_reference_on_all_posets_of_six():
    refuted = sum(
        assert_witness_matches_reference(p) for ps in all_posets(6).values() for p in ps
    )
    assert refuted == 94


@settings(max_examples=150, deadline=None)
@given(dags())
def test_poset_witnesses_match_the_reference_on_random_dags(case):
    assert_witness_matches_reference(case[0])


def test_category_witnesses_match_the_reference():
    refuted = sum(map(assert_witness_matches_reference, CATEGORIES))
    assert refuted >= 12  # Z_2 to Z_12 and the suite's parallel pairs


def test_a_witness_with_long_rows_matches_the_reference():
    assert assert_witness_matches_reference(cyclic_cat(40))


def shift_diagram(m: int):
    """u, v: C -> B with u(c_i) = b_i and v(c_i) = b_(i+1): every node lies
    in one class, along one long zigzag."""
    cat = parallel_pair_cat()
    carriers = [[f"c{i}" for i in range(m)], [f"b{i}" for i in range(m + 1)]]
    actions = [None, None]
    for arrow in cat.morphisms[2:]:
        shift = arrow.name == "v"
        actions.append({f"c{i}": f"b{i + shift}" for i in range(m)})
    return validate_diagram(cat, carriers, actions)


def sum_nodes(diagram):
    """Where each carrier starts in the disjoint sum of carriers, and each
    node's colimit class, flattened from the class rows."""
    offsets = list(accumulate(map(len, diagram.carriers), initial=0))
    return offsets, [k for row in colimit_set(diagram).ids for k in row]


def assert_zigzags_match_the_reference(diagram, rng, pairs=20):
    offsets, ids = sum_nodes(diagram)
    for _ in range(pairs if ids else 0):
        start = rng.randrange(len(ids))
        goal = rng.choice([k for k, c in enumerate(ids) if c == ids[start]])
        obj = bisect_right(offsets, start) - 1  # the last object starting at or before it
        assert _element_zigzag(diagram, offsets, obj, start, goal) == (
            reference_element_zigzag(diagram, offsets, ids, obj, start, goal)
        )


def test_zigzags_between_any_two_nodes_of_a_class_match_the_reference():
    """A long zigzag steps back along one row many times."""
    rng = random.Random(0)
    assert_zigzags_match_the_reference(shift_diagram(40), rng, pairs=60)
    for cat in CATEGORIES:
        analysis = analyze_shape(cat)
        if not analysis.usc:
            assert_zigzags_match_the_reference(witness_no_cocone(cat, analysis), rng)


def test_a_collision_searches_its_zigzag_when_first_read():
    """Equality, hashing and repr read the zigzag, as the dataclass's did."""
    col = colimit_set(shift_diagram(3)).collision
    assert "_zigzag" not in vars(col)
    nodes, steps = col.nodes, col.steps
    assert (nodes, steps) == reference_element_zigzag(
        *_collision_search_args(shift_diagram(3), col)
    )
    same = Collision(col.obj, col.x, col.y, search=lambda: (nodes, steps))
    assert col == same and hash(col) == hash(same) and repr(col) == repr(same)
    assert col != Collision(col.obj, col.x, col.y, search=lambda: (nodes[::-1], steps[::-1]))


def _collision_search_args(diagram, col):
    offsets, ids = sum_nodes(diagram)
    carrier = diagram.carriers[col.obj]
    start = offsets[col.obj] + carrier.index(col.x)
    goal = offsets[col.obj] + carrier.index(col.y)
    return diagram, offsets, ids, col.obj, start, goal


@settings(max_examples=100, deadline=None)
@given(dags(max_size=8), st.randoms(use_true_random=False))
def test_zigzags_in_random_diagrams_match_the_reference(case, rng):
    poset = case[0]
    assert_zigzags_match_the_reference(random_diagram_over_poset(poset, rng), rng)
    assert_zigzags_match_the_reference(
        random_diagram_over_poset(poset, rng, shape=category_from_poset(poset)), rng
    )


@settings(max_examples=150, deadline=None)
@given(concrete_categories())
def test_concrete_category_witnesses_match_the_reference(cat):
    assert_witness_matches_reference(cat)


def assert_reflection_matches_reference(cat):
    refl, proj = monic_reflection(cat)
    classes = reference_monic_reflection(cat)
    class_of = [0] * len(cat.morphisms)
    for k, cl in enumerate(classes):
        for i in cl:
            class_of[i] = k
    assert proj == tuple(class_of)
    cong = congruence_close(cat, [(min(cl), i) for cl in classes for i in cl])
    assert list(cong.classes) == classes
    assert is_congruence(cat, cong)
    assert (refl, proj) == (
        (cat, tuple(range(len(cat.morphisms))))
        if len(classes) == len(cat.morphisms)
        else (quotient_category(cat, cong)[0], tuple(class_of))
    )


def test_reflections_match_the_reference():
    for cat in CATEGORIES:
        assert_reflection_matches_reference(cat)


def test_a_reflection_that_takes_two_rounds():
    cat = two_round_cat()
    _, proj = monic_reflection(cat)
    merged = [{"u", "v"}, {"s", "t"}, {"x", "y"}]
    for pair in merged:
        assert len({proj[cat.mor_index[name]] for name in pair}) == 1
    assert len(set(proj)) == len(cat.morphisms) - len(merged)


@settings(max_examples=150, deadline=None)
@given(concrete_categories())
def test_concrete_reflections_match_the_reference(cat):
    assert_reflection_matches_reference(cat)


@settings(max_examples=150, deadline=None)
@given(concrete_categories(), st.randoms(use_true_random=False))
def test_closures_of_random_seeds_match_the_reference(cat, rng):
    parallel = [
        (f, g) for homs in cat.hom_sets.values() for f in homs for g in homs if f < g
    ]
    seeds = rng.sample(parallel, min(len(parallel), rng.randint(0, 3)))
    assert list(congruence_close(cat, seeds).classes) == reference_congruence_close(cat, seeds)


def test_a_poset_witness_whose_rows_do_not_commute_is_refused():
    """x < a < b and x < c.  A forged witness puts a alone on the zero
    side, so x's point goes to 0 over a and to 1 over b, while a -> b
    keeps 0 at 0: the rows do not commute over the cover a -> b."""
    p = FinPoset(["x", "a", "b", "c"], [(0, 1), (1, 2), (0, 3)])
    forged = NonForestWitness(
        x=0, component=0b1110, upset_components=(0b0010, 0b1100), u=1, v=2,
        zigzag=(1, 2), region=0b1111,
    )
    fault = r"\(a->b, x->a\) does not commute at element \*"
    with pytest.raises(FunctorialityViolation, match=fault):
        _poset_diagram(p, forged)


def test_a_poset_witness_whose_rows_leave_their_targets_is_refused():
    """x < a and y < z.  A forged witness makes y two-sided but not z, so
    y -> z would send {0, 1} into the empty carrier."""
    p = FinPoset(["x", "a", "y", "z"], [(0, 1), (2, 3)])
    forged = NonForestWitness(
        x=0, component=0b0110, upset_components=(0b0010, 0b0100), u=1, v=2,
        zigzag=(1, 2), region=0b0111,
    )
    with pytest.raises(CarrierMismatch, match="action of y->z leaves the target carrier"):
        _poset_diagram(p, forged)
