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
    ShapeAnalysis,
    analyze_shape,
    colimit_set,
    collision_zigzag,
    validate_diagram,
    witness_no_cocone,
)
from amalgam.fincat import (
    is_congruence,
    monic_reflection,
    quotient_category,
)
from amalgam.gen import random_diagram_over_poset
from amalgam.poset import FinPoset, NonForestWitness, _members
from conftest import (
    category_from_poset,
    classes_of,
    concrete_categories,
    congruence_close,
    crown_poset,
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
    expected, (collision, zigzag) = reference_witness(shape, analysis)
    assert diagram.carriers == expected.carriers
    assert diagram.maps == expected.maps
    assert diagram.collision == collision
    assert collision_zigzag(diagram, diagram.collision) == zigzag
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
    for name in cat.arrow_names[2:]:
        shift = name == "v"
        actions.append({f"c{i}": f"b{i + shift}" for i in range(m)})
    return validate_diagram(cat, carriers, actions)


def twisted_diagrams(poset: FinPoset, size: int, rng):
    """Over the height-one poset with an arrow a- -> b+ for each a < b in
    the given one, every carrier holds ``size`` labels and every arrow
    permutes them at random.  With no composites this is a diagram,
    and its classes meet a carrier many times, joined by zigzags of many
    lengths.  Returns it over that poset and over its category."""
    names = poset.elements
    split = FinPoset(
        [f"{e}-" for e in names] + [f"{e}+" for e in names],
        [(a, len(names) + b) for a, up in enumerate(poset.up_masks) for b in _members(up)
         if a != b],
    )
    labels = tuple(f"t{k}" for k in range(size))
    actions = []
    for i in range(len(split.morphisms)):
        image = list(labels)
        if not split.is_identity(i):
            rng.shuffle(image)
        actions.append(dict(zip(labels, image)))
    return tuple(
        validate_diagram(shape, [labels] * len(shape.objects), actions)
        for shape in (split, category_from_poset(split))
    )


def sum_nodes(diagram):
    """Where each carrier starts in the disjoint sum of carriers, and each
    node's colimit class, flattened from the class rows."""
    offsets = list(accumulate(map(len, diagram.carriers), initial=0))
    return offsets, [k for row in colimit_set(diagram).ids for k in row]


def assert_zigzags_match_the_reference(diagram, rng, pairs=20):
    """Zigzags between random pairs of one carrier's elements in one class,
    drawn from the classes that meet a carrier twice when there are any."""
    offsets, ids = sum_nodes(diagram)
    members: dict[tuple[int, int], list[int]] = {}  # (object, class) -> nodes
    for node, k in enumerate(ids):
        members.setdefault((bisect_right(offsets, node) - 1, k), []).append(node)
    groups = [key for key, nodes in members.items() if len(nodes) > 1] or list(members)
    for _ in range(pairs if groups else 0):
        obj, k = rng.choice(groups)
        start, goal = rng.choice(members[obj, k]), rng.choice(members[obj, k])
        carrier = diagram.carriers[obj]
        col = Collision(obj, carrier[start - offsets[obj]], carrier[goal - offsets[obj]])
        assert collision_zigzag(diagram, col) == (
            reference_element_zigzag(diagram, offsets, ids, obj, start, goal)
        )


def test_zigzags_between_two_elements_of_a_carrier_match_the_reference():
    """A long zigzag steps back along one row many times, and a twisted
    crown joins two elements by many zigzags."""
    rng = random.Random(0)
    assert_zigzags_match_the_reference(shift_diagram(40), rng, pairs=60)
    for size in (2, 3, 4):
        for twisted in twisted_diagrams(crown_poset(), size, rng):
            assert_zigzags_match_the_reference(twisted, rng, pairs=60)
    for cat in CATEGORIES:
        analysis = analyze_shape(cat)
        if not analysis.usc:
            assert_zigzags_match_the_reference(witness_no_cocone(cat, analysis), rng)


def test_a_collision_holds_its_elements_and_its_zigzag_is_searched_on_request():
    d = shift_diagram(3)
    col = colimit_set(d).collision
    assert vars(col) == {"obj": col.obj, "x": col.x, "y": col.y}
    offsets, ids = sum_nodes(d)
    carrier = d.carriers[col.obj]
    start = offsets[col.obj] + carrier.index(col.x)
    goal = offsets[col.obj] + carrier.index(col.y)
    nodes, steps = collision_zigzag(d, col)
    assert (nodes, steps) == reference_element_zigzag(d, offsets, ids, col.obj, start, goal)
    assert nodes == ((0, "c0"), (1, "b1"), (0, "c1"))  # c0 -v-> b1 <-u- c1


@settings(max_examples=100, deadline=None)
@given(dags(max_size=8), st.randoms(use_true_random=False))
def test_zigzags_in_random_diagrams_match_the_reference(case, rng):
    """A random diagram's classes meet each carrier once; a twisted
    diagram's and a refuted poset's witnesses glue elements of a carrier."""
    poset = case[0]
    assert_zigzags_match_the_reference(random_diagram_over_poset(poset, rng), rng)
    assert_zigzags_match_the_reference(
        random_diagram_over_poset(poset, rng, shape=category_from_poset(poset)), rng
    )
    for twisted in twisted_diagrams(poset, rng.randint(1, 4), rng):
        assert_zigzags_match_the_reference(twisted, rng)
    if not analyze_shape(poset).usc:
        for shape in (poset, category_from_poset(poset)):
            assert_zigzags_match_the_reference(witness_no_cocone(shape), rng)


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
    assert list(classes_of(cong)) == classes
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
    assert list(classes_of(congruence_close(cat, seeds))) == reference_congruence_close(cat, seeds)


def forged_analysis(p: FinPoset, forged: NonForestWitness) -> ShapeAnalysis:
    """The analysis of a poset, its own reflection and skeleton, with a
    forged non-forest witness in place of its decomposition."""
    return ShapeAnalysis(p, None, None, p, tuple(range(len(p))), forged)


def test_a_poset_witness_whose_rows_do_not_commute_is_refused():
    """x < a < b and x < c.  A forged witness puts a alone on the zero
    side, so x's point goes to 0 over a and to 1 over b, while a -> b
    keeps 0 at 0: the rows do not commute over the cover a -> b.  The rows
    are built unchecked and refused by the one check of the witness."""
    p = FinPoset(["x", "a", "b", "c"], [(0, 1), (1, 2), (0, 3)])
    forged = NonForestWitness(x=0, component=0b1110, upset_components=(0b0010, 0b1100))
    fault = r"\(a->b, x->a\) does not commute at element \*"
    with pytest.raises(FunctorialityViolation, match=fault):
        witness_no_cocone(p, forged_analysis(p, forged))


def test_a_poset_witness_whose_rows_leave_their_targets_is_refused():
    """x < a and y < z.  A forged witness makes y two-sided but not z, so
    y -> z would send {0, 1} into the empty carrier."""
    p = FinPoset(["x", "a", "y", "z"], [(0, 1), (2, 3)])
    forged = NonForestWitness(x=0, component=0b0110, upset_components=(0b0010, 0b0100))
    with pytest.raises(CarrierMismatch, match="action of y->z leaves the target carrier"):
        witness_no_cocone(p, forged_analysis(p, forged))
