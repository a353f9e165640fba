"""Seeded random instances for ``gen``: posets, forests, non-forests and
diagrams over a shape."""

from __future__ import annotations

import random

from .diagram import FinInjDiagram, validate_diagram
from .fincat import FinCategory
from .poset import FinPoset, ForestCertificate, _bits, is_forest_like


def random_poset(size: int, rng: random.Random, density: float = 0.35) -> FinPoset:
    """Random poset: random edges on an index-increasing DAG, transitively closed."""
    covers = [
        (a, b)
        for a in range(size)
        for b in range(a + 1, size)
        if rng.random() < density
    ]
    return FinPoset([f"e{i}" for i in range(size)], covers)


def random_tree_like(size: int, rng: random.Random) -> FinPoset:
    """Random forest-like poset built by replaying the adjoin-a-point rule."""

    def build(k: int) -> tuple[list[tuple[int, int]], int]:
        # returns (cover pairs, element count) over local indices, root last
        if k == 1:
            return [], 1
        budget = k - 1
        sizes = []
        while budget:
            part = rng.randint(1, budget)
            sizes.append(part)
            budget -= part
        pairs: list[tuple[int, int]] = []
        offset = 0
        attach: list[int] = []
        for part in sizes:
            sub_pairs, count = build(part)
            pairs.extend((a + offset, b + offset) for a, b in sub_pairs)
            attach.append(offset + rng.randrange(count))
            offset += count
        root = offset
        pairs.extend((root, a) for a in attach)
        return pairs, offset + 1

    pairs, count = build(size)
    return FinPoset([f"e{i}" for i in range(count)], pairs)


def random_forest(size: int, rng: random.Random) -> FinPoset:
    """Disjoint union of random tree-like posets, size elements in total."""
    budget = size
    offset = 0
    elements: list[str] = []
    covers: list[tuple[int, int]] = []
    while budget:
        part = rng.randint(1, budget)
        tree = random_tree_like(part, rng)
        covers.extend((a + offset, b + offset) for _, a, b in tree.generator_ends)
        elements.extend(f"e{offset + i}" for i in range(len(tree)))
        offset += len(tree)
        budget -= part
    return FinPoset(elements, covers)


def random_nonforest(size: int, rng: random.Random, attempts: int = 10000) -> FinPoset:
    """Random poset rejected until it fails the forest decomposition."""
    if size < 4:
        raise ValueError("no non-forest-like poset has fewer than 4 elements")
    for _ in range(attempts):
        poset = random_poset(size, rng, density=rng.uniform(0.2, 0.6))
        if not isinstance(is_forest_like(poset), ForestCertificate):
            return poset
    raise RuntimeError("failed to sample a non-forest-like poset")


def random_diagram_over_poset(
    poset: FinPoset,
    rng: random.Random,
    shape: FinCategory | FinPoset | None = None,
    element_of=None,
    max_extra: int = 2,
) -> FinInjDiagram:
    """Random valid diagram over a shape that maps onto a poset.

    Monotone subsets of a universe give functorial inclusions, which are then
    conjugated by per-object relabelings so the actions are nontrivial maps.
    Empty carriers occur naturally.  The shape is the poset itself unless
    given; ``element_of`` sends each shape object to the poset element it
    lies over (identity by default), and every morphism must go up in the
    poset, as a shape's skeleton map does.
    """
    if shape is None:
        shape = poset
    if element_of is None:
        element_of = range(len(shape.objects))
    down = poset.down_masks
    subset: list[set[str]] = [set() for _ in down]
    counter = 0
    for b in sorted(range(len(down)), key=lambda e: down[e].bit_count()):
        for a in _bits(down[b]):
            subset[b] |= subset[a]
        for _ in range(rng.randint(0, max_extra)):
            subset[b].add(f"u{counter}")
            counter += 1
    relabel: list[dict[str, str]] = []
    for obj, name in enumerate(shape.objects):
        members = sorted(subset[element_of[obj]])
        rng.shuffle(members)
        relabel.append(
            {u: f"{name}_{k}" for k, u in enumerate(members)}
        )
    carriers = [
        tuple(sorted(r.values())) for r in relabel
    ]
    actions = []
    for i, (dom, cod) in enumerate(shape.morphisms):
        actions.append(
            None
            if shape.is_identity(i)
            else {relabel[dom][u]: relabel[cod][u] for u in relabel[dom]}
        )
    return validate_diagram(shape, carriers, actions)
