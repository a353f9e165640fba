"""Instance generation: exhaustive small posets and seeded random instances."""

from __future__ import annotations

import random
from itertools import permutations

from .diagram import FinInjDiagram, ZigzagWord, validate_diagram
from .fincat import FinCategory
from .poset import FinPoset, ForestCertificate, closed_masks, is_forest_like


def _canonical(poset: FinPoset) -> tuple[int, ...]:
    """Canonical form of a poset as up-set bitmasks, via iterated
    degree-refinement and minimization over class-preserving relabelings."""
    up, down = poset.up_masks, poset.down_masks
    n = len(up)
    inv = [(bin(u).count("1"), bin(d).count("1")) for u, d in zip(up, down)]
    for _ in range(n):
        refined = []
        for i in range(n):
            ups = sorted(inv[j] for j in range(n) if up[i] >> j & 1 and j != i)
            dns = sorted(inv[j] for j in range(n) if down[i] >> j & 1 and j != i)
            refined.append((inv[i], tuple(ups), tuple(dns)))
        codes = {v: k for k, v in enumerate(sorted(set(refined)))}
        new_inv = [(codes[refined[i]],) for i in range(n)]
        if new_inv == inv:
            break
        inv = new_inv

    order = sorted(range(n), key=lambda i: inv[i])
    classes: list[list[int]] = []
    for i in order:
        if classes and inv[classes[-1][0]] == inv[i]:
            classes[-1].append(i)
        else:
            classes.append([i])

    best = None
    for perm_parts in _class_perms(classes):
        placed = [i for part in perm_parts for i in part]
        pos = {old: new for new, old in enumerate(placed)}
        rel = tuple(
            sum(1 << pos[j] for j in range(n) if up[placed[i]] >> j & 1)
            for i in range(n)
        )
        if best is None or rel < best:
            best = rel
    return best


def _class_perms(classes):
    if not classes:
        yield []
        return
    head, tail = classes[0], classes[1:]
    for perm in permutations(head):
        for rest in _class_perms(tail):
            yield [list(perm)] + rest


def all_posets(max_size: int) -> dict[int, list[FinPoset]]:
    """All posets with at most max_size elements, one per isomorphism class.

    Built by repeatedly adjoining a maximal element above each order ideal
    and deduplicating by canonical form.
    """
    by_size: dict[int, list[FinPoset]] = {0: [FinPoset([], [])]}
    for n in range(1, max_size + 1):
        names = [f"e{i}" for i in range(n)]
        top = 1 << (n - 1)
        seen: set[tuple[int, ...]] = set()
        fresh: list[FinPoset] = []
        for poset in by_size[n - 1]:
            for ideal in closed_masks(poset.down_masks):
                up = [mask | top * (ideal >> i & 1) for i, mask in enumerate(poset.up_masks)]
                candidate = FinPoset(names, up_masks=up + [top])
                canon = _canonical(candidate)
                if canon not in seen:
                    seen.add(canon)
                    fresh.append(candidate)
        by_size[n] = fresh
    return by_size


def random_poset(size: int, rng: random.Random, density: float = 0.35) -> FinPoset:
    """Random poset: random edges on an index-increasing DAG, transitively closed."""
    covers = [
        (a, b)
        for a in range(size)
        for b in range(a + 1, size)
        if rng.random() < density
    ]
    return FinPoset.from_covers([f"e{i}" for i in range(size)], covers)


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
    return FinPoset.from_covers([f"e{i}" for i in range(count)], pairs)


def random_forest(size: int, rng: random.Random) -> FinPoset:
    """Disjoint union of random tree-like posets, size elements in total."""
    budget = size
    offset = 0
    elements: list[str] = []
    covers: list[tuple[int, int]] = []
    while budget:
        part = rng.randint(1, budget)
        tree = random_tree_like(part, rng)
        covers.extend((a + offset, b + offset) for a, b in tree.cover_pairs())
        elements.extend(f"e{offset + i}" for i in range(len(tree)))
        offset += len(tree)
        budget -= part
    return FinPoset.from_covers(elements, covers)


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
    n = len(poset)
    subset: list[set[str]] = [set() for _ in range(n)]
    counter = 0
    for b in sorted(range(n), key=lambda e: len(poset.down(e))):
        for a in poset.down(b):
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
    for m in shape.morphisms:
        actions.append(
            {relabel[m.dom][u]: relabel[m.cod][u] for u in relabel[m.dom]}
        )
    return validate_diagram(shape, carriers, actions)


def random_endo_word(
    shape: FinCategory, rng: random.Random, max_len: int = 8
) -> ZigzagWord:
    """Random zigzag word that returns to its starting object.

    Walks the morphism graph with random orientations; if the walk does not
    come home, it is mirrored so the result is always an endo word.
    """
    if not shape.objects:
        raise ValueError("shape has no objects")
    source = rng.randrange(len(shape.objects))
    steps: list[tuple[int, bool]] = []
    at = source
    for _ in range(rng.randint(1, max_len)):
        options = []
        for i, m in enumerate(shape.morphisms):
            if m.dom == at:
                options.append((i, True))
            if m.cod == at:
                options.append((i, False))
        if not options:
            break
        step = rng.choice(options)
        steps.append(step)
        m = shape.morphisms[step[0]]
        at = m.cod if step[1] else m.dom
        if at == source and rng.random() < 0.5:
            break
    if at != source:
        steps.extend((i, not forward) for i, forward in reversed(steps))
    return ZigzagWord(source, tuple(steps))
