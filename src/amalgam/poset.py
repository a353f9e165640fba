"""Finite posets and the forest-like decomposition decider.

A finite poset is forest-like when it can be built inductively: take a
disjoint union of already-built trees, pick a connected upward-closed
subset in each, and adjoin one new point below all of them.  Shapes of
that kind are exactly the ones over which every diagram of injections
can be amalgamated; the decider below produces either a decomposition
certificate (replayable to reconstruct the poset) or a concrete witness
region whose up-set splits into several components.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import compress, count

from .record import FrozenRecord


class PosetError(Exception):
    pass


class NotAPartialOrder(PosetError):
    pass


def clip(name) -> str:
    """A name from the input, or any value, as a fault message quotes it:
    its text whole up to 80 characters, and past them its first 77
    followed by ``...``.  A lone surrogate, which no UTF-8 output can
    write, is backslash-escaped first."""
    text = f"{name}"
    if not text.isascii():
        text = text.encode("utf-8", "backslashreplace").decode("utf-8")
    return text if len(text) <= 80 else text[:77] + "..."


def lone_surrogate(names) -> str | None:
    """The first of the names that holds a lone surrogate, which no UTF-8
    output can write, ASCII-escaped and clipped as a fault quotes it, or
    None.  A name that is not a string raises TypeError, so this is also
    its reader's type check; ASCII names pass in one scan of their join."""
    if "".join(names).isascii():
        return None
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            return clip(name.encode("ascii", "backslashreplace").decode("ascii"))
    return None


def _bits(mask: int):
    """Indices of the set bits of mask, ascending, split off one at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


def sorted_names(names, mask: int) -> list:
    """The names of the mask's members, sorted: few bits are split off one
    at a time, many are read off the binary digits."""
    if mask.bit_count() > 16:
        out = list(compress(names, map("1".__eq__, bin(mask)[:1:-1])))
    else:
        out = []
        while mask:
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
    out.sort()
    return out


def _closure(succ: list[int], elements) -> tuple[int, ...]:
    """Reflexive-transitive closure of the edge masks ``succ``, taken in
    depth-first post-order on an explicit stack; a cycle raises
    NotAPartialOrder.  Bits are split off the masks in line, lowest first."""
    n = len(succ)
    closed = [0] * n  # 0 until the element's closure is complete
    started = 0
    for root in range(n):
        if started >> root & 1:
            continue
        stack = [root]
        while stack:
            a = stack.pop()
            bit = 1 << a
            if not started & bit:
                started |= bit
                stack.append(a)
                fresh = succ[a] & ~started
                while fresh:
                    low = fresh & -fresh
                    stack.append(low.bit_length() - 1)
                    fresh ^= low
            elif not closed[a]:
                closed[a] = reach = bit
                rest = succ[a]
                while rest:
                    low = rest & -rest
                    b = low.bit_length() - 1
                    if not closed[b]:  # b is still open, so it reaches a: a cycle
                        raise NotAPartialOrder(
                            f"antisymmetry fails on {clip(elements[b])}, {clip(elements[a])}"
                        )
                    reach |= closed[b]
                    rest ^= low
                closed[a] = reach
    return tuple(closed)


class FinPoset:
    """Finite partial order over indexed, named elements.

    The relation is stored as int bitmasks: bit j of ``up_masks[i]`` is set
    when i <= j, and bit j of ``down_masks[i]`` when j <= i.  They are the
    reflexive-transitive closures of the given edges, so construction finds
    three faults only: a cover out of range, a cycle (which breaks
    antisymmetry) and a repeated name.

    A FinPoset is also a shape: the category with one morphism per related
    pair.  Its morphisms, the (dom, cod) pairs of ``morphisms``, are the
    identities, then the pairs a < b in increasing order, named ``a->b`` in
    ``arrow_names``; both are built on first use, and every index and
    composite is read off the masks.  The covers generate them.
    """

    def __init__(self, elements, covers):
        """Build from Hasse-style edges, or any pairs whose closure is the
        order: each edge is checked to be in range, the closures up and down
        the edges are taken, refusing a cycle, and then the names are
        checked to be distinct."""
        self.elements = elements = tuple(elements)
        n = len(elements)
        succ, pred = [0] * n, [0] * n
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise NotAPartialOrder(f"cover ({a}, {b}) out of range")
            if a != b:
                succ[a] |= 1 << b
                pred[b] |= 1 << a
        self.up_masks, self.down_masks = _closure(succ, elements), _closure(pred, elements)
        if len(set(elements)) != n:
            raise NotAPartialOrder("element names must be distinct")

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, FinPoset):
            return NotImplemented
        return self.elements == other.elements and self.up_masks == other.up_masks

    def __repr__(self):
        names = self.elements
        rel = sorted((names[a], names[b]) for a, b in self.relation_pairs() if a != b)
        return f"FinPoset({list(self.elements)}, {rel})"

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set when i and j are comparable."""
        return tuple(map(int.__or__, self.up_masks, self.down_masks))

    def relation_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, mask in enumerate(self.up_masks) for b in _bits(mask))

    # -- the poset as a category ---------------------------------------------

    @property
    def objects(self) -> tuple:
        return self.elements

    @cached_property
    def obj_index(self) -> dict:
        return {name: i for i, name in enumerate(self.elements)}

    @cached_property
    def morphisms(self) -> tuple[tuple[int, int], ...]:
        """(dom, cod) of each morphism, by index."""
        ends = [(a, a) for a in range(len(self))]
        for a, mask in enumerate(self.up_masks):
            rest = mask & ~(1 << a)
            while rest:
                low = rest & -rest
                ends.append((a, low.bit_length() - 1))
                rest ^= low
        return tuple(ends)

    @cached_property
    def arrow_names(self) -> tuple[str, ...]:
        """The name of each morphism, by index; a name given twice raises
        PresentationError naming both morphisms."""
        names = self.elements
        out = [f"id_{e}" for e in names]
        out.extend(f"{names[a]}->{names[b]}" for a, b in self.morphisms[len(names):])
        if len(set(out)) != len(out):
            from .fincat import name_index  # fincat builds on this module

            name_index(names, out, self.morphisms)
        return tuple(out)

    @cached_property
    def mor_index(self) -> dict[str, int]:
        return dict(zip(self.arrow_names, count()))

    @cached_property
    def _first_arrow(self) -> tuple[int, ...]:
        """Index of the first morphism a -> b with a < b, for each a."""
        out, k = [], len(self)
        for mask in self.up_masks:
            out.append(k)
            k += mask.bit_count() - 1
        return tuple(out)

    def arrow(self, a: int, b: int) -> int:
        """Index of the morphism a -> b, for a <= b: the number of pairs
        before it, counted on the masks."""
        if a == b:
            return a
        return self._first_arrow[a] + (self.up_masks[a] & ((1 << b) - 1) & ~(1 << a)).bit_count()

    def is_identity(self, m: int) -> bool:
        return m < len(self.elements)

    def compose(self, g: int, f: int) -> int:
        """Index of g∘f (f applied first): the arrow between their ends."""
        return self.arrow(self.morphisms[f][0], self.morphisms[g][1])

    @cached_property
    def generator_ends(self) -> tuple[tuple[int, int, int], ...]:
        """(index, dom, cod) of each cover's arrow, in increasing order,
        computed once per poset.  The covers of a are its strict up-set less
        everything strictly above a member of it, and the arrow a -> b comes
        after the arrows out of a to lesser indices."""
        up, first = self.up_masks, self._first_arrow
        out = []
        for a, mask in enumerate(up):
            strict = rest = mask & ~(1 << a)
            above = 0
            while rest:
                low = rest & -rest
                above |= up[low.bit_length() - 1] & ~low
                rest ^= low
            covers = strict & ~above
            while covers:
                low = covers & -covers
                out.append((first[a] + (strict & (low - 1)).bit_count(), a, low.bit_length() - 1))
                covers ^= low
        return tuple(out)

    def composites(self):
        """(g, f, g∘f) for every composable pair of non-identities: f = a -> b
        by increasing (a, b), then g = b -> c by increasing c."""
        arrow, up = self.arrow, self.up_masks
        for a, mask in enumerate(up):
            for b in _bits(mask & ~(1 << a)):
                ab = arrow(a, b)
                for c in _bits(up[b] & ~(1 << b)):
                    yield arrow(b, c), ab, arrow(a, c)


def upward_closure(poset: FinPoset, subset) -> frozenset[int]:
    """Everything lying above some member of the subset (members included)."""
    out = 0
    for a in subset:
        out |= poset.up_masks[a]
    return _members(out)


def _component_masks(shape, region: int) -> list[int]:
    """Components of the region, ordered by least element, flooded over the
    shape's ``neighbour_masks``: comparability in a poset, a morphism either
    way in a category.  Each frontier is walked by splitting off its lowest
    bit; the flood stops once it fills the region."""
    near = shape.neighbour_masks
    parts = []
    while region:
        comp = frontier = region & -region
        while frontier and comp != region:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= near[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & region & ~comp
            comp |= frontier
        parts.append(comp)
        region &= ~comp
    return parts


def _bfs_parents(poset: FinPoset, region: int, root: int, goal=None) -> dict[int, int]:
    """Breadth-first comparability tree inside region, neighbours in increasing
    order: each reached element -> its parent (the root -> itself).  The
    search stops once ``goal``, if given, is reached: its path to the root
    is then fixed."""
    near = poset.neighbour_masks
    parent = {root: root}
    seen = 1 << root
    queue = deque([root])
    while queue and goal not in parent:
        a = queue.popleft()
        fresh = near[a] & region & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            b = low.bit_length() - 1
            parent[b] = a
            queue.append(b)
            fresh ^= low
    return parent


class ForestCertificate(FrozenRecord):
    """Replayable decomposition of a forest-like poset: its build steps in
    pre-order, one tree per component.  Step k is (point, parent, upset):
    the point of step ``parent`` is adjoined below ``upset``, a mask of
    element indices inside step k's subtree.  A root has parent -1 and
    up-set 0.  Read backwards, the steps build the poset.
    """

    _fields = ("steps",)

    def __repr__(self):  # masks in hex: no digit limit applies
        steps = ", ".join(f"({p}, {q}, {u:#x})" for p, q, u in self.steps)
        return f"ForestCertificate(steps=[{steps}])"


class NonForestWitness(FrozenRecord):
    """Failure evidence: below ``x``, the component ``component`` of the region
    minus ``x`` meets the up-set of ``x`` in the pieces ``upset_components``,
    at least two.  ``component`` and the pieces are masks of element indices;
    ``witness_points`` reads the rest off them.
    """

    _fields = ("x", "component", "upset_components")

    def __repr__(self):  # masks in hex: no digit limit applies
        pieces = ", ".join(map(hex, self.upset_components))
        return (
            f"NonForestWitness(x={self.x}, component={self.component:#x}, "
            f"upset_components=[{pieces}])"
        )


def _zigzag_path(poset: FinPoset, region: int, u: int, v: int) -> tuple[int, ...]:
    """Shortest comparability path u..v inside region.  It alternates
    direction: the search marks every comparable neighbour of a node when it
    expands the node, so no path of its tree takes two steps one way."""
    parent = _bfs_parents(poset, region, u, v)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def witness_points(poset: FinPoset, w: NonForestWitness) -> tuple[int, int, tuple[int, ...], int]:
    """(u, v, zigzag, region) of a witness: u and v are the least elements of
    its first two pieces, the zigzag is a shortest comparability path from u
    to v inside the component, and the region, x with the component and the
    up-set of x, is the connected upward-closed subposet exhibiting the
    failure, as a mask."""
    u, v = ((piece & -piece).bit_length() - 1 for piece in w.upset_components[:2])
    zigzag = _zigzag_path(poset, w.component, u, v)
    return u, v, zigzag, 1 << w.x | w.component | poset.up_masks[w.x]


def is_forest_like(poset: FinPoset):
    """Decide forest-likeness; returns a ForestCertificate or a NonForestWitness.

    Each connected component is decomposed by repeatedly removing its
    least-index minimal element and requiring the up-set of that element to
    meet every remaining component in one connected piece.  The parts wait
    on a stack with the step they lie below; each part's up-set is checked
    when its step is taken, the order of a recursive descent.
    """
    up, down = poset.up_masks, poset.down_masks
    steps: list[tuple[int, int, int]] = []
    stack = [(part, -1) for part in reversed(_component_masks(poset, (1 << len(poset)) - 1))]
    while stack:
        region, parent = stack.pop()
        upset = 0
        if parent >= 0:
            base = steps[parent][0]
            upset = region & up[base]
            pieces = _component_masks(poset, upset)
            # a component of a connected region always meets the up-set of its minimum
            assert pieces, (base, region)
            if len(pieces) != 1:
                return NonForestWitness(base, region, tuple(pieces))
        rest = region
        while True:  # the least minimal element: split off the lowest bit
            low = rest & -rest
            x = low.bit_length() - 1
            if down[x] & region == low:
                break
            rest ^= low
        parts = _component_masks(poset, region ^ low)
        stack.extend((part, len(steps)) for part in reversed(parts))
        steps.append((x, parent, upset))
    return ForestCertificate(tuple(steps))


def replay_certificate(cert: ForestCertificate) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """Rebuild (elements, relation pairs) by replaying the decomposition rule.

    Each step's point lies below itself, and its parent's point below every
    element of its up-set; a parent that is not an earlier step, and a
    point met in two trees, are refused.
    """
    steps = cert.steps
    tree_of: list[int] = []  # the root step of each step's tree
    owner: dict[int, int] = {}
    pairs: set[tuple[int, int]] = set()
    for k, (point, parent, upset) in enumerate(steps):
        if not -1 <= parent < k:
            raise PosetError(f"certificate step {k} has no earlier parent")
        tree = k if parent < 0 else tree_of[parent]
        tree_of.append(tree)
        if owner.setdefault(point, tree) != tree:
            raise PosetError("certificate components overlap")
        pairs.add((point, point))
        if parent >= 0:
            pairs.update((steps[parent][0], b) for b in _bits(upset))
    return frozenset(owner), frozenset(pairs)


def verify_certificate(poset: FinPoset, cert: ForestCertificate) -> bool:
    """Soundness check: every parent is an earlier step, every element is
    adjoined exactly once, a root has an empty up-set and every other step
    a connected one inside its subtree, and the replayed up-set masks are
    the poset's.

    Each up-set below a point a is then up(a) restricted to the child's
    subtree, which is upward-closed in it.  One backward pass: a step's
    subtree and the union of its children's up-sets are complete when it
    is reached.
    """
    n, steps = len(poset), cert.steps
    replayed = [0] * n
    below = [0] * len(steps)  # the element mask of each step's subtree
    above = [0] * len(steps)  # the union of the up-sets of each step's children
    seen = 0
    for k in range(len(steps) - 1, -1, -1):
        point, parent, upset = steps[k]
        if not (0 <= point < n and -1 <= parent < k) or seen >> point & 1:
            return False
        seen |= 1 << point
        elems = below[k] | 1 << point
        replayed[point] = above[k] | 1 << point
        if parent < 0:
            if upset:
                return False
        # a negative mask, or one with a bit past the subtree, leaves it
        elif upset & ~elems or len(_component_masks(poset, upset)) != 1:
            return False
        else:
            below[parent] |= elems
            above[parent] |= upset
    return replayed == list(poset.up_masks)  # also shows every element was adjoined


def verify_witness(poset: FinPoset, witness: NonForestWitness) -> bool:
    """Soundness check for a non-forest witness, on its masks: the pieces are
    the components of the component's meet with the up-set of x, at least
    two, the component is connected, and with x and the up-set of x it
    spans an upward-closed region.  That region is connected: x lies below
    all of its up-set, which meets the connected component."""
    n, up = len(poset), poset.up_masks
    x, component, pieces = witness.x, witness.component, witness.upset_components
    if not (0 <= x < n and 0 <= component < 1 << n):
        return False
    if tuple(_component_masks(poset, component & up[x])) != pieces or len(pieces) < 2:
        return False
    if len(_component_masks(poset, component)) != 1:
        return False
    region = closure = 1 << x | component | up[x]
    for a in _bits(region):
        closure |= up[a]
    return closure == region
