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
from itertools import compress, count, starmap, zip_longest
from operator import eq

from .record import FrozenRecord, set_field


class PosetError(Exception):
    pass


class NotAPartialOrder(PosetError):
    pass


def clip(name) -> str:
    """A name from the input, or any value, as a fault message quotes it:
    its text whole up to 80 characters, and past them its first 77
    followed by ``...``."""
    text = f"{name}"
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
    """Indices of the set bits of mask, ascending, read off its binary digits."""
    return compress(count(), map("1".__eq__, bin(mask)[:1:-1]))


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


def _sparse_bits(mask: int):
    """Indices of the set bits of mask, ascending, split off one at a time:
    cheaper than ``_bits`` on a long mask with few bits set."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    pair.  Its morphisms are the identities, then the pairs a < b in
    increasing order, named ``a->b``; they are built on first use, and every
    index and composite is read off the masks.  The covers generate them.
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

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up_masks[a] >> b & 1)

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
    def arrow_ends(self) -> tuple[tuple[int, int], ...]:
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
        out.extend(f"{names[a]}->{names[b]}" for a, b in self.arrow_ends[len(names):])
        if len(set(out)) != len(out):
            from .fincat import Morphism, name_index  # fincat builds on this module

            name_index(names, [Morphism(m, a, b) for m, (a, b) in zip(out, self.arrow_ends)])
        return tuple(out)

    @cached_property
    def _arrows(self):
        """The morphisms and their name index."""
        from .fincat import Morphism

        names = self.arrow_names
        morphisms = tuple(Morphism(m, a, b) for m, (a, b) in zip(names, self.arrow_ends))
        return morphisms, dict(zip(names, count()))

    @cached_property
    def morphisms(self) -> tuple:
        return self._arrows[0]

    @cached_property
    def mor_index(self) -> dict[str, int]:
        return self._arrows[1]

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

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return (self.arrow(x, y),) if self.leq(x, y) else ()

    def compose(self, g: int, f: int) -> int:
        """Index of g∘f (f applied first): the arrow between their ends."""
        return self.arrow(self.morphisms[f].dom, self.morphisms[g].cod)

    @cached_property
    def hom_out(self) -> list[list[int]]:
        first = self._first_arrow
        return [
            [a, *range(first[a], first[a] + mask.bit_count() - 1)]
            for a, mask in enumerate(self.up_masks)
        ]

    @cached_property
    def hom_in(self) -> list[list[int]]:
        return [
            [b, *(self.arrow(a, b) for a in _sparse_bits(mask & ~(1 << b)))]
            for b, mask in enumerate(self.down_masks)
        ]

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
            for b in _sparse_bits(mask & ~(1 << a)):
                ab = arrow(a, b)
                for c in _sparse_bits(up[b] & ~(1 << b)):
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


def _preorder(roots):
    """(point, up-sets, child count) of each node, in pre-order: the child
    counts fix the shape, so two forests are equal exactly when these agree."""
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node.point, node.upsets, len(node.children)
        stack.extend(reversed(node.children))


def _same_forest(roots, other_roots) -> bool:
    return all(starmap(eq, zip_longest(_preorder(roots), _preorder(other_roots))))


class DecompositionNode(FrozenRecord):
    """One tree-building step: ``point`` adjoined below the upsets of its
    children, each a mask of element indices.

    Equality and hashing walk the tree on an explicit stack, and the repr
    shows this node alone, its masks in hex: a certificate may be deeper
    than the recursion limit, and a mask longer than the digit limit of
    int-to-decimal conversion.
    """

    def __init__(
        self, point: int, children: tuple[DecompositionNode, ...], upsets: tuple[int, ...]
    ):
        set_field(self, "point", point)
        set_field(self, "children", children)
        set_field(self, "upsets", upsets)

    def __eq__(self, other):
        if not isinstance(other, DecompositionNode):
            return NotImplemented
        return _same_forest((self,), (other,))

    def __hash__(self):
        return hash(tuple(_preorder((self,))))

    def __repr__(self):
        upsets = ", ".join(map(hex, self.upsets))
        return (
            f"DecompositionNode(point={self.point}, upsets=[{upsets}], "
            f"children={len(self.children)})"
        )


class ForestCertificate(FrozenRecord):
    """Replayable decomposition of a forest-like poset, one tree per component."""

    _fields = ("roots",)

    def __init__(self, roots: tuple[DecompositionNode, ...]):
        set_field(self, "roots", roots)

    def __eq__(self, other):
        if not isinstance(other, ForestCertificate):
            return NotImplemented
        return _same_forest(self.roots, other.roots)

    def __hash__(self):
        return hash(tuple(_preorder(self.roots)))


class NonForestWitness(FrozenRecord):
    """Failure evidence: below ``x``, the component ``component`` of the region
    minus ``x`` meets the up-set of ``x`` in the pieces ``upset_components``,
    at least two.  ``component`` and the pieces are masks of element indices;
    ``witness_points`` reads the rest off them.
    """

    _fields = ("x", "component", "upset_components")

    def __init__(self, x: int, component: int, upset_components: tuple[int, ...]):
        set_field(self, "x", x)
        set_field(self, "component", component)
        set_field(self, "upset_components", upset_components)

    def __repr__(self):  # masks in hex: no digit limit applies
        pieces = ", ".join(map(hex, self.upset_components))
        return (
            f"NonForestWitness(x={self.x}, component={self.component:#x}, "
            f"upset_components=[{pieces}])"
        )


def _zigzag_path(poset: FinPoset, region: int, u: int, v: int) -> tuple[int, ...]:
    """Shortest comparability path u..v inside region, compressed to alternate."""
    parent = _bfs_parents(poset, region, u, v)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    # merge consecutive steps in the same direction (transitivity)
    up = poset.up_masks
    out = [path[0]]
    directions: list[bool] = []
    for b in path[1:]:
        direction = up[out[-1]] >> b & 1 == 1
        if directions and directions[-1] == direction:
            out[-1] = b
        else:
            out.append(b)
            directions.append(direction)
    return tuple(out)


def witness_points(poset: FinPoset, w: NonForestWitness) -> tuple[int, int, tuple[int, ...], int]:
    """(u, v, zigzag, region) of a witness: u and v are the least elements of
    its first two pieces, the zigzag is a shortest comparability path from u
    to v inside the component, and the region, x with the component and the
    up-set of x, is the connected upward-closed subposet exhibiting the
    failure, as a mask."""
    u, v = ((piece & -piece).bit_length() - 1 for piece in w.upset_components[:2])
    zigzag = _zigzag_path(poset, w.component, u, v)
    return u, v, zigzag, 1 << w.x | w.component | poset.up_masks[w.x]


def _decompose(poset: FinPoset, region: int):
    """Tree test on a connected region: node or witness.

    Frames [x, up-set of x, parts of the region minus x, children, up-sets]
    sit on an explicit stack; each part's up-set is checked just before its
    subtree is walked, the order of a recursive descent.
    """
    up, down = poset.up_masks, poset.down_masks

    def frame(region: int) -> list:
        rest = region
        while True:  # the least minimal element: split off the lowest bit
            low = rest & -rest
            x = low.bit_length() - 1
            if down[x] & region == low:
                return [x, up[x] & region, _component_masks(poset, region ^ low), [], []]
            rest ^= low

    stack = [frame(region)]
    while True:
        x, up_x, parts, children, upsets = stack[-1]
        if len(children) == len(parts):
            stack.pop()
            node = DecompositionNode(x, tuple(children), tuple(upsets))
            if not stack:
                return node
            stack[-1][3].append(node)
            continue
        part = parts[len(children)]
        upset = part & up_x
        upset_parts = _component_masks(poset, upset)
        # a component of a connected region always meets the up-set of its minimum
        assert upset_parts, (x, part)
        if len(upset_parts) != 1:
            return NonForestWitness(x, part, tuple(upset_parts))
        upsets.append(upset)
        stack.append(frame(part))


def is_forest_like(poset: FinPoset):
    """Decide forest-likeness; returns a ForestCertificate or a NonForestWitness.

    Each connected component is decomposed by repeatedly removing its
    least-index minimal element and requiring the up-set of that element to
    meet every remaining component in one connected piece.
    """
    roots = []
    for part in _component_masks(poset, (1 << len(poset)) - 1):
        result = _decompose(poset, part)
        if isinstance(result, NonForestWitness):
            return result
        roots.append(result)
    return ForestCertificate(tuple(roots))


def replay_certificate(cert: ForestCertificate) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """Rebuild (elements, relation pairs) by replaying the decomposition rule.

    Each node's point lies below itself and below every element of its
    up-sets; a child is replayed only when it is paired with an up-set.
    """
    elems: set[int] = set()
    pairs: set[tuple[int, int]] = set()
    for root in cert.roots:
        relems = set()
        stack = [root]
        while stack:
            node = stack.pop()
            relems.add(node.point)
            pairs.add((node.point, node.point))
            for child, upset in zip(node.children, node.upsets):
                pairs.update((node.point, b) for b in _bits(upset))
                stack.append(child)
        if elems & relems:
            raise PosetError("certificate components overlap")
        elems |= relems
    return frozenset(elems), frozenset(pairs)


def verify_certificate(poset: FinPoset, cert: ForestCertificate) -> bool:
    """Soundness check: every element is adjoined exactly once, every up-set
    is connected and lies in its child, and the replayed up-set masks are
    the poset's.

    Each up-set below a point a is then up(a) restricted to its child, which
    is upward-closed in the child.  One post-order walk on an explicit stack;
    ``below`` holds the element mask of each finished subtree.
    """
    n, up = len(poset), poset.up_masks
    replayed = [0] * n
    seen = 0
    below: dict[int, int] = {}
    stack = [(root, False) for root in cert.roots]
    while stack:
        node, ready = stack.pop()
        if not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        p = node.point
        if not 0 <= p < n or seen >> p & 1 or len(node.children) != len(node.upsets):
            return False
        seen |= 1 << p
        elems = rel = 1 << p
        for child, upset in zip(node.children, node.upsets):
            celems = below[id(child)]
            # a negative mask, or one with a bit past the child, leaves it
            if upset & ~celems or len(_component_masks(poset, upset)) != 1:
                return False
            rel |= upset
            elems |= celems
        replayed[p] = rel
        below[id(node)] = elems
    return replayed == list(up)  # also shows every element was adjoined


def verify_witness(poset: FinPoset, witness: NonForestWitness) -> bool:
    """Soundness check for a non-forest witness, on its masks: the pieces are
    the components of the component's meet with the up-set of x, at least
    two, the component is connected, and with x and the up-set of x it
    spans a connected upward-closed region."""
    n, up = len(poset), poset.up_masks
    x, component, pieces = witness.x, witness.component, witness.upset_components
    if not (0 <= x < n and 0 <= component < 1 << n):
        return False
    if tuple(_component_masks(poset, component & up[x])) != pieces or len(pieces) < 2:
        return False
    if len(_component_masks(poset, component)) != 1:
        return False
    region = closure = 1 << x | component | up[x]
    for a in _sparse_bits(region):
        closure |= up[a]
    return closure == region and len(_component_masks(poset, region)) == 1
