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
from dataclasses import dataclass

from . import groups


class PosetError(Exception):
    pass


class NotAPartialOrder(PosetError):
    pass


class FinPoset:
    """Finite partial order over indexed, named elements.

    The relation is stored as up-sets (``up[i]`` contains ``i``).
    Reflexivity, antisymmetry and transitivity are validated on
    construction.
    """

    def __init__(self, elements, pairs):
        """Build from the complete list of related pairs (reflexive pairs optional)."""
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise NotAPartialOrder("element names must be distinct")
        n = len(self.elements)
        up = [set() for _ in range(n)]
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise NotAPartialOrder(f"pair ({a}, {b}) out of range")
            up[a].add(b)
        for i in range(n):
            up[i].add(i)
        for a in range(n):
            for b in up[a]:
                if a != b and a in up[b]:
                    raise NotAPartialOrder(
                        f"antisymmetry fails on {self.elements[a]}, {self.elements[b]}"
                    )
                for c in up[b]:
                    if c not in up[a]:
                        raise NotAPartialOrder(
                            "transitivity fails on "
                            f"{self.elements[a]} <= {self.elements[b]} <= {self.elements[c]}"
                        )
        self._up = tuple(frozenset(s) for s in up)

    @classmethod
    def from_covers(cls, elements, covers) -> "FinPoset":
        """Build from Hasse-style edges; the reflexive-transitive closure is taken."""
        elements = tuple(elements)
        n = len(elements)
        up = [set([i]) for i in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise NotAPartialOrder(f"cover ({a}, {b}) out of range")
            up[a].add(b)
        changed = True
        while changed:
            changed = False
            for a in range(n):
                extra = set()
                for b in up[a]:
                    extra |= up[b]
                if not extra <= up[a]:
                    up[a] |= extra
                    changed = True
        return cls(elements, [(a, b) for a in range(n) for b in up[a]])

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, FinPoset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __repr__(self):
        rel = sorted(
            (self.elements[a], self.elements[b])
            for a in range(len(self))
            for b in self._up[a]
            if a != b
        )
        return f"FinPoset({list(self.elements)}, {rel})"

    def leq(self, a: int, b: int) -> bool:
        return b in self._up[a]

    def up(self, a: int) -> frozenset[int]:
        return self._up[a]

    def down(self, a: int) -> frozenset[int]:
        return frozenset(b for b in range(len(self)) if a in self._up[b])

    def comparable(self, a: int, b: int) -> bool:
        return b in self._up[a] or a in self._up[b]

    def relation_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) for a in range(len(self)) for b in self._up[a]
        )

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Hasse edges: a < b with nothing strictly between."""
        covers = []
        for a in range(len(self)):
            for b in self._up[a]:
                if a == b:
                    continue
                if not any(
                    c != a and c != b and c in self._up[a] and b in self._up[c]
                    for c in range(len(self))
                ):
                    covers.append((a, b))
        return covers

    def minimal(self, subset=None) -> list[int]:
        region = set(range(len(self))) if subset is None else set(subset)
        return sorted(
            a for a in region
            if not any(b != a and a in self._up[b] for b in region)
        )

    def restrict(self, subset) -> tuple["FinPoset", dict[int, int]]:
        """Induced subposet on the given elements; returns it with the old->new index map."""
        old = sorted(set(subset))
        index = {o: i for i, o in enumerate(old)}
        pairs = [
            (index[a], index[b])
            for a in old
            for b in self._up[a]
            if b in index
        ]
        return FinPoset([self.elements[o] for o in old], pairs), index

    def upward_closed_subsets(self) -> list[frozenset[int]]:
        """All upward-closed subsets, smallest first (exponential; small posets only)."""
        n = len(self)
        out = []
        for mask in range(1 << n):
            members = {i for i in range(n) if mask >> i & 1}
            if all(self._up[i] <= members for i in members):
                out.append(frozenset(members))
        return sorted(out, key=lambda s: (len(s), sorted(s)))


def upward_closure(poset: FinPoset, subset) -> frozenset[int]:
    """Everything lying above some member of the subset (members included)."""
    out: set[int] = set()
    for a in subset:
        out |= poset.up(a)
    return frozenset(out)


def components(poset: FinPoset, subset) -> tuple[frozenset[int], ...]:
    """Connected components of the comparability graph induced on the subset."""
    region = set(subset)
    seen: set[int] = set()
    parts = []
    for start in sorted(region):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b in sorted(region - comp):
                if poset.comparable(a, b):
                    comp.add(b)
                    queue.append(b)
        seen |= comp
        parts.append(frozenset(comp))
    return tuple(parts)


@dataclass(frozen=True)
class DecompositionNode:
    """One tree-building step: ``point`` adjoined below the upsets of its children."""

    point: int
    children: tuple["DecompositionNode", ...]
    upsets: tuple[frozenset[int], ...]

    def elements(self) -> frozenset[int]:
        out = {self.point}
        for child in self.children:
            out |= child.elements()
        return frozenset(out)


@dataclass(frozen=True)
class ForestCertificate:
    """Replayable decomposition of a forest-like poset, one tree per component."""

    roots: tuple[DecompositionNode, ...]

    def elements(self) -> frozenset[int]:
        out: set[int] = set()
        for root in self.roots:
            out |= root.elements()
        return frozenset(out)


@dataclass(frozen=True)
class NonForestWitness:
    """Failure evidence: below ``x``, the component ``component`` of the region
    minus ``x`` meets the up-set of ``x`` in at least two pieces.

    ``u`` and ``v`` sit in distinct pieces, joined inside the component by the
    recorded comparability zigzag.  ``region`` is the connected upward-closed
    subposet exhibiting the failure.
    """

    x: int
    component: frozenset[int]
    upset_components: tuple[frozenset[int], ...]
    u: int
    v: int
    zigzag: tuple[int, ...]
    region: frozenset[int]


def _zigzag_path(poset: FinPoset, region: frozenset[int], u: int, v: int) -> tuple[int, ...]:
    """Shortest comparability path u..v inside region, compressed to alternate."""
    prev: dict[int, int] = {u: u}
    queue = deque([u])
    while queue:
        a = queue.popleft()
        if a == v:
            break
        for b in sorted(region):
            if b not in prev and poset.comparable(a, b):
                prev[b] = a
                queue.append(b)
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    path.reverse()
    # merge consecutive steps in the same direction (transitivity)
    out = [path[0]]
    directions: list[bool] = []
    for b in path[1:]:
        direction = poset.leq(out[-1], b)
        if directions and directions[-1] == direction:
            out[-1] = b
        else:
            out.append(b)
            directions.append(direction)
    return tuple(out)


def _decompose(poset: FinPoset, region: frozenset[int]):
    """Recursive tree test on a connected region: node or witness."""
    x = min(poset.minimal(region))
    rest = region - {x}
    parts = components(poset, rest)
    up_x = poset.up(x) & region
    children = []
    upsets = []
    for part in parts:
        upset = part & up_x
        upset_parts = components(poset, upset)
        # a component of a connected region always meets the up-set of its minimum
        assert upset_parts, (region, x, part)
        if len(upset_parts) != 1:
            u = min(upset_parts[0])
            v = min(upset_parts[1])
            return NonForestWitness(
                x=x,
                component=part,
                upset_components=upset_parts,
                u=u,
                v=v,
                zigzag=_zigzag_path(poset, part, u, v),
                region=frozenset({x} | part | up_x),
            )
        result = _decompose(poset, part)
        if isinstance(result, NonForestWitness):
            return result
        children.append(result)
        upsets.append(upset)
    return DecompositionNode(x, tuple(children), tuple(upsets))


def is_forest_like(poset: FinPoset):
    """Decide forest-likeness; returns a ForestCertificate or a NonForestWitness.

    Each connected component is decomposed by repeatedly removing its
    least-index minimal element and requiring the up-set of that element to
    meet every remaining component in one connected piece.
    """
    roots = []
    for part in components(poset, range(len(poset))):
        result = _decompose(poset, part)
        if isinstance(result, NonForestWitness):
            return result
        roots.append(result)
    return ForestCertificate(tuple(roots))


def replay_certificate(cert: ForestCertificate) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """Rebuild (elements, relation pairs) by replaying the decomposition rule."""

    def replay(node: DecompositionNode):
        elems = {node.point}
        pairs = {(node.point, node.point)}
        below: set[int] = set()
        for child, upset in zip(node.children, node.upsets):
            celems, cpairs = replay(child)
            elems |= celems
            pairs |= cpairs
            below |= upset
        for b in below:
            pairs.add((node.point, b))
        return frozenset(elems), frozenset(pairs)

    elems: set[int] = set()
    pairs: set[tuple[int, int]] = set()
    for root in cert.roots:
        relems, rpairs = replay(root)
        if elems & relems:
            raise PosetError("certificate components overlap")
        elems |= relems
        pairs |= rpairs
    return frozenset(elems), frozenset(pairs)


def verify_certificate(poset: FinPoset, cert: ForestCertificate) -> bool:
    """Soundness check: the replayed relation reconstructs the poset exactly."""
    try:
        elems, pairs = replay_certificate(cert)
    except PosetError:
        return False
    if elems != frozenset(range(len(poset))):
        return False
    if pairs != poset.relation_pairs():
        return False

    def nodes_ok(node: DecompositionNode) -> bool:
        for child, upset in zip(node.children, node.upsets):
            celems = child.elements()
            if not upset or not upset <= celems:
                return False
            if len(components(poset, upset)) != 1:
                return False
            if upward_closure(poset, upset) & celems != upset:
                return False
            if not nodes_ok(child):
                return False
        return len(node.children) == len(node.upsets)

    return all(nodes_ok(root) for root in cert.roots)


def verify_witness(poset: FinPoset, witness: NonForestWitness) -> bool:
    """Soundness check for a non-forest witness."""
    up_x = poset.up(witness.x)
    upset = witness.component & up_x
    if components(poset, upset) != witness.upset_components:
        return False
    if len(witness.upset_components) < 2:
        return False
    if witness.u not in witness.upset_components[0]:
        return False
    if not any(witness.v in part for part in witness.upset_components[1:]):
        return False
    z = witness.zigzag
    if z[0] != witness.u or z[-1] != witness.v:
        return False
    if not set(z) <= witness.component:
        return False
    if not all(poset.comparable(a, b) for a, b in zip(z, z[1:])):
        return False
    # the witness region must be connected and upward-closed
    region = witness.region
    if region != frozenset({witness.x} | witness.component | up_x):
        return False
    if upward_closure(poset, region) != region:
        return False
    return len(components(poset, region)) == 1


def _component_presentation(poset: FinPoset, comp: list[int]):
    """Edge-path group presentation of one component's order complex.

    Generators: comparability edges; relators: one per spanning-tree edge and
    one per chain of three.  Returns (generator count, relator words) with a
    word encoding generator g forward as 2g and backward as 2g+1.
    """
    edges = []
    for i, a in enumerate(comp):
        for b in comp[i + 1:]:
            if poset.leq(a, b):
                edges.append((a, b))
            elif poset.leq(b, a):
                edges.append((b, a))
    edges.sort()
    index = {e: k for k, e in enumerate(edges)}

    tree_edges = set()
    seen = {comp[0]}
    queue = deque([comp[0]])
    while queue:
        a = queue.popleft()
        for b in sorted(comp):
            if b not in seen and poset.comparable(a, b):
                seen.add(b)
                tree_edges.add((a, b) if poset.leq(a, b) else (b, a))
                queue.append(b)

    relators = [(2 * index[e],) for e in sorted(tree_edges)]
    for a in comp:
        for b in comp:
            if a != b and poset.leq(a, b):
                for c in comp:
                    if b != c and a != c and poset.leq(b, c):
                        relators.append(
                            (2 * index[(a, b)], 2 * index[(b, c)], 2 * index[(a, c)] + 1)
                        )
    return len(edges), relators


def simply_connected_bounded(poset: FinPoset, *, max_cosets: int = 20000):
    """Bounded test for simple-connectedness of the order complex.

    Returns True / False / None (unknown).  Each component is presented by a
    spanning tree of its comparability graph plus one relator per 3-chain
    triangle; a nontrivial abelianization refutes, bounded coset enumeration
    confirms when it collapses everything to one coset.
    """
    unknown = False
    for comp in components(poset, range(len(poset))):
        comp = sorted(comp)
        ngens, relators = _component_presentation(poset, comp)
        if ngens == 0:
            continue
        rows = []
        for word in relators:
            row = [0] * ngens
            for step in word:
                row[step // 2] += -1 if step % 2 else 1
            rows.append(row)
        if not groups.abelianization_is_trivial(rows, ngens):
            return False
        order = groups.enumerate_cosets(ngens, relators, max_cosets=max_cosets)
        if order is None:
            unknown = True
        elif order > 1:
            return False
    return None if unknown else True
