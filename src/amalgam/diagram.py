"""Diagrams of finite sets and injections over a finite shape.

The cocone oracle computes the set-level colimit as a union-find quotient of
the disjoint sum of carriers: a diagram can be completed exactly when every
canonical map into that quotient stays injective, and the quotient is then
the cocone.  Every diagram of injections factors through the monic
reflection and the skeleton of its shape, so over an upward-simply-connected
shape this colimit always completes the diagram.  For shapes that fail the
decomposition a concrete cocone-free counterexample diagram is synthesized
and re-verified against the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .fincat import (
    FinCategory,
    FunctorMap,
    is_preorder,
    monic_reflection,
    skeleton_poset,
)
from .pinj import PartialInjection
from .poset import (
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    is_forest_like,
)


class DiagramError(Exception):
    pass


class NotInjective(DiagramError):
    pass


class FunctorialityViolation(DiagramError):
    pass


class CarrierMismatch(DiagramError):
    pass


class IllFormedWord(DiagramError):
    pass


class NotApplicable(DiagramError):
    pass


class HasCocone(DiagramError):
    pass


class FinInjDiagram:
    """A functor from a finite shape, a FinCategory or a FinPoset, into finite
    sets and injections.

    Carriers are tuples of distinct labels, and ``index[obj]`` sends each
    label of an object's carrier to its position.  An action is stored as
    ``maps[mor]``: the positions in the target carrier of the images of the
    domain carrier's elements, in carrier order.  Label dicts are built only
    on demand.
    """

    def __init__(self, shape: FinCategory | FinPoset, carriers, maps, index):
        self.shape = shape
        self.carriers = carriers
        self.maps = maps
        self.index = index

    def carrier(self, obj: int) -> tuple[str, ...]:
        return self.carriers[obj]

    def action(self, mor: int) -> dict[str, str]:
        m = self.shape.morphisms[mor]
        target = self.carriers[m.cod]
        return dict(zip(self.carriers[m.dom], map(target.__getitem__, self.maps[mor])))

    @property
    def actions(self) -> tuple[dict[str, str], ...]:
        return tuple(map(self.action, range(len(self.maps))))

    def as_pinj(self, mor: int) -> PartialInjection:
        m = self.shape.morphisms[mor]
        return PartialInjection(
            self.carriers[m.dom], self.carriers[m.cod], self.action(mor)
        )

    def __eq__(self, other):
        if not isinstance(other, FinInjDiagram):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.carriers == other.carriers
            and self.maps == other.maps
        )

    def __repr__(self):
        sizes = ", ".join(
            f"{self.shape.objects[i]}:{len(c)}" for i, c in enumerate(self.carriers)
        )
        return f"FinInjDiagram({sizes})"


def validate_diagram(shape: FinCategory | FinPoset, carriers, actions) -> FinInjDiagram:
    """Check totality, injectivity and functoriality.

    Each carrier's labels are interned once; each action, a mapping of
    labels, becomes the row of its images' positions, and every law is
    checked over those rows.  The action of an identity may be ``None``:
    its row is then the identity row, with nothing to check, while an
    action given for it is checked to act as the identity.  ``None`` for
    any other morphism is an action not defined on its carrier.
    Functoriality is checked with a generator on the left: if
    F(a∘f) = F(a)F(f) and F(b∘f) = F(b)F(f) for every f, then
    F((b∘a)∘f) = F(b)F(a∘f) = F(b∘a)F(f), as the shape is associative.
    """
    carriers = tuple(map(tuple, carriers))
    actions = [a if a is None or isinstance(a, dict) else dict(a) for a in actions]
    if len(carriers) != len(shape.objects):
        raise CarrierMismatch("one carrier per object required")
    if len(actions) != len(shape.morphisms):
        raise CarrierMismatch("one action per morphism required")
    index = tuple(dict(zip(c, range(len(c)))) for c in carriers)
    for i, c in enumerate(carriers):
        if len(index[i]) != len(c):
            raise CarrierMismatch(
                f"carrier of {shape.objects[i]} has duplicate labels"
            )
    maps = []
    for i, (m, act) in enumerate(zip(shape.morphisms, actions)):
        source = carriers[m.dom]
        if act is None and shape.is_identity(i):
            maps.append(tuple(range(len(source))))
            continue
        if act is None or len(act) != len(source):
            raise CarrierMismatch(
                f"action of {m.name} is not defined on exactly its carrier"
            )
        try:
            row = tuple(map(index[m.cod].__getitem__, map(act.__getitem__, source)))
        except (KeyError, TypeError):
            _raise_row_fault(m, act, source, index[m.cod])
            raise
        if len(set(row)) != len(row):
            raise NotInjective(f"action of {m.name} is not injective")
        maps.append(row)
    for x, i in enumerate(shape.identity):
        if actions[i] is not None and maps[i] != tuple(range(len(carriers[x]))):
            raise FunctorialityViolation(
                f"identity of {shape.objects[x]} does not act as the identity"
            )
    # Composites with an identity commute once the identities act as such.
    for g in shape.generators:
        ag, x = maps[g], shape.morphisms[g].dom
        for f in shape.hom_in[x]:
            if f != shape.identity[x] and (
                tuple(map(ag.__getitem__, maps[f])) != maps[shape.compose(g, f)]
            ):
                _raise_first_functoriality_fault(shape, carriers, maps)
    return FinInjDiagram(shape, carriers, tuple(maps), index)


def _raise_row_fault(m, act, source, target_index) -> None:
    """Name why an action of its carrier's size has no row: a source label
    it misses comes first, then an image outside the target.  An unhashable
    image met before either raises its TypeError, as a row build does."""
    if not all(map(act.__contains__, source)):
        raise CarrierMismatch(
            f"action of {m.name} is not defined on exactly its carrier"
        )
    if not all(map(target_index.__contains__, map(act.__getitem__, source))):
        raise CarrierMismatch(f"action of {m.name} leaves the target carrier")


def _raise_first_functoriality_fault(shape, carriers, maps) -> None:
    """Scan every composable pair of non-identities in the shape's table
    order and name the first that does not commute."""
    for g, f, r in shape.composites():
        af, ag, ar = maps[f], maps[g], maps[r]
        if tuple(map(ag.__getitem__, af)) != ar:
            p = next(p for p, q in enumerate(af) if ag[q] != ar[p])
            raise FunctorialityViolation(
                f"({shape.morphisms[g].name}, {shape.morphisms[f].name}) "
                f"does not commute at element {carriers[shape.morphisms[f].dom][p]}"
            )


@dataclass(frozen=True)
class Collision:
    """Two distinct elements of one carrier glued in the colimit, with the
    element-level zigzag connecting them."""

    obj: int
    x: str
    y: str
    nodes: tuple[tuple[int, str], ...]
    steps: tuple[tuple[int, bool], ...]

    def word(self) -> "ZigzagWord":
        return ZigzagWord(self.obj, self.steps)


class ColimitClasses:
    """The classes of a colimit as frozensets of (object, label) nodes, in
    class order.  Their number is known at once; the sets are built on the
    first access to one of them."""

    def __init__(self, colimit: "ColimitResult"):
        self._colimit = colimit

    def __len__(self) -> int:
        return self._colimit.count

    def __getitem__(self, k):
        return self._sets[k]

    def __iter__(self):
        return iter(self._sets)

    @cached_property
    def _sets(self) -> tuple[frozenset[tuple[int, str]], ...]:
        members: list[list[tuple[int, str]]] = [[] for _ in range(len(self))]
        ids, offsets = self._colimit.class_ids, self._colimit.offsets
        for obj, carrier in enumerate(self._colimit.diagram.carriers):
            for e, k in zip(carrier, ids[offsets[obj]:]):
                members[k].append((obj, e))
        return tuple(map(frozenset, members))


@dataclass
class ColimitResult:
    """Union-find quotient of the disjoint sum of carriers.

    Node ``offsets[obj] + p`` is the p-th element of the object's carrier;
    ``class_ids[node]`` is its class, and classes are numbered in the order
    of their first nodes.  The frozenset ``classes`` and the label-keyed
    ``class_of`` are built only when asked for.
    """

    diagram: FinInjDiagram
    offsets: tuple[int, ...]
    class_ids: list[int]
    count: int
    injective: tuple[bool, ...]
    collision: Collision | None

    @property
    def all_injective(self) -> bool:
        return all(self.injective)

    @cached_property
    def classes(self) -> ColimitClasses:
        return ColimitClasses(self)

    @cached_property
    def class_of(self) -> dict[tuple[int, str], int]:
        return {node: k for k, cl in enumerate(self.classes) for node in cl}

    def iota(self, obj: int, elem: str) -> int:
        return self.class_ids[self.offsets[obj] + self.diagram.index[obj][elem]]


def colimit_set(diagram: FinInjDiagram) -> ColimitResult:
    """Quotient the disjoint sum of carriers by x ~ action(x) for every morphism.

    The unions run over the shape's generators only: the action of any other
    morphism is a composite of theirs, so its steps are already unions.
    Union-find over integer nodes; a union keeps the smaller root, so every
    node's parent precedes it and each root is its class's first node, and
    the classes do not depend on the order of the unions.
    """
    shape, carriers, maps = diagram.shape, diagram.carriers, diagram.maps
    offsets = []
    total = 0
    for c in carriers:
        offsets.append(total)
        total += len(c)
    parent = list(range(total))
    for i in shape.generators:
        m = shape.morphisms[i]
        base = offsets[m.cod]
        for a, q in enumerate(maps[i], offsets[m.dom]):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            b = base + q
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b

    class_ids = parent  # rewritten in place: a node's parent comes first
    count = 0
    for k, p in enumerate(parent):
        if p == k:
            class_ids[k] = count
            count += 1
        else:
            class_ids[k] = class_ids[p]

    injective = []
    collision = None
    for obj, c in enumerate(carriers):
        ids = class_ids[offsets[obj]:offsets[obj] + len(c)]
        injective.append(len(set(ids)) == len(ids))
        if collision is None and not injective[-1]:
            first: dict[int, int] = {}
            for y, k in enumerate(ids):
                x = first.setdefault(k, y)
                if x != y:
                    break
            nodes, steps = _element_zigzag(
                diagram, offsets, class_ids, obj, offsets[obj] + x, offsets[obj] + y
            )
            collision = Collision(obj, c[x], c[y], nodes, steps)
    return ColimitResult(
        diagram, tuple(offsets), class_ids, count, tuple(injective), collision
    )


def _element_zigzag(diagram, offsets, class_ids, obj, start, goal):
    """A shortest zigzag between two nodes of the object's carrier: BFS over
    the single action steps between the nodes of their class."""
    shape, maps = diagram.shape, diagram.maps
    target = class_ids[start]
    adj: dict[int, list[tuple[int, int, bool]]] = {}
    for i, m in enumerate(shape.morphisms):
        if shape.is_identity(i):
            continue
        base = offsets[m.cod]
        for a, q in enumerate(maps[i], offsets[m.dom]):
            if class_ids[a] == target:
                adj.setdefault(a, []).append((base + q, i, True))
                adj.setdefault(base + q, []).append((a, i, False))
    prev: dict[int, tuple[int, int, bool] | None] = {start: None}
    queue = deque([start])
    while queue and goal not in prev:
        node = queue.popleft()
        for nxt, i, forward in adj.get(node, ()):
            if nxt not in prev:
                prev[nxt] = (node, i, forward)
                queue.append(nxt)
    if goal not in prev:
        raise DiagramError("no zigzag found for a colimit collision")
    path, steps = [goal], []
    while prev[path[-1]] is not None:
        node, i, forward = prev[path[-1]]
        path.append(node)
        steps.append((i, forward))
    path.reverse()
    steps.reverse()
    objs = [obj]
    for i, forward in steps:
        m = shape.morphisms[i]
        objs.append(m.cod if forward else m.dom)
    nodes = [(o, diagram.carriers[o][k - offsets[o]]) for o, k in zip(objs, path)]
    return tuple(nodes), tuple(steps)


@dataclass
class Cocone:
    """Apex carrier and one injective leg per object, commuting with all actions.

    ``legs[obj][p]`` is the apex position of the p-th element of the object's
    carrier.
    """

    apex: tuple[str, ...]
    legs: tuple[tuple[int, ...], ...]


def validate_cocone(diagram: FinInjDiagram, cocone: Cocone) -> None:
    """Check that every leg is total, stays inside the apex, is injective and
    commutes with every action, all over carrier and apex positions.  Legs
    that commute with the generators' actions commute with their composites,
    so the other morphisms are scanned only to name a fault."""
    shape = diagram.shape
    legs = cocone.legs
    if len(legs) != len(shape.objects):
        raise CarrierMismatch("one leg per object required")
    for obj, leg in enumerate(legs):
        if len(leg) != len(diagram.carriers[obj]):
            raise CarrierMismatch(
                f"leg of {shape.objects[obj]} is not total on its carrier"
            )
        if leg and not (0 <= min(leg) and max(leg) < len(cocone.apex)):
            raise CarrierMismatch(f"leg of {shape.objects[obj]} leaves the apex")
        if len(set(leg)) != len(leg):
            raise NotInjective(f"leg of {shape.objects[obj]} is not injective")

    def commutes(i: int) -> bool:
        m = shape.morphisms[i]
        return tuple(map(legs[m.cod].__getitem__, diagram.maps[i])) == tuple(legs[m.dom])

    if all(map(commutes, shape.generators)):
        return
    for i, m in enumerate(shape.morphisms):
        if shape.is_identity(i) or commutes(i):
            continue
        row, source, target = diagram.maps[i], tuple(legs[m.dom]), legs[m.cod]
        p = next(p for p, q in enumerate(row) if target[q] != source[p])
        raise FunctorialityViolation(
            f"leg does not commute with {m.name} at element "
            f"{diagram.carriers[m.dom][p]}"
        )


@dataclass
class CoconeResult:
    """Truthy when a cocone exists; carries the cocone or the collision."""

    exists: bool
    cocone: Cocone | None
    collision: Collision | None
    colimit: ColimitResult

    def __bool__(self) -> bool:
        return self.exists


def has_cocone(diagram: FinInjDiagram) -> CoconeResult:
    """Oracle: a cocone exists iff all canonical maps to the colimit are injective.

    The colimit is the cocone: apex ``q{k}`` for class k, and each leg the
    slice of class ids over the object's carrier."""
    colim = colimit_set(diagram)
    if not colim.all_injective:
        return CoconeResult(False, None, colim.collision, colim)
    ids, offsets = colim.class_ids, colim.offsets
    legs = tuple(
        tuple(ids[offsets[obj]:offsets[obj] + len(c)])
        for obj, c in enumerate(diagram.carriers)
    )
    cocone = Cocone(tuple(map("q{}".format, range(colim.count))), legs)
    validate_cocone(diagram, cocone)
    return CoconeResult(True, cocone, None, colim)


@dataclass(frozen=True)
class ZigzagWord:
    """A path of shape morphisms traversed forward or backward.

    Acts on a diagram as the composite of action maps and partial inverses.
    """

    source: int
    steps: tuple[tuple[int, bool], ...]

    def target(self, shape: FinCategory) -> int:
        at = self.source
        for mor, forward in self.steps:
            m = shape.morphisms[mor]
            if forward:
                if m.dom != at:
                    raise IllFormedWord(
                        f"step {m.name} does not start at {shape.objects[at]}"
                    )
                at = m.cod
            else:
                if m.cod != at:
                    raise IllFormedWord(
                        f"reversed step {m.name} does not start at {shape.objects[at]}"
                    )
                at = m.dom
        return at

    def is_endo(self, shape: FinCategory) -> bool:
        return self.target(shape) == self.source


def zigzag_action(diagram: FinInjDiagram, word: ZigzagWord) -> PartialInjection:
    """Evaluate the word on the diagram; backward steps use partial inverses."""
    word.target(diagram.shape)
    result = PartialInjection.identity(diagram.carrier(word.source))
    for mor, forward in word.steps:
        arrow = diagram.as_pinj(mor)
        if not forward:
            arrow = arrow.inverse()
        result = arrow.after(result)
    return result


class CoconeFreeDiagram(FinInjDiagram):
    """A diagram with no cocone, with the colimit collision that shows it."""

    def __init__(self, diagram: FinInjDiagram, collision: Collision):
        super().__init__(diagram.shape, diagram.carriers, diagram.maps, diagram.index)
        self.collision = collision


@dataclass
class ShapeAnalysis:
    """Everything the verdict pipeline learns about a shape.

    A shape given as a FinPoset is its own reflection and skeleton, with no
    projection and the identity as skeleton map.
    """

    shape: FinCategory | FinPoset
    reflection: FinCategory | FinPoset
    projection: FunctorMap | None
    preorder: bool
    parallel_pair: tuple[int, int] | None
    skeleton: FinPoset | None
    skeleton_map: tuple[int, ...] | None
    forest: ForestCertificate | NonForestWitness | None

    @property
    def usc(self) -> bool:
        """Upward-simply-connected: reflection is a preorder with forest-like skeleton."""
        return self.preorder and isinstance(self.forest, ForestCertificate)


def analyze_shape(shape: FinCategory | FinPoset) -> ShapeAnalysis:
    """Run monic reflection, preorder detection and the forest decomposition.

    A poset category is monic and skeletal, so a FinPoset goes straight to
    the decomposition, and no composition table is built for it.
    """
    if isinstance(shape, FinPoset):
        identity = tuple(range(len(shape)))
        return ShapeAnalysis(
            shape, shape, None, True, None, shape, identity, is_forest_like(shape)
        )
    reflection, projection = monic_reflection(shape)
    if not is_preorder(reflection):
        pair = next(iter(reflection.parallel_pairs()))
        return ShapeAnalysis(
            shape, reflection, projection, False, pair, None, None, None
        )
    skeleton, skeleton_map = skeleton_poset(reflection)
    forest = is_forest_like(skeleton)
    return ShapeAnalysis(
        shape, reflection, projection, True, None, skeleton, skeleton_map, forest
    )


def witness_no_cocone(
    shape: FinCategory | FinPoset, analysis: ShapeAnalysis | None = None
) -> CoconeFreeDiagram:
    """Synthesize a diagram over the shape that has no cocone.

    Applicable exactly when the shape is not upward-simply-connected.  When
    the monic reflection keeps a distinct parallel pair A -> B, the carriers
    are the reflected hom-sets out of A with post-composition actions, which
    glues the two class elements together.  Otherwise the skeleton poset has
    a non-forest witness (x, K): x carries one point sent to 0 over one piece
    of K's up-set and to 1 over the others, K and the rest of the up-set
    carry {0, 1} with identity actions, everything else is empty.  The output
    is re-verified to be cocone-free before being returned, together with
    the oracle's collision.  A shape given as a FinPoset carries the diagram
    itself, through its morphisms.
    """
    if analysis is None:
        analysis = analyze_shape(shape)
    if analysis.usc:
        raise NotApplicable("every diagram over this shape has a cocone")

    if not analysis.preorder:
        refl = analysis.reflection
        proj = analysis.projection
        a = refl.morphisms[analysis.parallel_pair[0]].dom
        hom_from_a = [refl.hom(a, x) for x in range(len(refl.objects))]
        carriers = [
            tuple(refl.morphisms[g].name for g in hom_from_a[x])
            for x in range(len(refl.objects))
        ]
        actions = []
        for i, m in enumerate(shape.morphisms):
            mi = proj.mor_map[i]
            actions.append(
                {
                    refl.morphisms[g].name: refl.morphisms[refl.compose(mi, g)].name
                    for g in hom_from_a[m.dom]
                }
            )
        witness = validate_diagram(shape, carriers, actions)
    else:
        poset = analysis.skeleton
        smap = analysis.skeleton_map
        w = analysis.forest
        up_x = poset.up(w.x)
        two_sided = (w.component | up_x) - {w.x}
        zero_side = w.upset_components[0] | (up_x - w.component - {w.x})

        def carrier_for(v: int) -> tuple[str, ...]:
            if v == w.x:
                return ("*",)
            if v in two_sided:
                return ("0", "1")
            return ()

        carriers = [carrier_for(smap[obj]) for obj in range(len(shape.objects))]
        actions = []
        for i, m in enumerate(shape.morphisms):
            vx, vy = smap[m.dom], smap[m.cod]
            if shape.is_identity(i):
                actions.append(None)
            elif vx == vy:
                actions.append({e: e for e in carrier_for(vx)})
            elif vx == w.x:
                actions.append({"*": "0" if vy in zero_side else "1"})
            elif carrier_for(vx) == ():
                actions.append({})
            else:
                actions.append({"0": "0", "1": "1"})
        witness = validate_diagram(shape, carriers, actions)

    answer = has_cocone(witness)
    if answer:
        raise DiagramError("synthesized witness unexpectedly has a cocone")
    return CoconeFreeDiagram(witness, answer.collision)


def shrink_witness(diagram: FinInjDiagram) -> FinInjDiagram:
    """Restrict a cocone-free diagram to the forward-reachable closure of its
    collision zigzag; the restriction is still cocone-free."""
    answer = has_cocone(diagram)
    if answer:
        raise HasCocone("diagram has a cocone; nothing to shrink")
    shape = diagram.shape
    keep: list[set[int]] = [set() for _ in shape.objects]
    for obj, elem in answer.collision.nodes:
        p = diagram.index[obj][elem]
        for i in shape.hom_out[obj]:
            keep[shape.morphisms[i].cod].add(diagram.maps[i][p])
    carriers = [
        tuple(e for p, e in enumerate(c) if p in keep[obj])
        for obj, c in enumerate(diagram.carriers)
    ]
    actions = []
    for i, (m, row) in enumerate(zip(shape.morphisms, diagram.maps)):
        if shape.is_identity(i):
            actions.append(None)
            continue
        source, target = diagram.carriers[m.dom], diagram.carriers[m.cod]
        actions.append({source[p]: target[row[p]] for p in keep[m.dom]})
    shrunk = validate_diagram(shape, carriers, actions)
    if has_cocone(shrunk):
        raise DiagramError("shrunk witness unexpectedly has a cocone")
    return shrunk
