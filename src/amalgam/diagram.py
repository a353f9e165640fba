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

from .fincat import (
    FinCategory,
    FunctorMap,
    category_from_poset,
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
    """A functor from a finite shape into finite sets and injections."""

    def __init__(self, shape: FinCategory, carriers, actions):
        self.shape = shape
        self.carriers = tuple(tuple(c) for c in carriers)
        self.actions = tuple(dict(a) for a in actions)

    def carrier(self, obj: int) -> tuple[str, ...]:
        return self.carriers[obj]

    def action(self, mor: int) -> dict[str, str]:
        return self.actions[mor]

    def as_pinj(self, mor: int) -> PartialInjection:
        m = self.shape.morphisms[mor]
        return PartialInjection(
            self.carriers[m.dom], self.carriers[m.cod], self.actions[mor]
        )

    def total_elements(self) -> int:
        return sum(len(c) for c in self.carriers)

    def __eq__(self, other):
        if not isinstance(other, FinInjDiagram):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.carriers == other.carriers
            and self.actions == other.actions
        )

    def __repr__(self):
        sizes = ", ".join(
            f"{self.shape.objects[i]}:{len(c)}" for i, c in enumerate(self.carriers)
        )
        return f"FinInjDiagram({sizes})"


def validate_diagram(shape: FinCategory, carriers, actions) -> FinInjDiagram:
    """Exhaustively check totality, injectivity and functoriality."""
    carriers = [tuple(c) for c in carriers]
    actions = [dict(a) for a in actions]
    if len(carriers) != len(shape.objects):
        raise CarrierMismatch("one carrier per object required")
    if len(actions) != len(shape.morphisms):
        raise CarrierMismatch("one action per morphism required")
    for i, c in enumerate(carriers):
        if len(set(c)) != len(c):
            raise CarrierMismatch(
                f"carrier of {shape.objects[i]} has duplicate labels"
            )
    for i, m in enumerate(shape.morphisms):
        act = actions[i]
        dom, cod = set(carriers[m.dom]), set(carriers[m.cod])
        if set(act) != dom:
            raise CarrierMismatch(
                f"action of {m.name} is not defined on exactly its carrier"
            )
        if not set(act.values()) <= cod:
            raise CarrierMismatch(
                f"action of {m.name} leaves the target carrier"
            )
        if len(set(act.values())) != len(act):
            raise NotInjective(f"action of {m.name} is not injective")
    for x, i in enumerate(shape.identity):
        if any(actions[i][e] != e for e in carriers[x]):
            raise FunctorialityViolation(
                f"identity of {shape.objects[x]} does not act as the identity"
            )
    for (g, f), r in shape.table.items():
        af, ag, ar = actions[f], actions[g], actions[r]
        for e in carriers[shape.morphisms[f].dom]:
            if ag[af[e]] != ar[e]:
                raise FunctorialityViolation(
                    f"({shape.morphisms[g].name}, {shape.morphisms[f].name}) "
                    f"does not commute at element {e}"
                )
    return FinInjDiagram(shape, carriers, actions)


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


@dataclass
class ColimitResult:
    """Union-find quotient of the disjoint sum of carriers."""

    classes: tuple[frozenset[tuple[int, str]], ...]
    class_of: dict[tuple[int, str], int]
    injective: tuple[bool, ...]
    collision: Collision | None

    @property
    def all_injective(self) -> bool:
        return all(self.injective)

    def iota(self, obj: int, elem: str) -> int:
        return self.class_of[(obj, elem)]


def colimit_set(diagram: FinInjDiagram) -> ColimitResult:
    """Quotient the disjoint sum of carriers by x ~ action(x) for every morphism."""
    shape = diagram.shape
    nodes = [
        (obj, e)
        for obj in range(len(shape.objects))
        for e in diagram.carrier(obj)
    ]
    index = {node: k for k, node in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, m in enumerate(shape.morphisms):
        if shape.is_identity(i):
            continue
        for e in diagram.carrier(m.dom):
            a = find(index[(m.dom, e)])
            b = find(index[(m.cod, diagram.action(i)[e])])
            if a != b:
                parent[max(a, b)] = min(a, b)

    groups: dict[int, list[int]] = {}
    for k in range(len(nodes)):
        groups.setdefault(find(k), []).append(k)
    classes = tuple(
        frozenset(nodes[k] for k in members)
        for members in sorted(groups.values(), key=min)
    )
    class_of = {}
    for ci, cl in enumerate(classes):
        for node in cl:
            class_of[node] = ci

    injective = []
    collision_at = None
    for obj in range(len(shape.objects)):
        seen: dict[int, str] = {}
        ok = True
        for e in diagram.carrier(obj):
            ci = class_of[(obj, e)]
            if ci in seen:
                ok = False
                if collision_at is None:
                    collision_at = (obj, seen[ci], e)
                break
            seen[ci] = e
        injective.append(ok)

    collision = None
    if collision_at is not None:
        obj, x, y = collision_at
        nodes_path, steps = _element_zigzag(diagram, (obj, x), (obj, y))
        collision = Collision(obj, x, y, nodes_path, steps)
    return ColimitResult(classes, class_of, tuple(injective), collision)


def _element_zigzag(diagram, start, goal):
    """BFS over single-merge edges from start to goal in the element graph."""
    shape = diagram.shape
    adj: dict[tuple[int, str], list] = {}
    for i, m in enumerate(shape.morphisms):
        if shape.is_identity(i):
            continue
        for e in diagram.carrier(m.dom):
            a = (m.dom, e)
            b = (m.cod, diagram.action(i)[e])
            adj.setdefault(a, []).append((b, (i, True)))
            adj.setdefault(b, []).append((a, (i, False)))
    prev: dict = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for nxt, step in sorted(adj.get(node, []), key=str):
            if nxt not in prev:
                prev[nxt] = (node, step)
                queue.append(nxt)
    if goal not in prev:
        raise DiagramError("no zigzag found for a colimit collision")
    nodes_path = [goal]
    steps = []
    while prev[nodes_path[-1]] is not None:
        node, step = prev[nodes_path[-1]]
        nodes_path.append(node)
        steps.append(step)
    nodes_path.reverse()
    steps.reverse()
    return tuple(nodes_path), tuple(steps)


@dataclass
class Cocone:
    """Apex carrier and one injective leg per object, commuting with all actions."""

    apex: tuple[str, ...]
    legs: tuple[dict[str, str], ...]


def validate_cocone(diagram: FinInjDiagram, cocone: Cocone) -> None:
    shape = diagram.shape
    apex = set(cocone.apex)
    if len(cocone.legs) != len(shape.objects):
        raise CarrierMismatch("one leg per object required")
    for obj in range(len(shape.objects)):
        leg = cocone.legs[obj]
        if set(leg) != set(diagram.carrier(obj)):
            raise CarrierMismatch(
                f"leg of {shape.objects[obj]} is not total on its carrier"
            )
        if not set(leg.values()) <= apex:
            raise CarrierMismatch(f"leg of {shape.objects[obj]} leaves the apex")
        if len(set(leg.values())) != len(leg):
            raise NotInjective(f"leg of {shape.objects[obj]} is not injective")
    for i, m in enumerate(shape.morphisms):
        for e in diagram.carrier(m.dom):
            if cocone.legs[m.dom][e] != cocone.legs[m.cod][diagram.action(i)[e]]:
                raise FunctorialityViolation(
                    f"leg does not commute with {m.name} at element {e}"
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
    """Oracle: a cocone exists iff all canonical maps to the colimit are injective."""
    colim = colimit_set(diagram)
    if not colim.all_injective:
        return CoconeResult(False, None, colim.collision, colim)
    apex = tuple(f"q{k}" for k in range(len(colim.classes)))
    legs = tuple(
        {e: apex[colim.iota(obj, e)] for e in diagram.carrier(obj)}
        for obj in range(len(diagram.shape.objects))
    )
    cocone = Cocone(apex, legs)
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
        super().__init__(diagram.shape, diagram.carriers, diagram.actions)
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
    the oracle's collision.  A diagram needs the composition table, so a
    shape given as a FinPoset is turned into its category here.
    """
    if analysis is None:
        analysis = analyze_shape(shape)
    if analysis.usc:
        raise NotApplicable("every diagram over this shape has a cocone")
    if isinstance(shape, FinPoset):
        shape = category_from_poset(shape)

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
        for m in shape.morphisms:
            vx, vy = smap[m.dom], smap[m.cod]
            if vx == vy:
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
    seeds = set(answer.collision.nodes)
    keep: list[set[str]] = [set() for _ in shape.objects]
    for obj, elem in seeds:
        for i in shape.hom_out[obj]:
            keep[shape.morphisms[i].cod].add(diagram.action(i)[elem])
    carriers = [
        tuple(e for e in diagram.carrier(obj) if e in keep[obj])
        for obj in range(len(shape.objects))
    ]
    actions = [
        {e: v for e, v in diagram.action(i).items()
         if e in keep[shape.morphisms[i].dom]}
        for i in range(len(shape.morphisms))
    ]
    shrunk = validate_diagram(shape, carriers, actions)
    if has_cocone(shrunk):
        raise DiagramError("shrunk witness unexpectedly has a cocone")
    return shrunk
