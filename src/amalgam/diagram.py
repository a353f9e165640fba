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
from collections.abc import Mapping
from functools import cached_property
from itertools import accumulate, compress, repeat, starmap
from operator import itemgetter

from .fincat import FinCategory, clip, is_preorder, monic_reflection, skeleton_poset
from .poset import (
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    is_forest_like,
)
from .record import FrozenRecord, Record


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


class FinInjDiagram(Record):
    """A functor from a finite shape, a FinCategory or a FinPoset, into finite
    sets and injections.

    Carriers are tuples of distinct labels.  An action is stored as
    ``maps[mor]``: the positions in the target carrier of the images of the
    domain carrier's elements, in carrier order.  Labels are read only where
    a diagram is written out or a fault is named.
    """

    _fields = ("shape", "carriers", "maps")

    def __repr__(self):
        sizes = ", ".join(
            f"{self.shape.objects[i]}:{len(c)}" for i, c in enumerate(self.carriers)
        )
        return f"FinInjDiagram({sizes})"


def validate_diagram(shape: FinCategory | FinPoset, carriers, actions) -> FinInjDiagram:
    """Check totality, injectivity and functoriality.

    Each carrier's labels are interned once.  Each action, a mapping of
    labels or a list of [x, y] pairs that lists each source once, is read
    in one pass into the row of its images' positions,
    ``row[position of x] = position of y``, and every law is checked over
    those rows.  The action of an identity may be ``None``: its row is then
    the identity row, with nothing to check, while an action given for it
    is checked to act as the identity.  ``None`` for any other morphism is
    an action not defined on its carrier.  A pair that is not two labels,
    or whose source cannot be hashed, raises the ValueError or TypeError of
    ``dict(pairs)``.  Functoriality is checked with a generator on the
    left: if F(a∘f) = F(a)F(f) and F(b∘f) = F(b)F(f) for every f, then
    F((b∘a)∘f) = F(b)F(a∘f) = F(b∘a)F(f), as the shape is associative.
    """
    carriers = tuple(map(tuple, carriers))
    if len(carriers) != len(shape.objects):
        raise CarrierMismatch("one carrier per object required")
    if len(actions) != len(shape.morphisms):
        raise CarrierMismatch("one action per morphism required")
    index = tuple(dict(zip(c, range(len(c)))) for c in carriers)
    for i, c in enumerate(carriers):
        if len(index[i]) != len(c):
            raise CarrierMismatch(
                f"carrier of {clip(shape.objects[i])} has duplicate labels"
            )
    maps, names = [], shape.arrow_names
    for i, ((dom, cod), act) in enumerate(zip(shape.morphisms, actions)):
        n = len(carriers[dom])
        if act is None and shape.is_identity(i):
            maps.append(tuple(range(n)))
            continue
        if act is None or len(act) != n:
            raise CarrierMismatch(
                f"action of {clip(names[i])} is not defined on exactly its carrier"
            )
        source, target, row = index[dom], index[cod], [-1] * n
        pairs = act.items() if isinstance(act, Mapping) else act
        try:
            for x, y in pairs:
                row[source[x]] = target[y]
        except (KeyError, TypeError, ValueError):
            _raise_row_fault(names[i], dict(pairs), carriers[dom], target)
        images = set(row)
        if -1 in images:  # a source listed twice, another missed
            raise CarrierMismatch(
                f"action of {clip(names[i])} is not defined on exactly its carrier"
            )
        if len(images) != n:
            raise NotInjective(f"action of {clip(names[i])} is not injective")
        maps.append(tuple(row))
    given = [x for x in range(len(shape.objects)) if actions[x] is not None]
    _check_laws(shape, carriers, maps, given)
    return FinInjDiagram(shape, carriers, tuple(maps))


def _check_rows(shape: FinCategory | FinPoset, carriers, maps) -> None:
    """The checks of ``validate_diagram`` on rows built from their carriers:
    each row has its source carrier's length, stays in the target and is
    injective, every identity acts as the identity, and the rows are
    functorial.  The arrow names are read first, so a shape whose names
    clash is refused before any row is read; a name is quoted only in a
    fault.  An empty row stays in its target and is injective."""
    names, ends = shape.arrow_names, shape.morphisms
    for i, ((dom, _), row) in enumerate(zip(ends, maps)):
        if len(row) != len(carriers[dom]):
            raise CarrierMismatch(
                f"action of {clip(names[i])} is not defined on exactly its carrier"
            )
    for i in compress(range(len(maps)), maps):
        row = maps[i]
        if not (0 <= min(row) and max(row) < len(carriers[ends[i][1]])):
            raise CarrierMismatch(f"action of {clip(names[i])} leaves the target carrier")
        if len(set(row)) != len(row):
            raise NotInjective(f"action of {clip(names[i])} is not injective")
    _check_laws(shape, carriers, maps, range(len(shape.objects)))


def _check_laws(shape, carriers, maps, given) -> None:
    """The identities of the objects in ``given`` act as identities, and
    F(g∘f) = F(g)F(f) for every non-identity f and every generator g out of
    cod f.  Composites with an identity commute once the identities act as
    such, and an f with the empty row commutes with every g once each row
    has its source carrier's length."""
    for x in given:
        if maps[x] != tuple(range(len(carriers[x]))):
            raise FunctorialityViolation(
                f"identity of {clip(shape.objects[x])} does not act as the identity"
            )
    out: list[list[int]] = [[] for _ in carriers]
    for g, dom, _ in shape.generator_ends:
        out[dom].append(g)
    n_obj, ends, compose = len(carriers), shape.morphisms, shape.compose
    for f in compress(range(n_obj, len(maps)), maps[n_obj:]):
        af = maps[f]
        for g in out[ends[f][1]]:
            if tuple(map(maps[g].__getitem__, af)) != maps[compose(g, f)]:
                _raise_first_functoriality_fault(shape, carriers, maps)


def _raise_row_fault(name, act, source, target_index) -> None:
    """Raise the reason an action of its carrier's size has no row: a source
    label it misses comes first, then an image outside the target.  An image
    that cannot be hashed, such as a list, is no label of the target."""

    def in_target(image) -> bool:
        try:
            return image in target_index
        except TypeError:
            return False

    if not all(map(act.__contains__, source)):
        raise CarrierMismatch(
            f"action of {clip(name)} is not defined on exactly its carrier"
        )
    if not all(map(in_target, map(act.__getitem__, source))):
        raise CarrierMismatch(f"action of {clip(name)} leaves the target carrier")


def _raise_first_functoriality_fault(shape, carriers, maps) -> None:
    """Scan every composable pair of non-identities in scan order, f by
    index, then g out of cod f, and name the first that does not commute."""
    names = shape.arrow_names
    for g, f, r in shape.composites():
        af, ag, ar = maps[f], maps[g], maps[r]
        if tuple(map(ag.__getitem__, af)) != ar:
            p = next(p for p, q in enumerate(af) if ag[q] != ar[p])
            raise FunctorialityViolation(
                f"({clip(names[g])}, {clip(names[f])}) "
                f"does not commute at element {clip(carriers[shape.morphisms[f][0]][p])}"
            )


class Collision(FrozenRecord):
    """Two distinct elements x and y of one carrier glued in the colimit.
    ``collision_zigzag`` finds the element-level zigzag between them; a
    verdict, which reports only the two elements, never runs it."""

    _fields = ("obj", "x", "y")


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
        colimit = self._colimit
        for obj, (carrier, row) in enumerate(zip(colimit.diagram.carriers, colimit.ids)):
            for e, k in zip(carrier, row):
                members[k].append((obj, e))
        return tuple(map(frozenset, members))


class ColimitResult(Record):
    """Union-find quotient of the disjoint sum of carriers.

    ``ids[obj][p]`` is the class of the p-th element of the object's
    carrier, and classes are numbered in the order of their first elements,
    carrier by carrier.  The collision is the first object whose row
    repeats a class, with its first repeated pair.  The frozensets of
    ``classes`` are built only when one of them is read.
    """

    _fields = ("diagram", "ids", "count", "collision")

    @property
    def classes(self) -> ColimitClasses:
        """A new view on each read: the view holds the result, and the
        result does not hold the view, so the two form no reference cycle."""
        return ColimitClasses(self)


def colimit_set(diagram: FinInjDiagram) -> ColimitResult:
    """Quotient the disjoint sum of carriers by x ~ action(x) for every morphism.

    The unions run over the shape's generators only: the action of any other
    morphism is a composite of theirs, so its steps are already unions.
    Union-find over integer nodes, node ``offsets[obj] + p`` being the p-th
    element of the object's carrier; a union keeps the smaller root, so
    every node's parent precedes it and each root is its class's first
    node, and the classes do not depend on the order of the unions.
    """
    shape, carriers, maps = diagram.shape, diagram.carriers, diagram.maps
    offsets = list(accumulate(map(len, carriers), initial=0))
    parent = list(range(offsets[-1]))
    for i, dom, cod in shape.generator_ends:
        base = offsets[cod]
        for a, q in enumerate(maps[i], offsets[dom]):
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
    ids = tuple(tuple(class_ids[a:b]) for a, b in zip(offsets, offsets[1:]))

    collision = None
    for obj, row in enumerate(ids):
        if len(set(row)) != len(row):
            first: dict[int, int] = {}
            for y, k in enumerate(row):
                x = first.setdefault(k, y)
                if x != y:
                    break
            collision = Collision(obj, carriers[obj][x], carriers[obj][y])
            break
    return ColimitResult(diagram, ids, count, collision)


def collision_zigzag(
    diagram: FinInjDiagram, collision: Collision
) -> tuple[tuple[tuple[int, str], ...], tuple[tuple[int, bool], ...]]:
    """A shortest zigzag from the collision's x to its y, as its nodes
    ``(object, label)`` and its steps ``(morphism, forward)``: BFS over
    single action steps, each node's steps made when the node is expanded.

    A node's steps follow the non-identities into and out of its object by
    index, forward along an arrow out of it and backward along an arrow
    into it; an endo arrow's backward step comes first when it starts from
    an earlier position.  This is the order of a scan of every action, so
    ties between shortest zigzags break the same way.  Node
    ``offsets[o] + p`` is the p-th element of object o's carrier."""
    shape, carriers, maps = diagram.shape, diagram.carriers, diagram.maps
    obj, carrier = collision.obj, carriers[collision.obj]
    offsets = list(accumulate(map(len, carriers), initial=0))
    start = offsets[obj] + carrier.index(collision.x)
    goal = offsets[obj] + carrier.index(collision.y)
    # at[o]: (arrow, its other end, row, offset of the other end, kind) for
    # each arrow at o whose action is not empty; kind 0 leaves o, kind 1
    # enters it, kind 2 does both.
    at: list[list[tuple]] = [[] for _ in shape.objects]
    for i, ((dom, cod), row) in enumerate(zip(shape.morphisms, maps)):
        if row and not shape.is_identity(i):
            if dom == cod:
                at[dom].append((i, dom, row, offsets[dom], 2))
            else:
                at[dom].append((i, cod, row, offsets[cod], 0))
                at[cod].append((i, dom, row, offsets[dom], 1))
    # arrow -> image position -> source, made on the arrow's first backward
    # step, so a search reads each row at most once
    preimage: dict[int, dict[int, int]] = {}
    # node -> (the node it was reached from, arrow, forward, the node's object)
    prev: dict[int, tuple | None] = {start: None}
    queue = deque([(start, obj)])
    while queue and goal not in prev:
        node, o = queue.popleft()
        p = node - offsets[o]
        for i, far, row, base, kind in at[o]:
            if kind != 0:
                inverse = preimage.get(i)
                if inverse is None:
                    inverse = preimage[i] = dict(zip(row, range(len(row))))
                source = inverse.get(p)
                if kind == 2:  # backward first when it starts earlier
                    steps = [(base + row[p], True)]
                    if source is not None:
                        steps.insert(source >= p, (base + source, False))
                elif source is None:
                    continue
                else:
                    steps = ((base + source, False),)
            else:
                steps = ((base + row[p], True),)
            for nxt, forward in steps:
                if nxt not in prev:
                    prev[nxt] = (node, i, forward, far)
                    queue.append((nxt, far))
    if goal not in prev:
        raise DiagramError("no zigzag found for a colimit collision")
    nodes, steps, node = [], [], goal
    while prev[node] is not None:
        before, i, forward, o = prev[node]
        nodes.append((o, carriers[o][node - offsets[o]]))
        steps.append((i, forward))
        node = before
    nodes.append((obj, collision.x))
    nodes.reverse()
    steps.reverse()
    return tuple(nodes), tuple(steps)


class Cocone(Record):
    """Apex carrier and one injective leg per object, commuting with all actions.

    ``legs[obj][p]`` is the apex position of the p-th element of the object's
    carrier.
    """

    _fields = ("apex", "legs")


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
                f"leg of {clip(shape.objects[obj])} is not total on its carrier"
            )
        if leg and not (0 <= min(leg) and max(leg) < len(cocone.apex)):
            raise CarrierMismatch(f"leg of {clip(shape.objects[obj])} leaves the apex")
        if len(set(leg)) != len(leg):
            raise NotInjective(f"leg of {clip(shape.objects[obj])} is not injective")

    def commutes(i: int, dom: int, cod: int) -> bool:
        return tuple(map(legs[cod].__getitem__, diagram.maps[i])) == tuple(legs[dom])

    if all(starmap(commutes, shape.generator_ends)):
        return
    for i, (dom, cod) in enumerate(shape.morphisms):
        if shape.is_identity(i) or commutes(i, dom, cod):
            continue
        row, source, target = diagram.maps[i], tuple(legs[dom]), legs[cod]
        p = next(p for p, q in enumerate(row) if target[q] != source[p])
        raise FunctorialityViolation(
            f"leg does not commute with {clip(shape.arrow_names[i])} at element "
            f"{clip(diagram.carriers[dom][p])}"
        )


class CoconeResult(Record):
    """Truthy when a cocone exists; the collision is the colimit's."""

    _fields = ("cocone", "colimit")

    def __bool__(self) -> bool:
        return self.cocone is not None


def has_cocone(diagram: FinInjDiagram) -> CoconeResult:
    """Oracle: a cocone exists iff all canonical maps to the colimit are injective.

    The colimit is the cocone: apex ``q{k}`` for class k, and the legs the
    colimit's class rows."""
    colim = colimit_set(diagram)
    if colim.collision is not None:
        return CoconeResult(None, colim)
    cocone = Cocone(tuple([f"q{k}" for k in range(colim.count)]), colim.ids)
    validate_cocone(diagram, cocone)
    return CoconeResult(cocone, colim)


class ZigzagWord(FrozenRecord):
    """A path of shape morphisms traversed forward or backward.

    Acts on a diagram as the composite of action maps and partial inverses.
    """

    _fields = ("source", "steps")

    def target(self, shape: FinCategory) -> int:
        at, names = self.source, shape.arrow_names
        for mor, forward in self.steps:
            dom, cod = shape.morphisms[mor]
            if forward:
                if dom != at:
                    raise IllFormedWord(
                        f"step {clip(names[mor])} does not start at {clip(shape.objects[at])}"
                    )
                at = cod
            else:
                if cod != at:
                    raise IllFormedWord(
                        f"reversed step {clip(names[mor])} does not start at {clip(shape.objects[at])}"
                    )
                at = dom
        return at


def zigzag_action(diagram: FinInjDiagram, word: ZigzagWord) -> dict[str, str]:
    """The partial injection the word acts as, from its source's carrier to
    its target's, as a label dict defined exactly where the word is.  It is
    evaluated on positions: a forward step reads its arrow's row, a
    backward step the row's inverse."""
    target = word.target(diagram.shape)
    carriers, maps = diagram.carriers, diagram.maps
    image = {p: p for p in range(len(carriers[word.source]))}
    for mor, forward in word.steps:
        row = maps[mor]
        if forward:
            image = {p: row[q] for p, q in image.items()}
        else:
            inverse = dict(zip(row, range(len(row))))
            image = {p: inverse[q] for p, q in image.items() if q in inverse}
    source, dest = carriers[word.source], carriers[target]
    return {source[p]: dest[q] for p, q in image.items()}


class CoconeFreeDiagram(FinInjDiagram):
    """A diagram with no cocone, with the colimit collision that shows it."""

    _fields = FinInjDiagram._fields + ("collision",)


class ShapeAnalysis(Record):
    """Everything the verdict pipeline learns about a shape.

    The projection is the reflection's class map.  A shape given as a
    FinPoset is its own reflection and skeleton, with no projection and the
    identity as skeleton map.
    """

    _fields = (
        "reflection", "projection", "parallel_pair", "skeleton", "skeleton_map", "forest",
    )

    @property
    def preorder(self) -> bool:
        return self.parallel_pair is None

    @property
    def usc(self) -> bool:
        """Upward-simply-connected: reflection is a preorder with forest-like
        skeleton (a reflection that is no preorder has no forest)."""
        return isinstance(self.forest, ForestCertificate)


def analyze_shape(shape: FinCategory | FinPoset) -> ShapeAnalysis:
    """Run monic reflection, preorder detection and the forest decomposition.

    A poset category is monic and skeletal, so a FinPoset goes straight to
    the decomposition, and no composition table is built for it.
    """
    if isinstance(shape, FinPoset):
        identity = tuple(range(len(shape)))
        return ShapeAnalysis(shape, None, None, shape, identity, is_forest_like(shape))
    reflection, projection = monic_reflection(shape)
    if not is_preorder(reflection):
        pair = next(iter(reflection.parallel_pairs()))
        return ShapeAnalysis(reflection, projection, pair, None, None, None)
    skeleton, skeleton_map = skeleton_poset(reflection)
    forest = is_forest_like(skeleton)
    return ShapeAnalysis(reflection, projection, None, skeleton, skeleton_map, forest)


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
    carry {0, 1} with identity actions, everything else is empty.  That
    diagram is built over the skeleton on its masks and pulled back to the
    shape along the skeleton map.  The witness is built unchecked: its rows
    over the shape are checked here, once, as ``validate_diagram`` checks rows,
    and the oracle then re-verifies that the diagram is cocone-free; it is
    returned together with the oracle's collision.
    """
    if analysis is None:
        analysis = analyze_shape(shape)
    if analysis.usc:
        raise NotApplicable("every diagram over this shape has a cocone")
    if not analysis.preorder:
        witness = _parallel_pair_diagram(shape, analysis)
    else:
        skeleton_witness = _poset_diagram(analysis.skeleton, analysis.forest)
        witness = _pull_back(skeleton_witness, shape, analysis.skeleton_map)
    _check_rows(shape, witness.carriers, witness.maps)
    answer = has_cocone(witness)
    if answer:
        raise DiagramError("synthesized witness unexpectedly has a cocone")
    return CoconeFreeDiagram(witness.shape, witness.carriers, witness.maps,
                             answer.colimit.collision)


def _parallel_pair_diagram(shape: FinCategory, analysis: ShapeAnalysis) -> FinInjDiagram:
    """Carriers: the reflected hom-sets out of A, named by their morphisms.
    The action of f: x -> y sends g to F(f)∘g, read off the row of
    composites after g at the place of F(f) in hom_out[x]."""
    refl, mor_map = analysis.reflection, analysis.projection
    a = refl.morphisms[analysis.parallel_pair[0]][0]
    homs = [refl.hom(a, x) for x in range(len(refl.objects))]
    place = [0] * len(refl.morphisms)  # each arrow out of A's place in its hom-set
    for h in homs:
        for k, g in enumerate(h):
            place[g] = k
    carriers = [tuple(map(refl.arrow_names.__getitem__, h)) for h in homs]
    post, at = refl.post, place.__getitem__
    maps = []
    for i, (dom, _) in enumerate(shape.morphisms):
        after = itemgetter(refl.place[mor_map[i]])
        maps.append(tuple(map(at, map(after, map(post.__getitem__, homs[dom])))))
    return FinInjDiagram(shape, tuple(carriers), tuple(maps))


_CARRIERS = ((), ("*",), ("0", "1"))
_IDENTITY_ROWS = ((), (0,), (0, 1))


def _poset_diagram(poset: FinPoset, w: NonForestWitness) -> FinInjDiagram:
    """The witness diagram over the poset, built from the witness's masks:
    one row per arrow, by index, and no label dict.  A carrier has size 1
    at x, 2 over the two-sided part (the component and the rest of x's
    up-set) and 0 elsewhere."""
    up, x = poset.up_masks, w.x
    support = w.component | up[x]
    size = [2 if support >> v & 1 else 0 for v in range(len(poset))]
    size[x] = 1
    zero_side = w.upset_components[0] | up[x] & ~w.component & ~(1 << x)
    rows = list(map(_IDENTITY_ROWS.__getitem__, size))
    for a, mask in enumerate(up):
        strict = mask & ~(1 << a)
        if a != x:
            rows.extend(repeat(rows[a], strict.bit_count()))
            continue
        while strict:
            low = strict & -strict
            rows.append((0,) if zero_side & low else (1,))
            strict ^= low
    carriers = tuple(map(_CARRIERS.__getitem__, size))
    return FinInjDiagram(poset, carriers, tuple(rows))


def _pull_back(diagram: FinInjDiagram, shape, smap: tuple[int, ...]) -> FinInjDiagram:
    """The diagram over a skeleton precomposed with the functor from the
    shape to it: object o carries the carrier of ``smap[o]``, and a morphism
    dom -> cod acts as the arrow ``smap[dom] -> smap[cod]``.  A poset, its own
    skeleton, carries the diagram itself."""
    if diagram.shape is shape:
        return diagram
    rows, arrow = diagram.maps, diagram.shape.arrow
    maps = tuple(rows[arrow(smap[dom], smap[cod])] for dom, cod in shape.morphisms)
    carriers = tuple(map(diagram.carriers.__getitem__, smap))
    return FinInjDiagram(shape, carriers, maps)
