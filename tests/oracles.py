"""Test-only oracles and views, kept out of the package because no command
runs them: the bounded simple-connectedness test of condition (iv), the
Wagner–Preston representation and the inverse-category laws, witness
shrinking, the exhaustive enumeration of small posets, the functor-law
check, the label-dict diagram reader that the one-pass reader replaced,
actions as label dicts and partial injections with the zigzag evaluation
on them, and small queries and loaders that only the tests read.
Imported as ``conftest`` is."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import conftest  # which imports this module: its names are read at call time
import groups
from amalgam import serialize
from amalgam.diagram import (
    Collision,
    DiagramError,
    FinInjDiagram,
    ZigzagWord,
    collision_zigzag,
    has_cocone,
    validate_diagram,
    zigzag_action,
)
from amalgam.fincat import (
    AssociativityViolation,
    DomCodMismatch,
    FinCategory,
    IdentityViolation,
    PresentationError,
    clip,
    echo,
)
from amalgam.invcat import FinInverseCategory, InverseCategoryError
from amalgam.poset import FinPoset, _bfs_parents, _bits, _component_masks, _members
from pinj import PartialInjection

# -- posets -------------------------------------------------------------------


def closed_masks(masks) -> list[int]:
    """Every subset, as an increasing bitmask, that contains ``masks[i]`` with
    each of its members i: up-sets give upward-closed sets, down-sets ideals."""
    return [s for s in range(1 << len(masks)) if not any(masks[i] & ~s for i in _bits(s))]


def upward_closed_subsets(poset: FinPoset) -> list[frozenset[int]]:
    """All upward-closed subsets, smallest first (exponential; small posets only)."""
    out = [_members(s) for s in closed_masks(poset.up_masks)]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def restrict(poset: FinPoset, subset) -> tuple[FinPoset, dict[int, int]]:
    """Induced subposet on the given elements; returns it with the old->new index map."""
    old = sorted(set(subset))
    index = {o: i for i, o in enumerate(old)}
    region = conftest.mask(old)
    pairs = [(index[a], index[b]) for a in old for b in _bits(poset.up_masks[a] & region)]
    return FinPoset([poset.elements[o] for o in old], pairs), index


def minimal(poset: FinPoset, subset=None) -> list[int]:
    """The minimal elements of the subset (of the whole poset by default)."""
    region = (1 << len(poset)) - 1 if subset is None else conftest.mask(subset)
    return [a for a in _bits(region) if poset.down_masks[a] & region == 1 << a]


def components(poset: FinPoset, subset) -> tuple[frozenset[int], ...]:
    """Connected components of the comparability graph induced on the subset."""
    return tuple(_members(c) for c in _component_masks(poset, conftest.mask(subset)))


def _component_presentation(poset: FinPoset, comp: list[int]):
    """Edge-path group presentation of one component's order complex.

    Generators: comparability edges; relators: one per spanning-tree edge and
    one per chain of three.  Returns (generator count, relator words) with a
    word encoding generator g forward as 2g and backward as 2g+1.
    """
    region = conftest.mask(comp)
    above = {a: poset.up_masks[a] & region & ~(1 << a) for a in comp}
    edges = [(a, b) for a in comp for b in _bits(above[a])]
    index = {e: k for k, e in enumerate(edges)}
    tree_edges = sorted(
        (a, b) if poset.leq(a, b) else (b, a)
        for b, a in _bfs_parents(poset, region, comp[0]).items()
        if a != b
    )
    relators = [(2 * index[e],) for e in tree_edges]
    for a in comp:
        for b in _bits(above[a]):
            for c in _bits(above[b]):
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
        seen: set[tuple[int, ...]] = set()
        fresh: list[FinPoset] = []
        for poset in by_size[n - 1]:
            covers = [(a, b) for _, a, b in poset.generator_ends]
            for ideal in closed_masks(poset.down_masks):
                candidate = FinPoset(names, covers + [(i, n - 1) for i in _bits(ideal)])
                canon = _canonical(candidate)
                if canon not in seen:
                    seen.add(canon)
                    fresh.append(candidate)
        by_size[n] = fresh
    return by_size


# -- categories ---------------------------------------------------------------


def congruence_from_parent(parent: list[int]) -> tuple[int, ...]:
    """The class map of the partition of a union-find parent array, the
    classes numbered by their least members.  The array is left as it is."""
    root = list(parent)
    for i in range(len(root)):
        r = i
        while root[r] != r:
            r = root[r]
        j = i
        while root[j] != r:
            root[j], j = r, root[j]
    number: dict[int, int] = {}
    return tuple(number.setdefault(r, len(number)) for r in root)


class FunctorMap:
    """Object and morphism maps between two validated finite categories."""

    def __init__(self, source: FinCategory, target: FinCategory, obj_map, mor_map):
        self.source = source
        self.target = target
        self.obj_map = tuple(obj_map)
        self.mor_map = tuple(mor_map)

    def validate(self) -> None:
        src, tgt = self.source, self.target
        if len(self.obj_map) != len(src.objects) or len(self.mor_map) != len(src.morphisms):
            raise PresentationError("functor maps have the wrong length")
        for x, tx in enumerate(self.obj_map):
            if self.mor_map[x] != tx:
                raise IdentityViolation(
                    f"functor does not preserve the identity of {clip(src.objects[x])}"
                )
        for f, mf in enumerate(src.morphisms):
            image = tgt.morphisms[self.mor_map[f]]
            if image.dom != self.obj_map[mf.dom] or image.cod != self.obj_map[mf.cod]:
                raise DomCodMismatch(
                    f"functor breaks endpoints of {clip(mf.name)}"
                )
        # F(h∘f) = F(h)∘F(f) for every h after f, row by row; the table is
        # scanned only to name the first pair that breaks it.
        mor_map, place = self.mor_map, tgt.place
        image = mor_map.__getitem__
        for f, mf in enumerate(src.morphisms):
            row = tgt.post[mor_map[f]]
            after = [row[place[image(h)]] for h in src.hom_out[mf.cod]]
            if after != list(map(image, src.post[f])):
                break
        else:
            return
        for (g, f), r in src.table.items():
            if tgt.compose(mor_map[g], mor_map[f]) != mor_map[r]:
                raise AssociativityViolation(
                    f"functor breaks composition on "
                    f"({clip(src.morphisms[g].name)}, {clip(src.morphisms[f].name)})"
                )


def as_functor(cat: FinCategory, quotient: FinCategory, class_of) -> FunctorMap:
    """The projection onto a quotient or a reflection, given by its class
    map, as a functor: the objects are kept."""
    return FunctorMap(cat, quotient, range(len(cat.objects)), class_of)


# -- inverse categories and partial injections --------------------------------


def is_total(f: PartialInjection) -> bool:
    return len(f.mapping) == len(f.source)


def is_partial_identity(f: PartialInjection) -> bool:
    """True when source and target coincide and every defined point is fixed."""
    return set(f.source) == set(f.target) and all(v == k for k, v in f.mapping.items())


def domain(f: PartialInjection) -> tuple[str, ...]:
    return tuple(x for x in f.source if x in f.mapping)


def image(f: PartialInjection) -> tuple[str, ...]:
    seen = set(f.mapping.values())
    return tuple(y for y in f.target if y in seen)


def restricted(f: PartialInjection, keys) -> PartialInjection:
    keys = set(keys)
    return PartialInjection(f.source, f.target, {k: v for k, v in f.mapping.items() if k in keys})


def is_monic_morphism(cat: FinCategory, f: int) -> bool:
    """Whether f∘g = f∘h forces g = h.  Such g and h lie in hom_in[dom f]
    and are parallel, since f∘g has the domain of g."""
    into = cat.hom_in[cat.morphisms[f].dom]
    return len({cat.compose(f, g) for g in into}) == len(into)


def check_inverse_laws(inv: FinInverseCategory) -> list[str]:
    """Verify the structural laws; returns the list of violations (empty = pass).

    Checked: the pseudoinverse map is an involutive contravariant functor,
    idempotents on a common object commute, and a morphism is monic exactly
    when its pseudoinverse is a left inverse.
    """
    cat, pinv = inv.base, inv.pinv
    report = []
    for x in range(len(cat.objects)):
        if pinv[x] != x:
            report.append(f"pseudoinverse of id_{cat.objects[x]} is not itself")
    for f, mf in enumerate(cat.morphisms):
        if pinv[pinv[f]] != f:
            report.append(f"pseudoinverse of {mf.name} is not involutive")
    for (g, f), r in cat.table.items():
        if cat.compose(pinv[f], pinv[g]) != pinv[r]:
            report.append(
                f"pseudoinverse is not contravariant on "
                f"({cat.morphisms[g].name}, {cat.morphisms[f].name})"
            )
    idempotents = [
        e
        for e, me in enumerate(cat.morphisms)
        if me.dom == me.cod and cat.compose(e, e) == e
    ]
    for e in idempotents:
        for e2 in idempotents:
            if cat.morphisms[e].dom != cat.morphisms[e2].dom:
                continue
            if cat.compose(e, e2) != cat.compose(e2, e):
                report.append(
                    f"idempotents {cat.morphisms[e].name} and "
                    f"{cat.morphisms[e2].name} do not commute"
                )
    for f, mf in enumerate(cat.morphisms):
        split = cat.compose(pinv[f], f) == mf.dom
        if is_monic_morphism(cat, f) != split:
            report.append(
                f"{mf.name}: monic and split-monic characterizations disagree"
            )
    return report


def is_idempotent_category(inv: FinInverseCategory) -> bool:
    """True when every endomorphism squares to itself."""
    cat = inv.base
    return all(
        cat.compose(f, f) == f
        for f, mf in enumerate(cat.morphisms)
        if mf.dom == mf.cod
    )


@dataclass
class PInjRepresentation:
    """Carriers (one per object, tagged `source object:morphism`) and one
    partial injection per morphism."""

    carriers: tuple[tuple[str, ...], ...]
    maps: tuple[PartialInjection, ...]


def wagner_preston(inv: FinInverseCategory) -> PInjRepresentation:
    """Represent each morphism as a partial injection on hom-set carriers.

    The carrier of X is the disjoint union over all Z of Hom(Z, X); f acts by
    g -> f∘g on the g fixed by pinv(f)∘f∘-.  The result is verified to be
    functorial and faithful, with monics acting totally.
    """
    cat, pinv = inv.base, inv.pinv

    def label(g: int) -> str:
        return f"{cat.objects[cat.morphisms[g].dom]}:{cat.morphisms[g].name}"

    carriers = tuple(
        tuple(label(g) for g in cat.hom_in[x]) for x in range(len(cat.objects))
    )
    maps = []
    for f, mf in enumerate(cat.morphisms):
        fixer = cat.compose(pinv[f], f)
        mapping = {
            label(g): label(cat.compose(f, g))
            for g in cat.hom_in[mf.dom]
            if cat.compose(fixer, g) == g
        }
        maps.append(
            PartialInjection(carriers[mf.dom], carriers[mf.cod], mapping)
        )

    for (g, f), r in cat.table.items():
        if maps[g].after(maps[f]) != maps[r]:
            raise InverseCategoryError(
                f"representation is not functorial on "
                f"({cat.morphisms[g].name}, {cat.morphisms[f].name})"
            )
    for f, g in cat.parallel_pairs():
        if maps[f] == maps[g]:
            raise InverseCategoryError(
                f"representation identifies {cat.morphisms[f].name} "
                f"and {cat.morphisms[g].name}"
            )
    for f in range(len(cat.morphisms)):
        if is_monic_morphism(cat, f) != is_total(maps[f]):
            raise InverseCategoryError(
                f"{cat.morphisms[f].name}: monic does not match totality"
            )
    return PInjRepresentation(carriers, tuple(maps))


# -- diagrams -----------------------------------------------------------------


class HasCocone(DiagramError):
    pass


def action(diagram: FinInjDiagram, mor: int) -> dict[str, str]:
    """The action of a morphism as a label dict, read off its row."""
    m = diagram.shape.morphisms[mor]
    target = diagram.carriers[m.cod]
    return dict(zip(diagram.carriers[m.dom], map(target.__getitem__, diagram.maps[mor])))


def as_pinj(diagram: FinInjDiagram, mor: int) -> PartialInjection:
    m = diagram.shape.morphisms[mor]
    return PartialInjection(
        diagram.carriers[m.dom], diagram.carriers[m.cod], action(diagram, mor)
    )


def actions(diagram: FinInjDiagram) -> tuple[dict[str, str], ...]:
    """Every action as a label dict, by morphism index."""
    return tuple(action(diagram, i) for i in range(len(diagram.maps)))


def label_zigzag_action(diagram: FinInjDiagram, word: ZigzagWord) -> PartialInjection:
    """``zigzag_action`` as it was evaluated on label dicts: the composite of
    the steps' partial injections, a backward step by its inverse.  The
    reference for the row evaluation."""
    word.target(diagram.shape)
    result = PartialInjection.identity(diagram.carriers[word.source])
    for mor, forward in word.steps:
        arrow = as_pinj(diagram, mor)
        if not forward:
            arrow = arrow.inverse()
        result = arrow.after(result)
    return result


def collision_word(diagram: FinInjDiagram, collision: Collision) -> ZigzagWord:
    """The collision's zigzag in the diagram as a word of shape morphisms."""
    return ZigzagWord(collision.obj, collision_zigzag(diagram, collision)[1])


def is_endo(word: ZigzagWord, shape) -> bool:
    return word.target(shape) == word.source


def random_endo_word(shape, rng, max_len: int = 8) -> ZigzagWord:
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


def word_pinj(diagram: FinInjDiagram, word: ZigzagWord) -> PartialInjection:
    """``zigzag_action`` as a partial injection from the carrier of the
    word's source to that of its target; the constructor checks that the
    dict is one."""
    target = word.target(diagram.shape)
    return PartialInjection(
        diagram.carriers[word.source], diagram.carriers[target], zigzag_action(diagram, word)
    )


def shrink_witness(diagram: FinInjDiagram) -> FinInjDiagram:
    """Restrict a cocone-free diagram to the forward-reachable closure of its
    collision zigzag; the restriction is still cocone-free."""
    answer = has_cocone(diagram)
    if answer:
        raise HasCocone("diagram has a cocone; nothing to shrink")
    shape = diagram.shape
    keep: list[set[int]] = [set() for _ in shape.objects]
    index = [dict(zip(c, range(len(c)))) for c in diagram.carriers]  # label -> position
    for obj, elem in collision_zigzag(diagram, answer.colimit.collision)[0]:
        p = index[obj][elem]
        for i in shape.hom_out[obj]:
            keep[shape.morphisms[i].cod].add(diagram.maps[i][p])
    carriers = [
        tuple(e for p, e in enumerate(c) if p in keep[obj])
        for obj, c in enumerate(diagram.carriers)
    ]
    acts = []
    for i, (m, row) in enumerate(zip(shape.morphisms, diagram.maps)):
        if shape.is_identity(i):
            acts.append(None)
            continue
        source, target = diagram.carriers[m.dom], diagram.carriers[m.cod]
        acts.append({source[p]: target[row[p]] for p in keep[m.dom]})
    shrunk = validate_diagram(shape, carriers, acts)
    if has_cocone(shrunk):
        raise DiagramError("shrunk witness unexpectedly has a cocone")
    return shrunk


# -- documents ----------------------------------------------------------------


def label_diagram_from_doc(doc: dict, base_dir=None, shape=None) -> FinInjDiagram:
    """``serialize.diagram_from_doc`` as it read every action before the
    one-pass rows: each pair list becomes a label dict, which
    ``validate_diagram`` turns into a row.  The reference for the faults the
    reader names, and for the order it names them in."""
    ParseError = serialize.ParseError
    shape_field = serialize._require(doc, "shape", "diagram")
    if shape is None:
        shape = serialize._shape_of(shape_field, base_dir)
    carriers_field = doc.get("carriers", {})
    if not isinstance(carriers_field, dict):
        raise ParseError("diagram: carriers must map object names to element lists")
    for name, labels in carriers_field.items():
        if name not in shape.obj_index:
            raise ParseError(f"diagram: carrier for unknown object '{name}'")
        if not isinstance(labels, list) or not set(map(type, labels)) <= {str}:
            raise ParseError(f"diagram: carrier of '{name}' must be a list of string labels")
    carriers = [carriers_field.get(name, ()) for name in shape.objects]
    actions_field = doc.get("actions", {})
    if not isinstance(actions_field, dict):
        raise ParseError("diagram: actions must map morphism names to pair lists")
    for name in actions_field:
        if name not in shape.mor_index:
            raise ParseError(f"diagram: action for unknown morphism '{name}'")

    def as_mapping(name, pairs):
        malformed = f"diagram: action of '{name}' must be a list of [x, y] pairs"
        if not isinstance(pairs, list) or not set(map(type, pairs)) <= {list, tuple}:
            raise ParseError(malformed)
        try:
            action = dict(pairs)
        except (TypeError, ValueError):
            raise ParseError(malformed) from None
        if len(action) != len(pairs):
            seen = set()
            for x, _ in pairs:
                if x in seen:
                    raise ParseError(f"diagram: action of '{name}' lists source {echo(x)} twice")
                seen.add(x)
        return action

    actions = []
    for i, m in enumerate(shape.morphisms):
        if shape.is_identity(i):
            pairs = actions_field.get(m.name)
            actions.append(None if pairs is None else as_mapping(m.name, pairs))
        elif m.name not in actions_field:
            raise ParseError(f"diagram: missing action for morphism '{m.name}'")
        else:
            actions.append(as_mapping(m.name, actions_field[m.name]))
    return validate_diagram(shape, carriers, actions)



def inverse_to_doc(inv: FinInverseCategory) -> dict:
    """An inverse category as a category document with its ``pinv`` map."""
    doc = serialize.category_to_doc(inv.base)
    doc["pinv"] = {
        m.name: inv.base.morphisms[inv.pinv[i]].name
        for i, m in enumerate(inv.base.morphisms)
        if not inv.base.is_identity(i)
    }
    return doc


def load_diagram(path) -> FinInjDiagram:
    """The diagram document at path, its shape path read beside it."""
    path = Path(path)
    return serialize.diagram_from_doc(serialize.load_document(path), base_dir=path.parent)
