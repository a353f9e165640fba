"""Finite categories presented by a full composition table.

Objects and morphisms are indexed; identities occupy the first object-many
morphism slots.  All category axioms are checked exhaustively at
construction time, so every FinCategory in circulation is valid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .poset import FinPoset


class CategoryError(Exception):
    pass


class PresentationError(CategoryError):
    """Structurally malformed presentation: bad references, duplicate names."""


class DomCodMismatch(CategoryError):
    pass


class MissingComposite(CategoryError):
    pass


class AssociativityViolation(CategoryError):
    pass


class IdentityViolation(CategoryError):
    pass


class NonParallelSeed(CategoryError):
    pass


class NotAPreorder(CategoryError):
    pass


@dataclass(frozen=True)
class Morphism:
    name: str
    dom: int
    cod: int


class FinCategory:
    """Validated finite category: objects, morphisms, identities, composition table.

    Indexed once, after the endpoint check: ``hom_out[x]`` and ``hom_in[x]``
    list the morphisms out of and into object x, and ``hom_sets`` maps each
    non-empty (dom, cod) to its morphisms, all in ascending index order.
    Every scan over composable pairs and triples runs over these lists.
    """

    def __init__(self, objects, morphisms, identity, table):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.identity = tuple(identity)
        self.table = dict(table)
        self.obj_index = {name: i for i, name in enumerate(self.objects)}
        self.mor_index = {m.name: i for i, m in enumerate(self.morphisms)}
        self._identity_set = frozenset(self.identity)
        _check_presentation(self)
        self.hom_out: list[list[int]] = [[] for _ in self.objects]
        self.hom_in: list[list[int]] = [[] for _ in self.objects]
        self.hom_sets: dict[tuple[int, int], list[int]] = {}
        for i, m in enumerate(self.morphisms):
            self.hom_out[m.dom].append(i)
            self.hom_in[m.cod].append(i)
            self.hom_sets.setdefault((m.dom, m.cod), []).append(i)
        _check_axioms(self)

    def compose(self, g: int, f: int) -> int:
        """Index of g∘f (f applied first)."""
        return self.table[(g, f)]

    def is_identity(self, m: int) -> bool:
        return m in self._identity_set

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return tuple(self.hom_sets.get((x, y), ()))

    def non_identities(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(len(self.morphisms)) if not self.is_identity(i)
        )

    def parallel_pairs(self):
        """All index pairs (f, g) with f < g, equal dom and equal cod,
        by ascending g, then ascending f."""
        for g, mg in enumerate(self.morphisms):
            for f in self.hom_sets[(mg.dom, mg.cod)]:
                if f == g:
                    break
                yield f, g

    def __eq__(self, other):
        if not isinstance(other, FinCategory):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.table == other.table
        )

    def __repr__(self):
        return (
            f"FinCategory({len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


def _check_presentation(cat: FinCategory) -> None:
    n_obj = len(cat.objects)
    if len(set(cat.objects)) != n_obj:
        raise PresentationError("object names must be distinct")
    if len(cat.mor_index) != len(cat.morphisms):
        raise PresentationError("morphism names must be distinct")
    if len(cat.identity) != n_obj:
        raise PresentationError("one identity per object required")
    for m in cat.morphisms:
        if not (0 <= m.dom < n_obj and 0 <= m.cod < n_obj):
            raise PresentationError(f"morphism {m.name} references unknown objects")


def _check_axioms(cat: FinCategory) -> None:
    """Exhaustive axiom check over the composable pairs and triples only.

    Pairs are visited as f, then g in hom_out[cod f]; triples as f, then g,
    then h in hom_out[cod g]: the order of a scan over all morphisms, so a
    table with several faults reports the same first one.
    """
    n_mor = len(cat.morphisms)
    morphisms, table, hom_out = cat.morphisms, cat.table, cat.hom_out
    for x, i in enumerate(cat.identity):
        m = morphisms[i]
        if m.dom != x or m.cod != x:
            raise IdentityViolation(
                f"identity of {cat.objects[x]} has endpoints "
                f"{cat.objects[m.dom]} -> {cat.objects[m.cod]}"
            )
    for (g, f), r in table.items():
        if not (0 <= g < n_mor and 0 <= f < n_mor and 0 <= r < n_mor):
            raise PresentationError(f"composition entry ({g}, {f}) out of range")
        mg, mf, mr = morphisms[g], morphisms[f], morphisms[r]
        if mf.cod != mg.dom:
            raise DomCodMismatch(
                f"({mg.name}, {mf.name}) is not composable: "
                f"cod {cat.objects[mf.cod]} != dom {cat.objects[mg.dom]}"
            )
        if mr.dom != mf.dom or mr.cod != mg.cod:
            raise DomCodMismatch(
                f"({mg.name}, {mf.name}, {mr.name}): composite endpoints do not match"
            )
    for f, mf in enumerate(morphisms):
        for g in hom_out[mf.cod]:
            if (g, f) not in table:
                raise MissingComposite(
                    f"no entry for ({morphisms[g].name}, {mf.name})"
                )
    for f, mf in enumerate(morphisms):
        left = table[(cat.identity[mf.cod], f)]
        right = table[(f, cat.identity[mf.dom])]
        if left != f:
            raise IdentityViolation(
                f"(id_{cat.objects[mf.cod]}, {mf.name}, "
                f"{morphisms[left].name}) breaks the left identity law"
            )
        if right != f:
            raise IdentityViolation(
                f"({mf.name}, id_{cat.objects[mf.dom]}, "
                f"{morphisms[right].name}) breaks the right identity law"
            )
    # post[x][k] is h∘x for the k-th h in hom_out[cod x]; since cod(g∘f) =
    # cod g, the triple (h, g, f) compares post[g∘f][k] with post[g][k]∘f.
    post = [[table[(h, f)] for h in hom_out[mf.cod]] for f, mf in enumerate(morphisms)]
    for f, mf in enumerate(morphisms):
        for g, gf in zip(hom_out[mf.cod], post[f]):
            if post[gf] == [table[(hg, f)] for hg in post[g]]:
                continue
            for h, hgf, hg in zip(hom_out[morphisms[g].cod], post[gf], post[g]):
                if hgf != table[(hg, f)]:
                    raise AssociativityViolation(
                        f"({morphisms[h].name}, {morphisms[g].name}, {mf.name}) "
                        "is not associative"
                    )


def validate_category(raw: dict) -> FinCategory:
    """Build a FinCategory from a raw name-based presentation.

    Expected keys: ``objects`` (names), ``morphisms`` (maps with name/dom/cod),
    ``compose`` (triples [g, f, g∘f] by name).  Identities are implicit and
    named ``id_<object>``; their composites are filled in automatically, and
    every other composable pair must be listed.
    """
    objects = list(raw.get("objects", []))
    morphisms = [Morphism(f"id_{name}", i, i) for i, name in enumerate(objects)]
    obj_index = {name: i for i, name in enumerate(objects)}
    if len(obj_index) != len(objects):
        raise PresentationError("object names must be distinct")
    for entry in raw.get("morphisms", []):
        try:
            name, dom, cod = entry["name"], entry["dom"], entry["cod"]
        except (TypeError, KeyError):
            raise PresentationError(
                f"morphism entries need name/dom/cod fields: {entry!r}"
            ) from None
        if dom not in obj_index or cod not in obj_index:
            raise PresentationError(f"morphism {name} references unknown objects")
        morphisms.append(Morphism(name, obj_index[dom], obj_index[cod]))
    mor_index = {m.name: i for i, m in enumerate(morphisms)}
    if len(mor_index) != len(morphisms):
        raise PresentationError("morphism names must be distinct (id_* is reserved)")

    identity = tuple(range(len(objects)))
    table: dict[tuple[int, int], int] = {}
    for triple in raw.get("compose", []):
        try:
            gname, fname, rname = triple
        except (TypeError, ValueError):
            raise PresentationError(
                f"compose entries must be [g, f, result] triples: {triple!r}"
            ) from None
        for nm in (gname, fname, rname):
            if nm not in mor_index:
                raise PresentationError(f"compose entry references unknown morphism {nm}")
        g, f, r = mor_index[gname], mor_index[fname], mor_index[rname]
        if (g, f) in table and table[(g, f)] != r:
            raise PresentationError(
                f"conflicting compose entries for ({gname}, {fname})"
            )
        table[(g, f)] = r
    for f, mf in enumerate(morphisms):
        key = (identity[mf.cod], f)
        if table.setdefault(key, f) != f:
            raise IdentityViolation(
                f"(id_{objects[mf.cod]}, {mf.name}, "
                f"{morphisms[table[key]].name}) contradicts the identity law"
            )
        key = (f, identity[mf.dom])
        if table.setdefault(key, f) != f:
            raise IdentityViolation(
                f"({mf.name}, id_{objects[mf.dom]}, "
                f"{morphisms[table[key]].name}) contradicts the identity law"
            )
    return FinCategory(objects, morphisms, identity, table)


def category(objects, arrows=(), compose=()) -> FinCategory:
    """Terse builder: arrows as (name, dom, cod) triples, compose as name triples."""
    return validate_category(
        {
            "objects": list(objects),
            "morphisms": [
                {"name": n, "dom": d, "cod": c} for n, d, c in arrows
            ],
            "compose": [list(t) for t in compose],
        }
    )


def category_from_poset(poset: FinPoset) -> FinCategory:
    """The poset as a category: one morphism a->b per related pair a <= b."""
    arrows = []
    compose = []
    name = {}
    for a, b in sorted(poset.relation_pairs()):
        if a == b:
            name[(a, b)] = f"id_{poset.elements[a]}"
            continue
        nm = f"{poset.elements[a]}->{poset.elements[b]}"
        name[(a, b)] = nm
        arrows.append((nm, poset.elements[a], poset.elements[b]))
    for a, b in sorted(poset.relation_pairs()):
        for c in sorted(poset.up(b)):
            if a != b and b != c:
                compose.append((name[(b, c)], name[(a, b)], name[(a, c)]))
    return category(poset.elements, arrows, compose)


def connected_components(cat: FinCategory) -> tuple[frozenset[int], ...]:
    """Object classes under zigzags of morphisms; the empty category has none."""
    n = len(cat.objects)
    adj: list[set[int]] = [set() for _ in range(n)]
    for m in cat.morphisms:
        adj[m.dom].add(m.cod)
        adj[m.cod].add(m.dom)
    seen: set[int] = set()
    parts = []
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if b not in comp:
                    comp.add(b)
                    stack.append(b)
        seen |= comp
        parts.append(frozenset(comp))
    return tuple(parts)


@dataclass(frozen=True)
class Congruence:
    """Partition of the morphisms into parallel, composition-compatible classes."""

    classes: tuple[frozenset[int], ...]
    class_of: tuple[int, ...]

    @classmethod
    def from_parent(cls, parent: list[int]) -> "Congruence":
        groups: dict[int, set[int]] = {}
        for i in range(len(parent)):
            groups.setdefault(_find(parent, i), set()).add(i)
        classes = tuple(
            frozenset(g) for g in sorted(groups.values(), key=min)
        )
        class_of = [0] * len(parent)
        for k, cl in enumerate(classes):
            for i in cl:
                class_of[i] = k
        return cls(classes, tuple(class_of))

    def related(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def is_congruence(cat: FinCategory, cong: Congruence) -> bool:
    """Check the parallel and compatibility conditions exhaustively.

    The relation is an equivalence, so it is enough that each morphism is
    parallel to its class's least member and composes like it on either side.
    """
    rep = [min(cl) for cl in cong.classes]
    class_of, table = cong.class_of, cat.table
    for f, mf in enumerate(cat.morphisms):
        r = rep[class_of[f]]
        if r == f:
            continue
        mr = cat.morphisms[r]
        if mf.dom != mr.dom or mf.cod != mr.cod:
            return False
        for g in cat.hom_out[mf.cod]:
            if class_of[table[(g, f)]] != class_of[table[(g, r)]]:
                return False
        for g in cat.hom_in[mf.dom]:
            if class_of[table[(f, g)]] != class_of[table[(r, g)]]:
                return False
    return True


def congruence_close(cat: FinCategory, seeds) -> Congruence:
    """Least congruence containing the seed pairs of parallel morphisms.

    Congruence closure in the style of Downey, Sethi and Tarjan (JACM 1980):
    each merge (a, b) is queued once and propagated only to the composites
    that use a, through hom_out[cod a] and hom_in[dom a].
    """
    parent = list(range(len(cat.morphisms)))
    table = cat.table
    pending: deque[tuple[int, int]] = deque()

    def union(a: int, b: int) -> None:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            return
        lo, hi = min(ra, rb), max(ra, rb)
        parent[hi] = lo
        pending.append((a, b))

    for a, b in seeds:
        ma, mb = cat.morphisms[a], cat.morphisms[b]
        if ma.dom != mb.dom or ma.cod != mb.cod:
            raise NonParallelSeed(f"({ma.name}, {mb.name}) are not parallel")
        union(a, b)
    while pending:
        a, b = pending.popleft()
        ma = cat.morphisms[a]
        for g in cat.hom_out[ma.cod]:
            union(table[(g, a)], table[(g, b)])
        for g in cat.hom_in[ma.dom]:
            union(table[(a, g)], table[(b, g)])
    return Congruence.from_parent(parent)


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
            if self.mor_map[src.identity[x]] != tgt.identity[tx]:
                raise IdentityViolation(
                    f"functor does not preserve the identity of {src.objects[x]}"
                )
        for f, mf in enumerate(src.morphisms):
            image = tgt.morphisms[self.mor_map[f]]
            if image.dom != self.obj_map[mf.dom] or image.cod != self.obj_map[mf.cod]:
                raise DomCodMismatch(
                    f"functor breaks endpoints of {mf.name}"
                )
        for (g, f), r in src.table.items():
            if tgt.table[(self.mor_map[g], self.mor_map[f])] != self.mor_map[r]:
                raise AssociativityViolation(
                    f"functor breaks composition on "
                    f"({src.morphisms[g].name}, {src.morphisms[f].name})"
                )

    def __eq__(self, other):
        if not isinstance(other, FunctorMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.obj_map == other.obj_map
            and self.mor_map == other.mor_map
        )


def quotient_category(cat: FinCategory, cong: Congruence) -> tuple[FinCategory, FunctorMap]:
    """Quotient by a congruence, with the projection functor.

    Class representatives are least-index members, which keeps each identity
    the representative (and the name) of its class.  A discrete congruence
    returns the category itself with the identity functor.
    """
    if len(cong.classes) == len(cat.morphisms):
        return cat, FunctorMap(
            cat, cat, range(len(cat.objects)), range(len(cat.morphisms))
        )
    if not is_congruence(cat, cong):
        raise PresentationError("partition is not a congruence")
    reps = [min(cl) for cl in cong.classes]
    morphisms = []
    for rep in reps:
        m = cat.morphisms[rep]
        morphisms.append(Morphism(m.name, m.dom, m.cod))
    identity = tuple(cong.class_of[i] for i in cat.identity)
    table = {}
    for gi, g in enumerate(reps):
        for f in cat.hom_in[cat.morphisms[g].dom]:
            fi = cong.class_of[f]
            if reps[fi] == f:
                table[(gi, fi)] = cong.class_of[cat.table[(g, f)]]
    quotient = FinCategory(cat.objects, morphisms, identity, table)
    projection = FunctorMap(
        cat, quotient, range(len(cat.objects)), cong.class_of
    )
    projection.validate()
    return quotient, projection


def monic_reflection(cat: FinCategory) -> tuple[FinCategory, FunctorMap]:
    """Quotient by the least congruence whose quotient is monic.

    Iterates: each round groups every hom-set by the class of h∘f, for each
    h out of its codomain; the members of one group are indistinguishable
    under h, so they are merged, the congruence is re-closed, and the rounds
    repeat to a fixpoint.
    """
    pairs: list[tuple[int, int]] = []
    cong = congruence_close(cat, [])
    table = cat.table
    while True:
        class_of = cong.class_of
        fresh = []
        for (_, cod), homs in cat.hom_sets.items():
            if len(homs) < 2:
                continue
            for h in cat.hom_out[cod]:
                leader: dict[int, int] = {}
                for f in homs:
                    first = leader.setdefault(class_of[table[(h, f)]], f)
                    if class_of[first] != class_of[f]:
                        fresh.append((first, f))
        if not fresh:
            break
        pairs.extend(fresh)
        cong = congruence_close(cat, pairs)
    return quotient_category(cat, cong)


def is_monic(cat: FinCategory) -> bool:
    """Exhaustive left-cancellation check: every h out of a hom-set's
    codomain is injective on that hom-set."""
    for (_, cod), homs in cat.hom_sets.items():
        if len(homs) < 2:
            continue
        for h in cat.hom_out[cod]:
            if len({cat.table[(h, f)] for f in homs}) < len(homs):
                return False
    return True


def is_preorder(cat: FinCategory) -> bool:
    """At most one morphism between any ordered pair of objects."""
    return len(cat.hom_sets) == len(cat.morphisms)


def skeleton_poset(cat: FinCategory) -> tuple[FinPoset, tuple[int, ...]]:
    """Collapse mutually reachable objects of a preorder to a poset.

    Returns the poset together with the object -> element map; class
    representatives are least object indices.
    """
    if not is_preorder(cat):
        raise NotAPreorder("category has parallel morphisms")
    n = len(cat.objects)
    reach = [[False] * n for _ in range(n)]
    for m in cat.morphisms:
        reach[m.dom][m.cod] = True
    classes: list[list[int]] = []
    class_of = [-1] * n
    for x in range(n):
        if class_of[x] >= 0:
            continue
        members = [
            y for y in range(n) if reach[x][y] and reach[y][x]
        ]
        for y in members:
            class_of[y] = len(classes)
        classes.append(members)
    elements = [cat.objects[min(cl)] for cl in classes]
    pairs = [
        (class_of[m.dom], class_of[m.cod]) for m in cat.morphisms
    ]
    return FinPoset(elements, pairs), tuple(class_of)
