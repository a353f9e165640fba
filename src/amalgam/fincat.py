"""Finite categories presented by a full composition table.

Objects and morphisms are indexed; identities occupy the first object-many
morphism slots, and morphism i is the pair ``morphisms[i]`` of its ends
named ``arrow_names[i]``.  All category axioms are checked at construction
time, so every FinCategory in circulation is valid.  Associativity is
checked through a generating set of arrows (Light's test), with the
exhaustive scan kept to name the first fault of a table that fails it.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import islice
from operator import itemgetter

from .poset import FinPoset, clip, lone_surrogate


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


class NotAPreorder(CategoryError):
    pass


class FinCategory:
    """Validated finite category: objects, morphisms, identities, composition table.

    ``arrows`` presents the morphisms as (name, dom, cod) triples, kept as
    two tuples: ``morphisms`` of (dom, cod) pairs and ``arrow_names``.
    Indexed once, after the endpoint check: ``hom_out[x]`` and ``hom_in[x]``
    list the morphisms out of and into object x, and ``hom_sets`` maps each
    non-empty (dom, cod) to its morphisms, all in ascending index order.
    Every scan over composable pairs and triples runs over these lists.
    ``generator_ends`` lists a generating set of non-identities as
    (index, dom, cod), in ascending index order: every non-identity is a
    right-nested composite g1∘(g2∘(…∘gk)) of them.  The composition is
    held once, as rows: ``post[f][k]`` is h∘f for the k-th h in
    ``hom_out[cod f]``, ``place[h]`` is h's place in ``hom_out[dom h]``, so
    h∘f is ``post[f][place[h]]``, and ``pre[f][k]`` is f∘g for the k-th g
    in ``hom_in[dom f]``.  ``table`` {(g, f): g∘f} only fills the rows: an
    entry out of range, not composable or with wrong endpoints is named in
    its order; a missing entry, an identity law, associativity or a
    diagram's non-commuting pair in scan order, that of ``composites``.
    """

    def __init__(self, objects, arrows, table):
        self.objects = tuple(objects)
        self.arrow_names = tuple(name for name, _, _ in arrows)
        self.morphisms = tuple((dom, cod) for _, dom, cod in arrows)
        self.obj_index = {name: i for i, name in enumerate(self.objects)}
        self.mor_index = {name: i for i, name in enumerate(self.arrow_names)}
        _check_presentation(self)
        self.hom_out: list[list[int]] = [[] for _ in self.objects]
        self.hom_in: list[list[int]] = [[] for _ in self.objects]
        self.hom_sets: dict[tuple[int, int], list[int]] = {}
        self.place = [0] * len(self.morphisms)
        for i, (dom, cod) in enumerate(self.morphisms):
            self.place[i] = len(self.hom_out[dom])
            self.hom_out[dom].append(i)
            self.hom_in[cod].append(i)
            self.hom_sets.setdefault((dom, cod), []).append(i)
        _check_axioms(self, table)

    def compose(self, g: int, f: int) -> int:
        """Index of g∘f (f applied first), for g out of the codomain of f."""
        return self.post[f][self.place[g]]

    def is_identity(self, m: int) -> bool:
        return m < len(self.objects)

    @cached_property
    def pre(self) -> list[list[int]]:
        post, hom_in = self.post, self.hom_in
        return [
            list(map(itemgetter(k), map(post.__getitem__, hom_in[dom])))
            for k, (dom, _) in zip(self.place, self.morphisms)
        ]

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Bit y of entry x is set when a morphism joins x and y, either way."""
        near = [0] * len(self.objects)
        for x, y in self.hom_sets:
            near[x] |= 1 << y
            near[y] |= 1 << x
        return tuple(near)

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return tuple(self.hom_sets.get((x, y), ()))

    def composites(self):
        """(g, f, g∘f) for every composable pair of non-identities, in scan
        order: f by index, then g in ``hom_out[cod f]``."""
        n_obj, hom_out = len(self.objects), self.hom_out
        for f, (_, cod) in enumerate(self.morphisms[n_obj:], n_obj):
            for g, r in zip(hom_out[cod], self.post[f]):
                if g >= n_obj:
                    yield g, f, r

    def parallel_pairs(self):
        """All index pairs (f, g) with f < g, equal dom and equal cod,
        by ascending g, then ascending f."""
        for g, ends in enumerate(self.morphisms):
            for f in self.hom_sets[ends]:
                if f == g:
                    break
                yield f, g

    def __eq__(self, other):
        poset = isinstance(other, FinPoset)
        if not (poset or isinstance(other, FinCategory)):
            return NotImplemented
        # A category with a poset's arrows has one choice for each
        # composite, so its rows agree with the poset's order.
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.arrow_names == other.arrow_names
            and (poset or self.post == other.post)
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
    if len(cat.morphisms) < n_obj:
        raise PresentationError("one identity per object required")
    for name, (dom, cod) in zip(cat.arrow_names, cat.morphisms):
        if not (0 <= dom < n_obj and 0 <= cod < n_obj):
            raise PresentationError(f"morphism {clip(name)} references unknown objects")


def _check_axioms(cat: FinCategory, table) -> None:
    """One pass over the presentation fills the rows, naming an entry out
    of range, not composable or with wrong endpoints in presentation order.
    A missing entry and the identity laws are then read off the rows in
    scan order, f, then g in hom_out[cod f], the order of ``composites``
    and so of a diagram's first non-commuting pair.  Associativity is
    Light's test over the generators; only a table that fails it is scanned
    over all its composable triples, in scan order, to name its first fault.
    """
    morphisms, names, objects = cat.morphisms, cat.arrow_names, cat.objects
    n_mor, hom_out, place = len(morphisms), cat.hom_out, cat.place
    for x, (dom, cod) in enumerate(morphisms[:len(objects)]):
        if dom != x or cod != x:
            raise IdentityViolation(
                f"identity of {clip(objects[x])} has endpoints "
                f"{clip(objects[dom])} -> {clip(objects[cod])}"
            )
    rows = [[None] * len(hom_out[cod]) for _, cod in morphisms]
    for (g, f), r in table.items():
        if not (0 <= g < n_mor and 0 <= f < n_mor and 0 <= r < n_mor):
            raise PresentationError(f"composition entry ({g}, {f}) out of range")
        (g_dom, g_cod), (f_dom, f_cod) = morphisms[g], morphisms[f]
        if f_cod != g_dom:
            raise DomCodMismatch(
                f"({clip(names[g])}, {clip(names[f])}) is not composable: "
                f"cod {clip(objects[f_cod])} != dom {clip(objects[g_dom])}"
            )
        if morphisms[r] != (f_dom, g_cod):
            raise DomCodMismatch(
                f"({clip(names[g])}, {clip(names[f])}, {clip(names[r])}): "
                "composite endpoints do not match"
            )
        rows[f][place[g]] = r
    for f, row in enumerate(rows):
        if None in row:
            g = hom_out[morphisms[f][1]][row.index(None)]
            raise MissingComposite(f"no entry for ({clip(names[g])}, {clip(names[f])})")
    cat.post = post = list(map(tuple, rows))
    for f, (dom, cod) in enumerate(morphisms):
        left = post[f][place[cod]]
        right = post[dom][place[f]]
        if left != f:
            raise IdentityViolation(
                f"(id_{clip(objects[cod])}, {clip(names[f])}, "
                f"{clip(names[left])}) breaks the left identity law"
            )
        if right != f:
            raise IdentityViolation(
                f"({clip(names[f])}, id_{clip(objects[dom])}, "
                f"{clip(names[right])}) breaks the right identity law"
            )
    cat.generator_ends = _generators(cat, post, place)
    if not _associative_at_generators(cat, post, place):
        _raise_first_associativity_fault(cat, post, place)


def _generators(cat: FinCategory, post, place) -> tuple[tuple[int, int, int], ...]:
    """(index, dom, cod) of the irreducible non-identities, those that are not
    g∘f for non-identities g, f other than the result; then, in index order,
    of each non-identity that the right-nested composites of the generators
    chosen so far do not reach (every element of Z_n is a composite, but not
    of nothing)."""
    morphisms, hom_out = cat.morphisms, cat.hom_out
    n_obj = len(cat.objects)  # the identities are the first n_obj morphisms
    reducible = set()
    for f, (_, cod) in enumerate(morphisms[n_obj:], n_obj):
        for g, r in zip(hom_out[cod], post[f]):
            if r != g and r != f and g >= n_obj:
                reducible.add(r)
    chosen = [m for m in range(n_obj, len(morphisms)) if m not in reducible]
    out_of: list[list[int]] = [[] for _ in cat.objects]  # generators' places, by domain
    for g in chosen:
        out_of[morphisms[g][0]].append(place[g])
    reached: set[int] = set()

    def reach(fresh: list[int]) -> None:
        """Add the composites g∘x of generators g after each fresh x."""
        while fresh:
            x = fresh.pop()
            if x not in reached:
                reached.add(x)
                fresh.extend(map(post[x].__getitem__, out_of[morphisms[x][1]]))

    reach(list(chosen))
    for m in range(n_obj, len(morphisms)):
        if m in reached:
            continue
        dom = morphisms[m][0]
        chosen.append(m)
        k = place[m]
        out_of[dom].append(k)
        reach([m] + [post[x][k] for x in cat.hom_in[dom] if x in reached])
    return tuple((g, *morphisms[g]) for g in sorted(chosen))


def _associative_at_generators(cat: FinCategory, post, place) -> bool:
    """Light's associativity test: (h∘g)∘f = h∘(g∘f) for every generator g.

    Exact on any table that passed the identity checks.  If the law holds
    with a and with b in the middle for every f and h, it holds with b∘a:
    h∘((b∘a)∘f) = h∘(b∘(a∘f)) = (h∘b)∘(a∘f) = ((h∘b)∘a)∘f = (h∘(b∘a))∘f.
    Identities satisfy it by the identity laws, and every morphism is a
    right-nested composite of generators.  Since cod(g∘f) = cod g, the
    composites h∘(g∘f) are listed by post[g∘f] in the order of post[g];
    each (h∘g)∘f is the entry of post[f] at the place of h∘g among the
    arrows out of dom g, so one getter per generator reads them all.  A
    generator followed by its codomain's identity alone is skipped: the
    identity laws cover it.
    """
    hom_in = cat.hom_in
    for g, dom, _ in cat.generator_ends:
        post_g = post[g]
        if len(post_g) < 2:
            continue
        pick, k = itemgetter(*map(place.__getitem__, post_g)), place[g]
        for f in hom_in[dom]:
            row = post[f]
            if pick(row) != post[row[k]]:
                return False
    return True


def _raise_first_associativity_fault(cat: FinCategory, post, place) -> None:
    """The exhaustive scan over composable triples, in the order of a scan
    over all morphisms: raises the first fault a full check would report."""
    morphisms, names, hom_out = cat.morphisms, cat.arrow_names, cat.hom_out
    # Since cod(g∘f) = cod g, the triple (h, g, f) compares post[g∘f][k]
    # with post[g][k]∘f.
    for f, (_, cod) in enumerate(morphisms):
        for g, gf in zip(hom_out[cod], post[f]):
            for h, hgf, hg in zip(hom_out[morphisms[g][1]], post[gf], post[g]):
                if hgf != post[f][place[hg]]:
                    raise AssociativityViolation(
                        f"({clip(names[h])}, {clip(names[g])}, "
                        f"{clip(names[f])}) is not associative"
                    )


def _describe(objects, morphisms, i: int) -> str:
    dom, cod = morphisms[i]
    if i < len(objects):
        return f"the identity of '{clip(objects[dom])}'"
    return f"the arrow '{clip(objects[dom])}' -> '{clip(objects[cod])}'"


def name_index(objects, names, morphisms) -> dict[str, int]:
    """Each morphism name's index; the identities come first.  A name given
    twice raises PresentationError naming both morphisms by their ends."""
    mor_index: dict[str, int] = {}
    for i, name in enumerate(names):
        first = mor_index.setdefault(name, i)
        if first != i:
            raise PresentationError(
                f"morphism name '{clip(name)}' is given to both "
                f"{_describe(objects, morphisms, first)} and "
                f"{_describe(objects, morphisms, i)}"
                + (" (id_<object> names the identities)" if first < len(objects) else "")
            )
    return mor_index


def echo(entry) -> str:
    """``repr(entry)`` as a fault message quotes it, bounded: containers are
    cut past three levels or eight items, scalars past 80 characters and the
    whole past 200, so a hostile entry prints a short line.  A dict keeps
    its order, so an entry within those bounds reads exactly as its repr."""
    import reprlib  # only a fault quotes an entry

    class Echo(reprlib.Repr):
        def repr_dict(self, x, level):
            if x and level <= 0:
                return "{...}"
            pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
                      for k, v in islice(x.items(), self.maxdict)]
            return "{" + ", ".join(pieces + ["..."] * (len(x) > self.maxdict)) + "}"

    bounded = Echo()
    bounded.maxlevel = 3
    bounded.maxlist = bounded.maxtuple = bounded.maxdict = 8
    bounded.maxstring = bounded.maxother = bounded.maxlong = 80
    text = bounded.repr(entry)
    return text if len(text) <= 200 else text[:197] + "..."


def validate_category(raw: dict) -> FinCategory:
    """Build a FinCategory from a raw name-based presentation.

    Expected keys: ``objects`` (names), ``morphisms`` (maps with name/dom/cod),
    ``compose`` (triples [g, f, g∘f] by name).  Identities are implicit and
    named ``id_<object>``; their composites are filled in where none is
    listed, a listed one is held to the identity laws by the FinCategory
    check, and every other composable pair must be listed.
    """
    objects = raw.get("objects", [])
    try:
        if not isinstance(objects, (list, tuple)):
            raise TypeError
        lone = lone_surrogate(objects)
    except TypeError:
        raise PresentationError("objects must be a list of string names") from None
    if lone is not None:
        raise PresentationError(f"objects may not hold a lone surrogate: '{lone}'")
    objects = list(objects)
    arrows = [(f"id_{name}", i, i) for i, name in enumerate(objects)]
    obj_index = {name: i for i, name in enumerate(objects)}
    if len(obj_index) != len(objects):
        raise PresentationError("object names must be distinct")
    entries = raw.get("morphisms", [])
    if not isinstance(entries, (list, tuple)):
        raise PresentationError("morphisms must be a list of name/dom/cod entries")
    for entry in entries:
        try:
            name, dom, cod = entry["name"], entry["dom"], entry["cod"]
        except (TypeError, KeyError):
            raise PresentationError(
                f"morphism entries need name/dom/cod fields: {echo(entry)}"
            ) from None
        if not (isinstance(name, str) and isinstance(dom, str) and isinstance(cod, str)):
            raise PresentationError(
                f"morphism name/dom/cod fields must be strings: {echo(entry)}"
            )
        if dom not in obj_index or cod not in obj_index:
            raise PresentationError(f"morphism {clip(name)} references unknown objects")
        arrows.append((name, obj_index[dom], obj_index[cod]))
    names = [name for name, _, _ in arrows]
    lone = lone_surrogate(names)
    if lone is not None:
        raise PresentationError(f"morphism names may not hold a lone surrogate: '{lone}'")
    mor_index = name_index(objects, names, [(dom, cod) for _, dom, cod in arrows])

    table: dict[tuple[int, int], int] = {}
    triples = raw.get("compose", [])
    if not isinstance(triples, (list, tuple)):
        raise PresentationError("compose must be a list of [g, f, result] triples")
    # Only a list or tuple entry unpacks: a string or an object would read
    # as its characters or keys.  One pass at C speed types the whole list.
    sequences = set(map(type, triples)) <= {list, tuple}
    for triple in triples:
        try:
            gname, fname, rname = triple if sequences or type(triple) in (list, tuple) else ()
        except (TypeError, ValueError):
            raise PresentationError(
                f"compose entries must be [g, f, result] triples: {echo(triple)}"
            ) from None
        try:
            g, f, r = mor_index[gname], mor_index[fname], mor_index[rname]
        except (KeyError, TypeError):  # every name in mor_index is a string
            for nm in (gname, fname, rname):
                if not isinstance(nm, str):
                    raise PresentationError(
                        f"compose entries must be triples of morphism names: {echo(triple)}"
                    ) from None
                if nm not in mor_index:
                    raise PresentationError(
                        f"compose entry references unknown morphism {clip(nm)}"
                    ) from None
        if table.setdefault((g, f), r) != r:
            raise PresentationError(
                f"conflicting compose entries for ({clip(gname)}, {clip(fname)})"
            )
    for f, (_, dom, cod) in enumerate(arrows):
        table.setdefault((cod, f), f)
        table.setdefault((f, dom), f)
    return FinCategory(objects, arrows, table)


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


class _Closure:
    """Congruence closure in the style of Downey, Sethi and Tarjan (JACM
    1980), on class arrays: ``label[i]`` is the root of morphism i's class,
    a member of it, and a merge relabels the smaller class.  Each merge
    (a, b) is queued once and propagated to the composites that use a and
    b, compared row against row: ``post`` on the left, ``pre`` on the
    right."""

    def __init__(self, cat: FinCategory):
        self.cat = cat
        self.label = list(range(len(cat.morphisms)))
        self.members: dict[int, list[int]] = {}  # classes of two or more
        self.pending: list[tuple[int, int]] = []

    def merge(self, a: int, b: int) -> None:
        label, members = self.label, self.members
        ka, kb = label[a], label[b]
        if ka == kb:
            return
        big, small = members.pop(ka, None) or [ka], members.pop(kb, None) or [kb]
        if len(big) < len(small):
            big, small, ka = small, big, kb
        for m in small:
            label[m] = ka
        big.extend(small)
        members[ka] = big
        self.pending.append((a, b))

    def propagate(self) -> None:
        pending, label = self.pending, self.label
        rows = (self.cat.post, self.cat.pre)
        while pending:
            a, b = pending.pop()
            for row in rows:
                ra, rb = row[a], row[b]
                if ra != rb and list(map(label.__getitem__, ra)) != list(
                    map(label.__getitem__, rb)
                ):
                    for x, y in zip(ra, rb):
                        self.merge(x, y)

    def class_map(self) -> tuple[int, ...]:
        """Each morphism's class, the classes numbered by their least member."""
        number: dict[int, int] = {}
        return tuple(number.setdefault(k, len(number)) for k in self.label)


def _least_members(cat: FinCategory, class_of: tuple[int, ...]) -> list[int]:
    """The least member of each class of a class map, by class: a map that
    does not give each morphism one of the classes 0..k-1 is refused."""
    n = len(class_of)
    if n != len(cat.morphisms):
        raise PresentationError("a class map needs one class per morphism")
    least = dict(zip(reversed(class_of), range(n - 1, -1, -1)))  # the last write is the least
    if least.keys() != set(range(len(least))):
        raise PresentationError("a class map must number its classes 0..k-1")
    return list(map(least.__getitem__, range(len(least))))


def is_congruence(cat: FinCategory, class_of: tuple[int, ...]) -> bool:
    """Check the parallel and compatibility conditions of the partition a
    class map gives, exhaustively.

    The relation is an equivalence, so it is enough that each morphism is
    parallel to its class's least member and that its rows of composites on
    either side fall in the same classes as that member's, which are read
    once per class.
    """
    reps = _least_members(cat, class_of)
    of, morphisms, post, pre = class_of.__getitem__, cat.morphisms, cat.post, cat.pre

    @cache
    def reads(f: int) -> tuple:
        return morphisms[f], list(map(of, post[f])), list(map(of, pre[f]))

    return all(reads(f) == reads(reps[k]) for f, k in enumerate(class_of) if f != reps[k])


def quotient_category(
    cat: FinCategory, class_of: tuple[int, ...]
) -> tuple[FinCategory, tuple[int, ...]]:
    """Quotient by the congruence a class map gives, with that map as the
    projection: the objects are kept, so morphism i goes to class
    ``class_of[i]``.

    Class representatives are least-index members, which keeps each identity
    the representative (and the name) of its class.  The quotient's
    identities are its first classes, so class x must hold identity x, as
    the closures number them; another order is refused.  The identity map
    alone returns the category itself.

    The partition is checked once, by ``is_congruence``, before anything is
    built.  Over a congruence the quotient's table holds rep(h)∘rep(f), the
    class of every h∘f, so the projection is a functor by construction; the
    quotient's own axioms are checked by its constructor.
    """
    class_of, identity = tuple(class_of), tuple(range(len(cat.morphisms)))
    if class_of == identity:
        return cat, identity
    if not is_congruence(cat, class_of):
        raise PresentationError("partition is not a congruence")
    pre, n = cat.pre, len(cat.objects)
    if class_of[:n] != identity[:n]:
        raise PresentationError("class x of a congruence must hold identity x")
    reps = _least_members(cat, class_of)
    arrows = [(cat.arrow_names[r], *cat.morphisms[r]) for r in reps]
    table = {}
    for gi, g in enumerate(reps):
        for f, gf in zip(cat.hom_in[cat.morphisms[g][0]], pre[g]):
            fi = class_of[f]
            if reps[fi] == f:
                table[(gi, fi)] = class_of[gf]
    return FinCategory(cat.objects, arrows, table), class_of


def monic_reflection(cat: FinCategory) -> tuple[FinCategory, tuple[int, ...]]:
    """Quotient by the least congruence whose quotient is monic.

    Rounds to a fixpoint, on one closure: in each hom-set, each h out of its
    codomain sends the members to the classes of their h∘f, a column of the
    rows of composites; members that h sends to one class are
    indistinguishable under h, so they are merged.  A column with as many
    classes as the hom-set has is skipped at once.  The merges of a round
    are then propagated, and the next round reads the closed classes.
    """
    closure = _Closure(cat)
    label, post = closure.label, cat.post
    of = label.__getitem__
    while True:
        for homs in cat.hom_sets.values():
            if len(homs) < 2:
                continue
            classes = len(set(map(of, homs)))
            if classes < 2:
                continue
            for column in zip(*[map(of, post[f]) for f in homs]):
                if len(set(column)) == classes:
                    continue
                leader: dict[int, int] = {}
                for f, k in zip(homs, column):
                    closure.merge(leader.setdefault(k, f), f)
                classes = len(set(map(of, homs)))
                if classes < 2:
                    break
        if not closure.pending:
            break
        closure.propagate()
    return quotient_category(cat, closure.class_map())


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
    class_of = [-1] * len(cat.objects)
    elements: list[str] = []
    for x in range(len(cat.objects)):
        if class_of[x] >= 0:
            continue
        for _, y in map(cat.morphisms.__getitem__, cat.hom_out[x]):
            if (y, x) in cat.hom_sets:
                class_of[y] = len(elements)
        elements.append(cat.objects[x])
    # every morphism is a composite of generators, so their ends close to the order
    covers = [(class_of[dom], class_of[cod]) for _, dom, cod in cat.generator_ends]
    return FinPoset(elements, covers), tuple(class_of)
