"""Shared builders, independent test oracles, and the acceptance summary hook."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from hypothesis import strategies as st

from amalgam import category
from amalgam.diagram import (
    CarrierMismatch,
    Cocone,
    DiagramError,
    FinInjDiagram,
    FunctorialityViolation,
    NotInjective,
    validate_cocone,
)
from amalgam.fincat import (
    AssociativityViolation,
    DomCodMismatch,
    FinCategory,
    IdentityViolation,
    MissingComposite,
    PresentationError,
    is_preorder,
)
from amalgam.pinj import PartialInjection
from amalgam.poset import (
    DecompositionNode,
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    PosetError,
    components,
    verify_certificate,
)

ACCEPTANCE_LINES: list[str] = []


def total_elements(diagram: FinInjDiagram) -> int:
    return sum(len(c) for c in diagram.carriers)


def related(cong, a: int, b: int) -> bool:
    """Whether a congruence puts morphisms a and b in one class."""
    return cong.class_of[a] == cong.class_of[b]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# -- shapes used across the suite -------------------------------------------

def bowtie_cat():
    """Four non-identity arrows f: C->A, h: C->B, g: D->A, k: D->B."""
    return category(
        ["A", "B", "C", "D"],
        [("f", "C", "A"), ("h", "C", "B"), ("g", "D", "A"), ("k", "D", "B")],
    )


def bowtie_poset():
    return FinPoset.from_covers(
        ["A", "B", "C", "D"], [(2, 0), (2, 1), (3, 0), (3, 1)]
    )


def chain(n):
    return FinPoset.from_covers([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


@st.composite
def dags(draw, max_size=12):
    """(poset, covers, subset): a random DAG whose index order is shuffled."""
    n = draw(st.integers(0, max_size))
    order = draw(st.permutations(range(n)))
    edges = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=3 * n))
    covers = [(order[a], order[b]) for a, b in edges if a < b < n]
    subset = draw(st.frozensets(st.integers(0, n - 1), max_size=n)) if n else frozenset()
    return FinPoset.from_covers([f"e{i}" for i in range(n)], covers), covers, subset


def boat_poset():
    """Bowtie with one extra bottom element below everything."""
    return FinPoset.from_covers(
        ["A", "B", "C", "D", "E"],
        [(4, 2), (4, 3), (2, 0), (2, 1), (3, 0), (3, 1)],
    )


def span_poset():
    return FinPoset.from_covers(["p", "a", "b"], [(0, 1), (0, 2)])


def crown_poset():
    """Six elements whose comparability graph is a hexagon."""
    return FinPoset.from_covers(
        ["p", "q", "r", "x", "y", "z"],
        [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)],
    )


def parallel_pair_cat():
    return category(["C", "B"], [("u", "C", "B"), ("v", "C", "B")])


def collapsing_pair_cat():
    """u, v: C->B are equalized by d: B->D, so the monic reflection merges them."""
    return category(
        ["C", "B", "D"],
        [("u", "C", "B"), ("v", "C", "B"), ("d", "B", "D"), ("w", "C", "D")],
        [("d", "u", "w"), ("d", "v", "w")],
    )


def z2_cat():
    return category(["X"], [("s", "X", "X")], [("s", "s", "id_X")])


def z3_cat():
    return category(
        ["X"],
        [("r", "X", "X"), ("r2", "X", "X")],
        [("r", "r", "r2"), ("r", "r2", "id_X"), ("r2", "r", "id_X"), ("r2", "r2", "r")],
    )


def null_monoid_cat():
    """Monoid {1, a, z} with a·a = z and z absorbing: a is neither idempotent
    nor cancellable."""
    return category(
        ["X"],
        [("a", "X", "X"), ("z", "X", "X")],
        [
            ("a", "a", "z"),
            ("a", "z", "z"),
            ("z", "a", "z"),
            ("z", "z", "z"),
        ],
    )


def iso_pair_cat():
    return category(
        ["X", "Y"],
        [("t", "X", "Y"), ("ti", "Y", "X")],
        [("ti", "t", "id_X"), ("t", "ti", "id_Y")],
    )


def empty_map_monoid_cat():
    return category(["X"], [("z", "X", "X")], [("z", "z", "z")])


def cyclic_cat(n: int):
    """Z_n as a one-object category with arrows r1..r(n-1)."""
    names = ["id_X"] + [f"r{k}" for k in range(1, n)]
    return category(
        ["X"],
        [(names[k], "X", "X") for k in range(1, n)],
        [
            (names[a], names[b], names[(a + b) % n])
            for a in range(1, n)
            for b in range(1, n)
        ],
    )


def left_zero_monoid_cat(k: int):
    """k left zeros (g∘f = g) and the identity."""
    names = [f"z{i}" for i in range(k)]
    return category(
        ["X"], [(m, "X", "X") for m in names], [(g, f, g) for g in names for f in names]
    )


def small_category_suite():
    """Categories with at most 8 morphisms, monic and not."""
    return [
        bowtie_cat(),
        parallel_pair_cat(),
        collapsing_pair_cat(),
        z2_cat(),
        z3_cat(),
        null_monoid_cat(),
        iso_pair_cat(),
        empty_map_monoid_cat(),
        category_from_poset(span_poset()),
    ]


# -- independent oracles -----------------------------------------------------

def category_from_poset(poset: FinPoset) -> FinCategory:
    """The poset as a category built from a full composition table: one
    morphism a->b per related pair a <= b, named and ordered as the poset
    itself names and orders its arrows."""
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


def set_partitions(items):
    """All partitions of a list, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for k in range(len(partition)):
            yield partition[:k] + [[head] + partition[k]] + partition[k + 1:]
        yield [[head]] + partition


def naive_check_axioms(objects, morphisms, identity, table) -> None:
    """Reference category check: every loop runs over all morphisms.

    Raises the exception the library's indexed check must raise, with the
    same message, on the same presentation.
    """
    n_obj = len(objects)
    n_mor = len(morphisms)
    if len(set(objects)) != n_obj:
        raise PresentationError("object names must be distinct")
    if len({m.name for m in morphisms}) != n_mor:
        raise PresentationError("morphism names must be distinct")
    if len(identity) != n_obj:
        raise PresentationError("one identity per object required")
    for m in morphisms:
        if not (0 <= m.dom < n_obj and 0 <= m.cod < n_obj):
            raise PresentationError(f"morphism {m.name} references unknown objects")
    for x, i in enumerate(identity):
        m = morphisms[i]
        if m.dom != x or m.cod != x:
            raise IdentityViolation(
                f"identity of {objects[x]} has endpoints "
                f"{objects[m.dom]} -> {objects[m.cod]}"
            )
    for (g, f), r in table.items():
        if not (0 <= g < n_mor and 0 <= f < n_mor and 0 <= r < n_mor):
            raise PresentationError(f"composition entry ({g}, {f}) out of range")
        mg, mf, mr = morphisms[g], morphisms[f], morphisms[r]
        if mf.cod != mg.dom:
            raise DomCodMismatch(
                f"({mg.name}, {mf.name}) is not composable: "
                f"cod {objects[mf.cod]} != dom {objects[mg.dom]}"
            )
        if mr.dom != mf.dom or mr.cod != mg.cod:
            raise DomCodMismatch(
                f"({mg.name}, {mf.name}, {mr.name}): composite endpoints do not match"
            )
    for f, mf in enumerate(morphisms):
        for g, mg in enumerate(morphisms):
            if mf.cod == mg.dom and (g, f) not in table:
                raise MissingComposite(f"no entry for ({mg.name}, {mf.name})")
    for f, mf in enumerate(morphisms):
        left = table[(identity[mf.cod], f)]
        right = table[(f, identity[mf.dom])]
        if left != f:
            raise IdentityViolation(
                f"(id_{objects[mf.cod]}, {mf.name}, "
                f"{morphisms[left].name}) breaks the left identity law"
            )
        if right != f:
            raise IdentityViolation(
                f"({mf.name}, id_{objects[mf.dom]}, "
                f"{morphisms[right].name}) breaks the right identity law"
            )
    for f, mf in enumerate(morphisms):
        for g, mg in enumerate(morphisms):
            if mf.cod != mg.dom:
                continue
            gf = table[(g, f)]
            for h, mh in enumerate(morphisms):
                if mg.cod != mh.dom:
                    continue
                if table[(h, gf)] != table[(table[(h, g)], f)]:
                    raise AssociativityViolation(
                        f"({mh.name}, {mg.name}, {mf.name}) is not associative"
                    )


def partition_is_congruence(cat, blocks) -> bool:
    """Independent congruence predicate, written directly from the definition."""
    class_of = {}
    for k, block in enumerate(blocks):
        for m in block:
            class_of[m] = k
    for block in blocks:
        if len({cat.morphisms[m].dom for m in block}) != 1:
            return False
        if len({cat.morphisms[m].cod for m in block}) != 1:
            return False
    n = len(cat.morphisms)
    for f in range(n):
        for f2 in range(n):
            if class_of[f] != class_of[f2]:
                continue
            for g in range(n):
                if cat.morphisms[g].dom == cat.morphisms[f].cod:
                    if class_of[cat.table[(g, f)]] != class_of[cat.table[(g, f2)]]:
                        return False
                if cat.morphisms[g].cod == cat.morphisms[f].dom:
                    if class_of[cat.table[(f, g)]] != class_of[cat.table[(f2, g)]]:
                        return False
    return True


def quotient_is_monic(cat, blocks) -> bool:
    """Whether the quotient by the partition cancels on the left, checked on classes."""
    class_of = {}
    for k, block in enumerate(blocks):
        for m in block:
            class_of[m] = k
    n = len(cat.morphisms)
    for f in range(n):
        for g in range(n):
            mf, mg = cat.morphisms[f], cat.morphisms[g]
            if mf.dom != mg.dom or mf.cod != mg.cod or class_of[f] == class_of[g]:
                continue
            for h in range(n):
                if cat.morphisms[h].dom != mf.cod:
                    continue
                if class_of[cat.table[(h, f)]] == class_of[cat.table[(h, g)]]:
                    return False
    return True


def reachable_pairs(cat):
    """Object reachability by zigzags, via boolean-matrix closure (no search)."""
    n = len(cat.objects)
    adj = [[i == j for j in range(n)] for i in range(n)]
    for m in cat.morphisms:
        adj[m.dom][m.cod] = True
        adj[m.cod][m.dom] = True
    for _ in range(n):
        adj = [
            [any(adj[i][k] and adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return adj


class TooLarge(PosetError):
    pass


def brute_force_tree_like(poset: FinPoset, bound: int = 8) -> bool:
    """Existential tree test: some minimal element must decompose the poset.

    Independent of is_forest_like's fixed least-index choice; exponential,
    so restricted to connected posets of at most ``bound`` elements.
    """
    n = len(poset)
    if n > bound:
        raise TooLarge(f"{n} elements exceeds bound {bound}")
    if n == 0 or len(components(poset, range(n))) != 1:
        raise ValueError("input must be a nonempty connected poset")
    memo: dict[frozenset[int], bool] = {}

    def tree(region: frozenset[int]) -> bool:
        if len(region) == 1:
            return True
        if region in memo:
            return memo[region]
        answer = False
        for x in poset.minimal(region):
            up_x = poset.up(x)
            for part in components(poset, region - {x}):
                if len(components(poset, part & up_x)) != 1 or not tree(part):
                    break
            else:
                answer = True
                break
        memo[region] = answer
        return answer

    return tree(frozenset(range(n)))


def recursive_forest_like(poset: FinPoset):
    """The forest decomposition as a recursive descent over frozensets, with
    components found by scanning ``leq``: the reference that ``is_forest_like``
    must reproduce node for node and witness for witness (small posets only).
    """

    def comparable(a: int, b: int) -> bool:
        return poset.leq(a, b) or poset.leq(b, a)

    def parts(region) -> tuple[frozenset[int], ...]:
        out, left = [], sorted(region)
        while left:
            comp, queue = {left[0]}, deque([left[0]])
            while queue:
                a = queue.popleft()
                for b in left:
                    if b not in comp and comparable(a, b):
                        comp.add(b)
                        queue.append(b)
            out.append(frozenset(comp))
            left = [b for b in left if b not in comp]
        return tuple(out)

    def zigzag(region, u: int, v: int) -> tuple[int, ...]:
        prev, queue = {u: u}, deque([u])
        while queue:
            a = queue.popleft()
            for b in sorted(region):
                if b not in prev and comparable(a, b):
                    prev[b] = a
                    queue.append(b)
        path = [v]
        while path[-1] != u:
            path.append(prev[path[-1]])
        path.reverse()
        out, directions = [path[0]], []
        for b in path[1:]:
            direction = poset.leq(out[-1], b)
            if directions and directions[-1] == direction:
                out[-1] = b
            else:
                out.append(b)
                directions.append(direction)
        return tuple(out)

    def decompose(region: frozenset[int]):
        x = min(a for a in region if not any(b != a and poset.leq(b, a) for b in region))
        up_x = frozenset(b for b in region if poset.leq(x, b))
        children, upsets = [], []
        for part in parts(region - {x}):
            upset = part & up_x
            pieces = parts(upset)
            if len(pieces) != 1:
                u, v = min(pieces[0]), min(pieces[1])
                return NonForestWitness(
                    x, part, pieces, u, v, zigzag(part, u, v), frozenset({x}) | part | up_x
                )
            result = decompose(part)
            if isinstance(result, NonForestWitness):
                return result
            children.append(result)
            upsets.append(upset)
        return DecompositionNode(x, tuple(children), tuple(upsets))

    roots = []
    for part in parts(range(len(poset))):
        result = decompose(part)
        if isinstance(result, NonForestWitness):
            return result
        roots.append(result)
    return ForestCertificate(tuple(roots))


class CertificateMismatch(DiagramError):
    pass


@dataclass
class Pushout:
    apex: tuple[str, ...]
    left: PartialInjection
    right: PartialInjection


def pushout_inj(f: PartialInjection, g: PartialInjection) -> Pushout:
    """Pushout of two total injections with a common source.

    The apex is the disjoint union of the targets with f(a) glued to g(a);
    both legs are injective and agree on the image of the common source.
    """
    if set(f.source) != set(g.source):
        raise CarrierMismatch("pushout requires a common source carrier")
    if not (f.is_total and g.is_total):
        raise CarrierMismatch("pushout requires total injections")
    nodes = [("l", b) for b in f.target] + [("r", c) for c in g.target]
    index = {node: k for k, node in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in f.source:
        i, j = find(index[("l", f(a))]), find(index[("r", g(a))])
        if i != j:
            parent[max(i, j)] = min(i, j)

    groups: dict[int, list[int]] = {}
    for k in range(len(nodes)):
        groups.setdefault(find(k), []).append(k)
    label_of: dict[int, str] = {}
    labels = []
    for members in sorted(groups.values(), key=min):
        side, elem = nodes[members[0]]
        label = f"{side}:{elem}"
        labels.append(label)
        for k in members:
            label_of[k] = label
    left = PartialInjection(
        f.target, labels, {b: label_of[index[("l", b)]] for b in f.target}
    )
    right = PartialInjection(
        g.target, labels, {c: label_of[index[("r", c)]] for c in g.target}
    )
    return Pushout(tuple(labels), left, right)


def poset_of_shape(shape: FinCategory) -> FinPoset:
    """Interpret a poset-shaped category as a FinPoset over its objects."""
    if not is_preorder(shape):
        raise CertificateMismatch("shape has parallel morphisms")
    pairs = [(m.dom, m.cod) for m in shape.morphisms]
    try:
        return FinPoset(shape.objects, pairs)
    except Exception as exc:
        raise CertificateMismatch(f"shape is not a poset: {exc}") from exc


def _hom_single(shape: FinCategory, x: int, y: int) -> int:
    hom = shape.hom(x, y)
    if len(hom) != 1:
        raise CertificateMismatch(
            f"expected exactly one morphism {shape.objects[x]} -> {shape.objects[y]}"
        )
    return hom[0]


def build_cocone_forest(diagram: FinInjDiagram, cert: ForestCertificate) -> Cocone:
    """Constructive cocone over a certified forest-like poset shape.

    The independent reference for the colimit cocone of ``has_cocone``.  Tree
    nodes are amalgamated bottom-up: the carriers of the children's
    cocones are glued over the carrier of the adjoined point by iterated
    binary pushouts, then trees are combined by disjoint union.  The result
    is validated against the diagram before it is returned.
    """
    shape = diagram.shape
    poset = poset_of_shape(shape)
    if not verify_certificate(poset, cert):
        raise CertificateMismatch("certificate does not replay to the shape poset")

    def build(node):
        x = node.point
        apex = list(diagram.carrier(x))
        anchor = PartialInjection.identity(apex)
        child_embeddings: list[PartialInjection] = []
        child_legs: list[dict[int, dict[str, str]]] = []
        for k, (child, upset) in enumerate(zip(node.children, node.upsets)):
            sub_apex, sub_legs = build(child)
            rep = min(upset)
            step = diagram.action(_hom_single(shape, x, rep))
            attach = PartialInjection(
                diagram.carrier(x),
                sub_apex,
                {e: sub_legs[rep][step[e]] for e in diagram.carrier(x)},
            )
            if k == 0:
                apex = list(sub_apex)
                anchor = attach
                child_embeddings.append(PartialInjection.identity(sub_apex))
            else:
                po = pushout_inj(anchor, attach)
                apex = list(po.apex)
                anchor = po.left.after(anchor)
                child_embeddings = [
                    po.left.after(emb) for emb in child_embeddings
                ]
                child_embeddings.append(po.right)
            child_legs.append(sub_legs)
        legs = {x: dict(anchor.mapping)}
        for emb, sub_legs in zip(child_embeddings, child_legs):
            for obj, leg in sub_legs.items():
                legs[obj] = {e: emb(v) for e, v in leg.items()}
        return tuple(apex), legs

    apex_labels: list[str] = []
    legs_by_obj: dict[int, dict[str, str]] = {}
    for t, root in enumerate(cert.roots):
        sub_apex, sub_legs = build(root)
        tag = {a: f"t{t}:{a}" for a in sub_apex}
        apex_labels.extend(tag[a] for a in sub_apex)
        for obj, leg in sub_legs.items():
            legs_by_obj[obj] = {e: tag[v] for e, v in leg.items()}

    rename = {a: f"c{k}" for k, a in enumerate(sorted(apex_labels))}
    apex = tuple(rename[a] for a in sorted(apex_labels))
    legs = tuple(
        {e: rename[v] for e, v in legs_by_obj.get(obj, {}).items()}
        for obj in range(len(shape.objects))
    )
    cocone = cocone_from_labels(diagram, apex, legs)
    validate_cocone(diagram, cocone)
    return cocone


def cocone_from_labels(diagram: FinInjDiagram, apex, legs) -> Cocone:
    """A cocone given by label dicts, as the position rows of ``Cocone``.  An
    element a leg misses is left out of its row and a label outside the apex
    becomes position len(apex), so ``validate_cocone`` still sees the fault."""
    apex = tuple(apex)
    slot = {a: k for k, a in enumerate(apex)}
    rows = tuple(
        tuple(slot.get(leg[e], len(apex)) for e in diagram.carrier(obj) if e in leg)
        for obj, leg in enumerate(legs)
    )
    return Cocone(apex, rows)


# -- label-keyed references for the integer-indexed diagram layer ------------

def reference_validate_diagram(shape: FinCategory | FinPoset, carriers, actions) -> None:
    """The checks of ``validate_diagram`` over label sets and dicts, in the
    same order: it raises the same exception for the same first fault.
    An identity whose action is ``None`` acts as the identity; ``None`` for
    any other morphism is not defined on its carrier.  Functoriality is
    checked over the whole composition table; a poset's is the table of
    ``category_from_poset``."""
    carriers = [tuple(c) for c in carriers]
    if len(carriers) != len(shape.objects):
        raise CarrierMismatch("one carrier per object required")
    if len(actions) != len(shape.morphisms):
        raise CarrierMismatch("one action per morphism required")
    actions = [None if a is None else dict(a) for a in actions]
    for i, c in enumerate(carriers):
        if len(set(c)) != len(c):
            raise CarrierMismatch(f"carrier of {shape.objects[i]} has duplicate labels")
    for x, i in enumerate(shape.identity):
        if actions[i] is None:
            actions[i] = {e: e for e in carriers[x]}
    for i, m in enumerate(shape.morphisms):
        act = actions[i]
        dom, cod = set(carriers[m.dom]), set(carriers[m.cod])
        if act is None or set(act) != dom:
            raise CarrierMismatch(f"action of {m.name} is not defined on exactly its carrier")
        if not set(act.values()) <= cod:
            raise CarrierMismatch(f"action of {m.name} leaves the target carrier")
        if len(set(act.values())) != len(act):
            raise NotInjective(f"action of {m.name} is not injective")
    for x, i in enumerate(shape.identity):
        if any(actions[i][e] != e for e in carriers[x]):
            raise FunctorialityViolation(
                f"identity of {shape.objects[x]} does not act as the identity"
            )
    table = (category_from_poset(shape) if isinstance(shape, FinPoset) else shape).table
    for (g, f), r in table.items():
        af, ag, ar = actions[f], actions[g], actions[r]
        for e in carriers[shape.morphisms[f].dom]:
            if ag[af[e]] != ar[e]:
                raise FunctorialityViolation(
                    f"({shape.morphisms[g].name}, {shape.morphisms[f].name}) "
                    f"does not commute at element {e}"
                )


def reference_validate_cocone(diagram: FinInjDiagram, cocone: Cocone) -> None:
    """The checks of ``validate_cocone`` with commutation scanned over every
    non-identity morphism in index order: the same exception for the same
    first fault."""
    shape, legs = diagram.shape, cocone.legs
    if len(legs) != len(shape.objects):
        raise CarrierMismatch("one leg per object required")
    for obj, leg in enumerate(legs):
        if len(leg) != len(diagram.carriers[obj]):
            raise CarrierMismatch(f"leg of {shape.objects[obj]} is not total on its carrier")
        if any(not 0 <= k < len(cocone.apex) for k in leg):
            raise CarrierMismatch(f"leg of {shape.objects[obj]} leaves the apex")
        if len(set(leg)) != len(leg):
            raise NotInjective(f"leg of {shape.objects[obj]} is not injective")
    for i, m in enumerate(shape.morphisms):
        if shape.is_identity(i):
            continue
        for p, q in enumerate(diagram.maps[i]):
            if legs[m.cod][q] != legs[m.dom][p]:
                raise FunctorialityViolation(
                    f"leg does not commute with {m.name} at element "
                    f"{diagram.carriers[m.dom][p]}"
                )


@dataclass
class ReferenceColimit:
    classes: tuple[frozenset[tuple[int, str]], ...]
    injective: tuple[bool, ...]
    collision: tuple[int, str, str] | None
    zigzag: tuple[tuple[tuple[int, str], ...], tuple[tuple[int, bool], ...]] | None


def reference_colimit(diagram: FinInjDiagram) -> ReferenceColimit:
    """Union-find over (object, label) nodes, classes ordered by first node,
    the first collision carrier by carrier and a BFS zigzag for it: the
    colimit as it was computed before nodes became integers."""
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
        action = diagram.action(i)
        for e in diagram.carrier(m.dom):
            a = find(index[(m.dom, e)])
            b = find(index[(m.cod, action[e])])
            if a != b:
                parent[max(a, b)] = min(a, b)

    groups: dict[int, list[int]] = {}
    for k in range(len(nodes)):
        groups.setdefault(find(k), []).append(k)
    classes = tuple(
        frozenset(nodes[k] for k in members)
        for members in sorted(groups.values(), key=min)
    )
    class_of = {node: ci for ci, cl in enumerate(classes) for node in cl}

    injective = []
    collision = None
    for obj in range(len(shape.objects)):
        seen: dict[int, str] = {}
        ok = True
        for e in diagram.carrier(obj):
            ci = class_of[(obj, e)]
            if ci in seen:
                ok = False
                if collision is None:
                    collision = (obj, seen[ci], e)
                break
            seen[ci] = e
        injective.append(ok)

    zigzag = None
    if collision is not None:
        obj, x, y = collision
        zigzag = reference_zigzag(diagram, (obj, x), (obj, y))
    return ReferenceColimit(classes, tuple(injective), collision, zigzag)


def reference_zigzag(diagram: FinInjDiagram, start, goal):
    """BFS over single-merge edges from start to goal in the element graph,
    neighbours visited in the order of their string form."""
    shape = diagram.shape
    adj: dict[tuple[int, str], list] = {}
    for i, m in enumerate(shape.morphisms):
        if shape.is_identity(i):
            continue
        action = diagram.action(i)
        for e in diagram.carrier(m.dom):
            a = (m.dom, e)
            b = (m.cod, action[e])
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
    nodes_path = [goal]
    steps = []
    while prev[nodes_path[-1]] is not None:
        node, step = prev[nodes_path[-1]]
        nodes_path.append(node)
        steps.append(step)
    nodes_path.reverse()
    steps.reverse()
    return tuple(nodes_path), tuple(steps)
