"""Shared builders, independent test oracles, and the acceptance summary hook."""

from __future__ import annotations

import argparse
import contextlib
import io
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from amalgam import category, corpus
from amalgam.cli import HANDLERS, RunConfig
from amalgam.decide import Verdict
from amalgam.diagram import (
    CarrierMismatch,
    Cocone,
    CoconeResult,
    ColimitResult,
    Collision,
    DiagramError,
    FinInjDiagram,
    FunctorialityViolation,
    NotInjective,
    ShapeAnalysis,
    ZigzagWord,
    validate_cocone,
    validate_diagram,
)
from amalgam.fincat import (
    AssociativityViolation,
    DomCodMismatch,
    FinCategory,
    IdentityViolation,
    MissingComposite,
    Morphism,
    PresentationError,
    _Closure,
    is_preorder,
)
from amalgam.poset import (
    DecompositionNode,
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    PosetError,
    _members,
    _preorder,
    _same_forest,
    verify_certificate,
    witness_points,
)
from oracles import action, components, is_total, minimal
from pinj import PartialInjection

ACCEPTANCE_LINES: list[str] = []


def corpus_names() -> list[str]:
    """The names of the bundled corpus entries, sorted: the stems of the
    JSON files beside the corpus module."""
    return sorted(p.stem for p in Path(corpus.__file__).with_name("corpus").glob("*.json"))


def total_elements(diagram: FinInjDiagram) -> int:
    return sum(len(c) for c in diagram.carriers)


def related(class_map, a: int, b: int) -> bool:
    """Whether a class map puts morphisms a and b in one class."""
    return class_map[a] == class_map[b]


def classes_of(class_map) -> tuple[frozenset[int], ...]:
    """The classes of a class map, by class id, as sets of morphisms."""
    groups: list[set[int]] = [set() for _ in range(max(class_map, default=-1) + 1)]
    for i, k in enumerate(class_map):
        groups[k].add(i)
    return tuple(map(frozenset, groups))


def pytest_addoption(parser):
    parser.addoption(
        "--wide", action="store_true",
        help="also run the tests marked wide: the same checks over many more examples",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "wide: a wider bound, run only with --wide")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--wide"):
        return
    opt_in = pytest.mark.skip(reason="a wider bound: run with --wide")
    for item in items:
        if "wide" in item.keywords:
            item.add_marker(opt_in)


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
    return FinPoset(
        ["A", "B", "C", "D"], [(2, 0), (2, 1), (3, 0), (3, 1)]
    )


def chain(n):
    return FinPoset([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


@st.composite
def dags(draw, max_size=12):
    """(poset, covers, subset): a random DAG whose index order is shuffled."""
    n = draw(st.integers(0, max_size))
    order = draw(st.permutations(range(n)))
    edges = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=3 * n))
    covers = [(order[a], order[b]) for a, b in edges if a < b < n]
    subset = draw(st.frozensets(st.integers(0, n - 1), max_size=n)) if n else frozenset()
    return FinPoset([f"e{i}" for i in range(n)], covers), covers, subset


def boat_poset():
    """Bowtie with one extra bottom element below everything."""
    return FinPoset(
        ["A", "B", "C", "D", "E"],
        [(4, 2), (4, 3), (2, 0), (2, 1), (3, 0), (3, 1)],
    )


def span_poset():
    return FinPoset(["p", "a", "b"], [(0, 1), (0, 2)])


def crown_poset():
    """Six elements whose comparability graph is a hexagon."""
    return FinPoset(
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
        for c in sorted(_members(poset.up_masks[b])):
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


def naive_check_axioms(objects, morphisms, table) -> None:
    """Reference category check: every loop runs over all morphisms, and the
    identity of object x is morphism x.

    Raises the exception the library's indexed check must raise, with the
    same message, on the same presentation.
    """
    n_obj = len(objects)
    n_mor = len(morphisms)
    if len(set(objects)) != n_obj:
        raise PresentationError("object names must be distinct")
    if len({m.name for m in morphisms}) != n_mor:
        raise PresentationError("morphism names must be distinct")
    if n_mor < n_obj:
        raise PresentationError("one identity per object required")
    for m in morphisms:
        if not (0 <= m.dom < n_obj and 0 <= m.cod < n_obj):
            raise PresentationError(f"morphism {m.name} references unknown objects")
    for x in range(n_obj):
        m = morphisms[x]
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
        left = table[(mf.cod, f)]
        right = table[(f, mf.dom)]
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


def is_monic(cat) -> bool:
    """Left cancellation: the quotient by the discrete partition is monic."""
    return quotient_is_monic(cat, [[m] for m in range(len(cat.morphisms))])


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
        for x in minimal(poset, region):
            up_x = _members(poset.up_masks[x])
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
    must reproduce node for node and witness for witness, once ``as_masks``
    has turned its sets into masks (small posets only).  A witness comes
    paired with its (u, v, zigzag, region), as ``with_points`` pairs the
    package's.
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
                points = (u, v, zigzag(part, u, v), frozenset({x}) | part | up_x)
                return NonForestWitness(x, part, pieces), points
            result = decompose(part)
            if not isinstance(result, DecompositionNode):
                return result
            children.append(result)
            upsets.append(upset)
        return DecompositionNode(x, tuple(children), tuple(upsets))

    roots = []
    for part in parts(range(len(poset))):
        result = decompose(part)
        if not isinstance(result, DecompositionNode):
            return result
        roots.append(result)
    return ForestCertificate(tuple(roots))


def with_points(poset: FinPoset, result):
    """A decision with a witness paired with its ``witness_points``, as the
    recursive reference pairs its own."""
    if isinstance(result, NonForestWitness):
        return result, witness_points(poset, result)
    return result


def mask(subset) -> int:
    """The bitmask of a set of element indices."""
    return sum(1 << i for i in set(subset))


def members(mask: int) -> frozenset[int]:
    """The element indices of a bitmask."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def as_masks(result):
    """The reference's frozenset evidence in the masks ``is_forest_like``
    keeps: every set becomes its bitmask (small posets only)."""
    if not isinstance(result, ForestCertificate):
        w, (u, v, zigzag, region) = result
        pieces = tuple(map(mask, w.upset_components))
        return NonForestWitness(w.x, mask(w.component), pieces), (u, v, zigzag, mask(region))

    def node(n: DecompositionNode) -> DecompositionNode:
        return DecompositionNode(
            n.point, tuple(map(node, n.children)), tuple(map(mask, n.upsets))
        )

    return ForestCertificate(tuple(map(node, result.roots)))


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
    if not (is_total(f) and is_total(g)):
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
        apex = list(diagram.carriers[x])
        anchor = PartialInjection.identity(apex)
        child_embeddings: list[PartialInjection] = []
        child_legs: list[dict[int, dict[str, str]]] = []
        for k, (child, upset) in enumerate(zip(node.children, node.upsets)):
            sub_apex, sub_legs = build(child)
            rep = (upset & -upset).bit_length() - 1  # the least member
            step = action(diagram, _hom_single(shape, x, rep))
            attach = PartialInjection(
                diagram.carriers[x],
                sub_apex,
                {e: sub_legs[rep][step[e]] for e in diagram.carriers[x]},
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
        tuple(slot.get(leg[e], len(apex)) for e in diagram.carriers[obj] if e in leg)
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
    for x, c in enumerate(carriers):
        if actions[x] is None:
            actions[x] = {e: e for e in c}
    for i, m in enumerate(shape.morphisms):
        act = actions[i]
        dom, cod = set(carriers[m.dom]), set(carriers[m.cod])
        if act is None or set(act) != dom:
            raise CarrierMismatch(f"action of {m.name} is not defined on exactly its carrier")
        if not set(act.values()) <= cod:
            raise CarrierMismatch(f"action of {m.name} leaves the target carrier")
        if len(set(act.values())) != len(act):
            raise NotInjective(f"action of {m.name} is not injective")
    for x, c in enumerate(carriers):
        if any(actions[x][e] != e for e in c):
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
        for e in diagram.carriers[obj]
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
        act = action(diagram, i)
        for e in diagram.carriers[m.dom]:
            a = find(index[(m.dom, e)])
            b = find(index[(m.cod, act[e])])
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
        for e in diagram.carriers[obj]:
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
        act = action(diagram, i)
        for e in diagram.carriers[m.dom]:
            a = (m.dom, e)
            b = (m.cod, act[e])
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


# -- the table-and-label paths, references for the row paths -----------------

def reference_element_zigzag(diagram, offsets, class_ids, obj, start, goal):
    """The zigzag as it was found over a full adjacency: every action step
    between nodes of the collision's class, scanned morphism by morphism in
    index order, then a BFS."""
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


def reference_collision(diagram: FinInjDiagram) -> tuple[Collision, tuple] | None:
    """The first collision of the colimit, carrier by carrier, beside the
    reference zigzag's nodes and steps: union-find over every morphism's
    action."""
    shape, carriers = diagram.shape, diagram.carriers
    offsets = [0]
    for c in carriers:
        offsets.append(offsets[-1] + len(c))
    parent = list(range(offsets[-1]))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    for i, m in enumerate(shape.morphisms):
        for a, q in enumerate(diagram.maps[i], offsets[m.dom]):
            ra, rb = find(a), find(offsets[m.cod] + q)
            parent[max(ra, rb)] = min(ra, rb)
    class_ids = [find(k) for k in range(len(parent))]
    for obj, c in enumerate(carriers):
        first: dict[int, int] = {}
        for y, k in enumerate(class_ids[offsets[obj]:offsets[obj + 1]]):
            x = first.setdefault(k, y)
            if x != y:
                nodes, steps = reference_element_zigzag(
                    diagram, offsets, class_ids, obj, offsets[obj] + x, offsets[obj] + y
                )
                return Collision(obj, c[x], c[y]), (nodes, steps)
    return None


def reference_witness(shape, analysis):
    """The cocone-free diagram as it was synthesized from label dicts, with
    its collision and the collision's zigzag: (diagram, (collision, zigzag))."""
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
            mi = proj[i]
            actions.append(
                {
                    refl.morphisms[g].name: refl.morphisms[refl.compose(mi, g)].name
                    for g in hom_from_a[m.dom]
                }
            )
    else:
        poset, smap, w = analysis.skeleton, analysis.skeleton_map, analysis.forest
        up_x = poset.up_masks[w.x]
        two_sided = (w.component | up_x) & ~(1 << w.x)
        zero_side = w.upset_components[0] | up_x & ~w.component & ~(1 << w.x)

        def carrier_for(v: int) -> tuple[str, ...]:
            if v == w.x:
                return ("*",)
            return ("0", "1") if two_sided >> v & 1 else ()

        carriers = [carrier_for(smap[obj]) for obj in range(len(shape.objects))]
        actions = []
        for i, m in enumerate(shape.morphisms):
            vx, vy = smap[m.dom], smap[m.cod]
            if shape.is_identity(i):
                actions.append(None)
            elif vx == vy:
                actions.append({e: e for e in carrier_for(vx)})
            elif vx == w.x:
                actions.append({"*": "0" if zero_side >> vy & 1 else "1"})
            else:
                actions.append({e: e for e in carrier_for(vx)})
    diagram = validate_diagram(shape, carriers, actions)
    return diagram, reference_collision(diagram)


def congruence_close(cat: FinCategory, seeds) -> tuple[int, ...]:
    """Class map of the least congruence containing the seed pairs of
    parallel morphisms, by the package's closure: the seeds merged, then
    propagated."""
    closure = _Closure(cat)
    for a, b in seeds:
        closure.merge(a, b)
    closure.propagate()
    return closure.class_map()


def reference_congruence_close(cat: FinCategory, seeds) -> list[frozenset[int]]:
    """Least congruence containing the seeds, as its classes by least
    member: union-find, each merge propagated through the table."""
    parent = list(range(len(cat.morphisms)))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    pending = deque()

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            pending.append((a, b))

    for a, b in seeds:
        union(a, b)
    while pending:
        a, b = pending.popleft()
        for g in cat.hom_out[cat.morphisms[a].cod]:
            union(cat.table[(g, a)], cat.table[(g, b)])
        for g in cat.hom_in[cat.morphisms[a].dom]:
            union(cat.table[(a, g)], cat.table[(b, g)])
    groups: dict[int, set[int]] = {}
    for i in range(len(parent)):
        groups.setdefault(find(i), set()).add(i)
    return sorted(map(frozenset, groups.values()), key=min)


def reference_monic_reflection(cat: FinCategory) -> list[frozenset[int]]:
    """Classes of the least congruence with a monic quotient: rounds that
    merge the members of a hom-set that some h does not tell apart, each
    re-closed from the discrete partition."""
    pairs: list[tuple[int, int]] = []
    classes = reference_congruence_close(cat, [])
    while True:
        class_of = {i: k for k, cl in enumerate(classes) for i in cl}
        fresh = []
        for (_, cod), homs in cat.hom_sets.items():
            for h in cat.hom_out[cod]:
                leader: dict[int, int] = {}
                for f in homs:
                    first = leader.setdefault(class_of[cat.table[(h, f)]], f)
                    if class_of[first] != class_of[f]:
                        fresh.append((first, f))
        if not fresh:
            return classes
        pairs.extend(fresh)
        classes = reference_congruence_close(cat, pairs)


@st.composite
def concrete_categories(draw, max_morphisms=40):
    """A random concrete category: one to three sets of at most 3 elements,
    some functions between them, and every composite, with identities.
    A function is a tuple of images; a morphism is (dom, cod, function)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = len(sizes)
    generators = draw(
        st.lists(
            st.integers(0, n - 1).flatmap(
                lambda dom: st.integers(0, n - 1).flatmap(
                    lambda cod: st.tuples(
                        st.just(dom),
                        st.just(cod),
                        st.tuples(*[st.integers(0, sizes[cod] - 1)] * sizes[dom]),
                    )
                )
            ),
            max_size=4,
        )
    )
    morphisms = [(x, x, tuple(range(sizes[x]))) for x in range(n)]
    known = set(morphisms)
    fresh = [m for m in generators if m not in known]
    while fresh:
        m = fresh.pop()
        if m in known:
            continue
        known.add(m)
        morphisms.append(m)
        if len(morphisms) > max_morphisms:
            assume(False)
        for other in list(morphisms):
            for g, f in ((m, other), (other, m)):
                if f[1] == g[0]:
                    composite = (f[0], g[1], tuple(g[2][v] for v in f[2]))
                    if composite not in known:
                        fresh.append(composite)
    index = {m: k for k, m in enumerate(morphisms)}
    names = [f"id_x{x}" for x in range(n)] + [f"m{k}" for k in range(n, len(morphisms))]
    arrows = [(names[k], f"x{d}", f"x{c}") for k, (d, c, _) in enumerate(morphisms) if k >= n]
    compose = [
        (names[index[g]], names[index[f]],
         names[index[(f[0], g[1], tuple(g[2][v] for v in f[2]))]])
        for g in morphisms[n:] for f in morphisms[n:] if f[1] == g[0]
    ]
    return category([f"x{x}" for x in range(n)], arrows, compose)


# -- the argparse command line, a reference for cli.parse_args ----------------

def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI was built on: ``COMMAND [INPUTS...]`` and
    four options.  ``parse_args`` rejects an input after an option;
    ``parse_intermixed_args`` accepts options anywhere."""
    parser = argparse.ArgumentParser(prog="amalgam")
    parser.add_argument("command", choices=sorted(HANDLERS))
    parser.add_argument("inputs", nargs="*")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-size", type=int, default=64)
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    return parser


def reference_config(argv, intermixed: bool = False):
    """The RunConfig the reference parser reads from argv, "help" for a
    help request, or "exit 2" where it (or the positive --max-size rule
    applied after it) rejects argv."""
    parser = reference_parser()
    parse = parser.parse_intermixed_args if intermixed else parser.parse_args
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "exit 2"
    if args.max_size <= 0:
        return "exit 2"
    return RunConfig(args.command, tuple(args.inputs), args.out, args.seed,
                     args.max_size, args.format)


# -- the records as dataclasses ------------------------------------------------
#
# The record classes of `src/` as they were defined with `dataclasses`,
# hand-written methods included.  Tests convert an instance to its reference
# (`as_reference`) and require the same repr, equality and hashing.  Each
# reference class keeps the qualified name of the class it stands for, so
# that the two reprs compare as text.


@dataclass
class ReferenceRunConfig:
    __qualname__ = "RunConfig"
    command: str
    inputs: tuple[str, ...]
    out: str | None
    seed: int
    max_size: int
    format: str


@dataclass
class ReferenceVerdict:
    __qualname__ = "Verdict"
    connected: bool
    analysis: object
    diagram: FinInjDiagram | None
    trace: tuple[str, ...]


@dataclass(frozen=True)
class ReferenceCollision:
    __qualname__ = "Collision"
    obj: int
    x: str
    y: str


@dataclass
class ReferenceColimitResult:
    __qualname__ = "ColimitResult"
    diagram: FinInjDiagram
    ids: tuple[tuple[int, ...], ...]
    count: int
    collision: Collision | None


@dataclass
class ReferenceCocone:
    __qualname__ = "Cocone"
    apex: tuple[str, ...]
    legs: tuple[tuple[int, ...], ...]


@dataclass
class ReferenceCoconeResult:
    __qualname__ = "CoconeResult"
    cocone: object
    colimit: object


@dataclass(frozen=True)
class ReferenceZigzagWord:
    __qualname__ = "ZigzagWord"
    source: int
    steps: tuple[tuple[int, bool], ...]


@dataclass
class ReferenceShapeAnalysis:
    __qualname__ = "ShapeAnalysis"
    shape: object
    reflection: object
    projection: object
    parallel_pair: tuple[int, int] | None
    skeleton: FinPoset | None
    skeleton_map: tuple[int, ...] | None
    forest: object


@dataclass(frozen=True)
class ReferenceMorphism:
    __qualname__ = "Morphism"
    name: str
    dom: int
    cod: int


@dataclass(frozen=True, eq=False, repr=False)
class ReferenceDecompositionNode:
    __qualname__ = "DecompositionNode"
    point: int
    children: tuple
    upsets: tuple[int, ...]

    def __eq__(self, other):
        if not isinstance(other, ReferenceDecompositionNode):
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


@dataclass(frozen=True, eq=False)
class ReferenceForestCertificate:
    __qualname__ = "ForestCertificate"
    roots: tuple

    def __eq__(self, other):
        if not isinstance(other, ReferenceForestCertificate):
            return NotImplemented
        return _same_forest(self.roots, other.roots)

    def __hash__(self):
        return hash(tuple(_preorder(self.roots)))


@dataclass(frozen=True, repr=False)
class ReferenceNonForestWitness:
    __qualname__ = "NonForestWitness"
    x: int
    component: int
    upset_components: tuple[int, ...]

    def __repr__(self):
        pieces = ", ".join(map(hex, self.upset_components))
        return (
            f"NonForestWitness(x={self.x}, component={self.component:#x}, "
            f"upset_components=[{pieces}])"
        )


REFERENCE_RECORDS = {
    RunConfig: ReferenceRunConfig,
    Verdict: ReferenceVerdict,
    Collision: ReferenceCollision,
    ColimitResult: ReferenceColimitResult,
    Cocone: ReferenceCocone,
    CoconeResult: ReferenceCoconeResult,
    ZigzagWord: ReferenceZigzagWord,
    ShapeAnalysis: ReferenceShapeAnalysis,
    Morphism: ReferenceMorphism,
    DecompositionNode: ReferenceDecompositionNode,
    ForestCertificate: ReferenceForestCertificate,
    NonForestWitness: ReferenceNonForestWitness,
}


def record_fields(record) -> dict:
    """A record's fields by name, in the order of its reference's fields."""
    return {f.name: getattr(record, f.name) for f in fields(REFERENCE_RECORDS[type(record)])}


def as_reference(value):
    """The value with every record in it, at any depth of records, tuples
    and lists, replaced by its reference dataclass."""
    if type(value) in REFERENCE_RECORDS:
        reference = REFERENCE_RECORDS[type(value)]
        return reference(**{k: as_reference(v) for k, v in record_fields(value).items()})
    if type(value) in (tuple, list):
        return type(value)(map(as_reference, value))
    return value


def replaced_witness(w: NonForestWitness, **changes) -> NonForestWitness:
    """A witness built from w's fields, with the given ones changed."""
    return NonForestWitness(**{**record_fields(w), **changes})
