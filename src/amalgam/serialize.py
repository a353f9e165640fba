"""JSON document formats for categories, posets, diagrams, cocones and verdicts.

One structured-text family covers every artifact; the exact grammar is
documented in the README.  Loaders validate as they parse and raise
ParseError with the offending field.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .decide import CertificateEvidence, Verdict
from .diagram import Cocone, FinInjDiagram, validate_diagram
from .fincat import CategoryError, FinCategory, validate_category
from .invcat import FinInverseCategory, validate_inverse
from .poset import (
    DecompositionNode,
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    NotAPartialOrder,
)


class ParseError(Exception):
    pass


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing field '{key}'")
    return doc[key]


def load_document(path: str | Path) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError(f"{path}: document must be an object with a 'type' field")
    return doc


# -- categories ------------------------------------------------------------

def category_from_doc(doc: dict) -> FinCategory:
    try:
        return validate_category(
            {
                "objects": _require(doc, "objects", "category"),
                "morphisms": doc.get("morphisms", []),
                "compose": doc.get("compose", []),
            }
        )
    except CategoryError as exc:
        raise ParseError(f"category: {exc}") from exc


def category_to_doc(cat: FinCategory | FinPoset) -> dict:
    """A category document; a poset is written out as its category."""
    return {
        "type": "category",
        "objects": list(cat.objects),
        "morphisms": [
            {
                "name": m.name,
                "dom": cat.objects[m.dom],
                "cod": cat.objects[m.cod],
            }
            for i, m in enumerate(cat.morphisms)
            if not cat.is_identity(i)
        ],
        "compose": sorted(
            (cat.morphisms[g].name, cat.morphisms[f].name, cat.morphisms[r].name)
            for g, f, r in cat.composites()
        ),
    }


# -- posets ----------------------------------------------------------------

def poset_from_doc(doc: dict) -> FinPoset:
    elements = _require(doc, "elements", "poset")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ParseError("poset: elements must be a list of string names")
    index = {name: i for i, name in enumerate(elements)}
    covers = []
    for pair in doc.get("covers", []):
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ParseError(f"poset: covers must be [low, high] pairs: {pair!r}") from None
        if not (isinstance(a, str) and isinstance(b, str)):
            raise ParseError(f"poset: covers must be pairs of element names: {pair!r}")
        if a not in index or b not in index:
            raise ParseError(f"poset: cover [{a}, {b}] references unknown elements")
        covers.append((index[a], index[b]))
    try:
        return FinPoset.from_covers(elements, covers)
    except NotAPartialOrder as exc:
        raise ParseError(f"poset: {exc}") from exc


def poset_to_doc(poset: FinPoset) -> dict:
    return {
        "type": "poset",
        "elements": list(poset.elements),
        "covers": sorted(
            [poset.elements[a], poset.elements[b]] for a, b in poset.cover_pairs()
        ),
    }


def shape_from_doc(doc: dict) -> FinCategory | FinPoset:
    """A shape is either a category document or a poset document; a poset
    stays a FinPoset, which names its arrows only when they are used."""
    kind = doc.get("type")
    if kind == "category":
        return category_from_doc(doc)
    if kind == "poset":
        return poset_from_doc(doc)
    raise ParseError(f"expected a category or poset document, got '{kind}'")


def load_shape(path: str | Path) -> FinCategory | FinPoset:
    return shape_from_doc(load_document(path))


# -- inverse categories ----------------------------------------------------

def inverse_from_doc(doc: dict) -> FinInverseCategory:
    cat = category_from_doc(doc)
    inv = validate_inverse(cat)
    declared = doc.get("pinv")
    if declared is not None:
        for fname, gname in declared.items():
            if fname not in cat.mor_index or gname not in cat.mor_index:
                raise ParseError(f"pinv: unknown morphism in '{fname}': '{gname}'")
            if inv.pinv[cat.mor_index[fname]] != cat.mor_index[gname]:
                raise ParseError(
                    f"pinv: declared pseudoinverse of {fname} does not match"
                )
    return inv


def inverse_to_doc(inv: FinInverseCategory) -> dict:
    doc = category_to_doc(inv.base)
    doc["pinv"] = {
        m.name: inv.base.morphisms[inv.pinv[i]].name
        for i, m in enumerate(inv.base.morphisms)
        if not inv.base.is_identity(i)
    }
    return doc


# -- diagrams ----------------------------------------------------------------

def shape_path(shape_field: str, base_dir: Path | None) -> Path:
    """The file a diagram's ``shape`` path names, relative to the diagram's
    directory."""
    path = Path(shape_field)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return path


def _shape_of(shape_field, base_dir: Path | None) -> FinCategory | FinPoset:
    if isinstance(shape_field, str):
        return load_shape(shape_path(shape_field, base_dir))
    if isinstance(shape_field, dict):
        return shape_from_doc(shape_field)
    raise ParseError("diagram: shape must be a path or an inline document")


def diagram_from_doc(
    doc: dict, base_dir: Path | None = None, shape: FinCategory | FinPoset | None = None
) -> FinInjDiagram:
    """The diagram a document describes.  ``shape``, when given, is the
    already parsed shape its ``shape`` field names."""
    shape_field = _require(doc, "shape", "diagram")
    if shape is None:
        shape = _shape_of(shape_field, base_dir)
    carriers_field = doc.get("carriers", {})
    if not isinstance(carriers_field, dict):
        raise ParseError("diagram: carriers must map object names to element lists")
    for name, labels in carriers_field.items():
        if name not in shape.obj_index:
            raise ParseError(f"diagram: carrier for unknown object '{name}'")
        if not isinstance(labels, list) or not set(map(type, labels)) <= {str}:
            raise ParseError(
                f"diagram: carrier of '{name}' must be a list of string labels"
            )
    carriers = [carriers_field.get(name, ()) for name in shape.objects]
    actions_field = doc.get("actions", {})
    if not isinstance(actions_field, dict):
        raise ParseError("diagram: actions must map morphism names to pair lists")
    for name in actions_field:
        if name not in shape.mor_index:
            raise ParseError(f"diagram: action for unknown morphism '{name}'")

    def as_mapping(name, pairs):
        """The pairs as a dict; each must be a list [x, y], each x once.  A
        document built in memory, as the writers build it, may hold tuples."""
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
                    raise ParseError(
                        f"diagram: action of '{name}' lists source {x!r} twice"
                    )
                seen.add(x)
        return action

    actions = []
    for i, m in enumerate(shape.morphisms):
        if shape.is_identity(i):
            pairs = actions_field.get(m.name)
            action = None if pairs is None else as_mapping(m.name, pairs)
        else:
            if m.name not in actions_field:
                raise ParseError(f"diagram: missing action for morphism '{m.name}'")
            action = as_mapping(m.name, actions_field[m.name])
        actions.append(action)
    return validate_diagram(shape, carriers, actions)


def diagram_to_doc(diagram: FinInjDiagram) -> dict:
    """Each action as its sorted [element, image] pairs, read off its row."""
    shape, carriers = diagram.shape, diagram.carriers
    return {
        "type": "diagram",
        "shape": poset_to_doc(shape) if isinstance(shape, FinPoset) else category_to_doc(shape),
        "carriers": {
            shape.objects[i]: list(c) for i, c in enumerate(carriers)
        },
        "actions": {
            m.name: sorted(zip(carriers[m.dom], map(carriers[m.cod].__getitem__, row)))
            for i, (m, row) in enumerate(zip(shape.morphisms, diagram.maps))
            if not shape.is_identity(i)
        },
    }


def load_diagram(path: str | Path) -> FinInjDiagram:
    path = Path(path)
    return diagram_from_doc(load_document(path), base_dir=path.parent)


# -- cocones, certificates, witnesses, verdicts ------------------------------

def cocone_to_doc(diagram: FinInjDiagram, cocone: Cocone) -> dict:
    """The legs as [element, apex label] pairs: the only place the position
    rows of a cocone are turned into labels.  The pairs are tuples, which
    the encoder writes as arrays."""
    shape, apex = diagram.shape, cocone.apex
    return {
        "type": "cocone",
        "apex": list(apex),
        "legs": {
            shape.objects[i]: sorted(zip(diagram.carriers[i], map(apex.__getitem__, leg)))
            for i, leg in enumerate(cocone.legs)
        },
    }


def _node_to_doc(root: DecompositionNode, poset: FinPoset) -> dict:
    """The nested tree document, built top-down on an explicit stack: each
    node's document is made empty of children and filled in from below."""
    name = poset.elements

    def shell(node: DecompositionNode) -> dict:
        return {
            "point": name[node.point],
            "upsets": [sorted(name[e] for e in upset) for upset in node.upsets],
            "children": [],
        }

    doc = shell(root)
    stack = [(root, doc)]
    while stack:
        node, out = stack.pop()
        for child in node.children:
            child_doc = shell(child)
            out["children"].append(child_doc)
            stack.append((child, child_doc))
    return doc


def certificate_to_doc(cert: ForestCertificate, poset: FinPoset) -> dict:
    return {
        "type": "forest-certificate",
        "trees": [_node_to_doc(root, poset) for root in cert.roots],
    }


def witness_to_doc(witness: NonForestWitness, poset: FinPoset) -> dict:
    name = poset.elements
    return {
        "type": "non-forest-witness",
        "minimal_element": name[witness.x],
        "component": sorted(name[e] for e in witness.component),
        "upset_components": [
            sorted(name[e] for e in part) for part in witness.upset_components
        ],
        "separated": [name[witness.u], name[witness.v]],
        "zigzag": [name[e] for e in witness.zigzag],
        "region": sorted(name[e] for e in witness.region),
    }


def verdict_to_doc(verdict: Verdict) -> dict:
    doc = {
        "type": "verdict",
        "usc": verdict.usc,
        "connected": verdict.connected,
        "amalgamable_ap_jep": verdict.amalgamable_ap_jep,
        "amalgamable_ap_only": verdict.amalgamable_ap_only,
        "trace": list(verdict.trace),
    }
    ev = verdict.evidence
    if isinstance(ev, CertificateEvidence):
        doc["evidence"] = {
            "kind": "certificate",
            "certificate": certificate_to_doc(ev.certificate, ev.analysis.skeleton),
        }
    else:
        evidence = {
            "kind": ev.reason,
            "diagram": diagram_to_doc(ev.diagram),
            "collision": {
                "object": ev.diagram.shape.objects[ev.collision.obj],
                "elements": [ev.collision.x, ev.collision.y],
            },
        }
        if ev.reason == "parallel-pair":
            refl = ev.analysis.reflection
            evidence["parallel_pair"] = [
                refl.morphisms[ev.parallel_pair[0]].name,
                refl.morphisms[ev.parallel_pair[1]].name,
            ]
        else:
            evidence["witness"] = witness_to_doc(ev.witness, ev.analysis.skeleton)
        doc["evidence"] = evidence
    return doc


def _nesting(doc) -> int:
    """Levels of lists and objects nested in a JSON value."""
    depth, level = 0, [doc]
    while level:
        level = [v for v in level if isinstance(v, (dict, list))]
        depth += bool(level)
        level = [w for v in level for w in (v.values() if isinstance(v, dict) else v)]
    return depth


def dump(doc: dict) -> str:
    """One line of compact JSON with sorted keys, written by the C encoder.
    The encoder recurses once per level, so a document nested past the
    recursion limit raises ValueError, naming its depth."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    except RecursionError:
        raise ValueError(
            f"cannot write a document nested {_nesting(doc)} levels deep as JSON "
            f"(recursion limit {sys.getrecursionlimit()})"
        ) from None
