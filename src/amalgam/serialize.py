"""JSON document formats for categories, posets, diagrams, cocones and verdicts.

One structured-text family covers every artifact; the exact grammar is
documented in the README.  Loaders validate as they parse and raise
ParseError with the offending field.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import repeat
from operator import itemgetter

from .decide import Verdict
from .diagram import Cocone, DiagramError, FinInjDiagram, validate_diagram
from .fincat import CategoryError, FinCategory, clip, echo, validate_category
from .invcat import FinInverseCategory, validate_inverse
from .poset import (
    DecompositionNode,
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    NotAPartialOrder,
    lone_surrogate,
    sorted_names,
    witness_points,
)


class ParseError(Exception):
    pass


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing field '{key}'")
    return doc[key]


def _read(path: str | os.PathLike) -> bytes:
    """Every byte of the file at path, through one descriptor read to its
    end.  The first read is sized by fstat, one byte over, so a whole file
    comes in one read and the next returns nothing.  An error names the
    path, as open() does."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, os.fstat(fd).st_size + 1)]
        while chunks[-1]:
            chunks.append(os.read(fd, 1 << 16))
    except OSError as exc:  # a read names no file: a directory, say
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    return chunks[0] if len(chunks) <= 2 else b"".join(chunks)


def _named(path: str | os.PathLike) -> str:
    """The path as an error names it: as pathlib normalises it, clipped."""
    from pathlib import Path

    return clip(Path(path))


def clip_paths(exc: OSError) -> OSError:
    """The error with each path it names clipped as a fault quotes it.  The
    OS's reason stays, and a path of at most 80 characters prints whole."""
    for field in ("filename", "filename2"):
        if isinstance(getattr(exc, field), str):
            setattr(exc, field, clip(getattr(exc, field)))
    return exc


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object, refused when it repeats a key: a dict would
    keep only the key's last value and silently drop the others."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"an object repeats the key '{clip(key)}'")
            seen.add(key)
    return obj


# One decoder for every document: json.loads given a hook builds a new
# decoder on each call, which costs more than the hook itself.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_document(path: str | os.PathLike) -> dict:
    """The JSON object at path, decoded from its bytes as json.loads decodes
    bytes: ``json.detect_encoding`` tells UTF-8, UTF-16 or UTF-32 apart.
    An object that repeats a key is refused.
    Errors name the path as pathlib normalises it, as they do for bytes
    that do not decode and for arrays or objects nested past the decoder's
    recursion limit."""
    try:
        data = _read(path)
        doc = _DECODER.decode(data.decode(json.detect_encoding(data), "surrogatepass"))
    except OSError as exc:
        raise ParseError(f"{_named(path)}: {clip_paths(exc)}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, ParseError) as exc:
        raise ParseError(f"{_named(path)}: {exc}") from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError(f"{_named(path)}: document must be an object with a 'type' field")
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


def category_to_doc(cat: FinCategory) -> dict:
    """A category document.  The compose triples come in name order, g by
    name and then f by name among the arrows into dom g, so no triple is
    sorted; g∘f is read off f's row of composites, ``post[f][place[g]]``."""
    morphisms, objects, post = cat.morphisms, cat.objects, cat.post
    names = [m.name for m in morphisms]
    arrows = [i for i in sorted(range(len(names)), key=names.__getitem__)
              if not cat.is_identity(i)]
    into: list[list[int]] = [[] for _ in objects]  # by name
    for f in arrows:
        into[morphisms[f].cod].append(f)
    name = names.__getitem__
    compose = []
    for g in arrows:
        fs = into[morphisms[g].dom]
        composites = map(itemgetter(cat.place[g]), map(post.__getitem__, fs))
        compose.extend(zip(repeat(names[g]), map(name, fs), map(name, composites)))
    return {
        "type": "category",
        "objects": list(objects),
        "morphisms": [
            {"name": names[i], "dom": objects[m.dom], "cod": objects[m.cod]}
            for i, m in enumerate(morphisms)
            if not cat.is_identity(i)
        ],
        "compose": compose,
    }


# -- posets ----------------------------------------------------------------

def poset_from_doc(doc: dict) -> FinPoset:
    elements = _require(doc, "elements", "poset")
    try:
        if not isinstance(elements, list):
            raise TypeError
        lone = lone_surrogate(elements)
    except TypeError:
        raise ParseError("poset: elements must be a list of string names") from None
    if lone is not None:
        raise ParseError(f"poset: elements may not hold a lone surrogate: '{lone}'")
    index = {name: i for i, name in enumerate(elements)}
    pairs = doc.get("covers", [])
    if not isinstance(pairs, list):
        raise ParseError("poset: covers must be a list of [low, high] pairs")
    covers = []
    sequences = set(map(type, pairs)) <= {list, tuple}  # as in validate_category
    for pair in pairs:
        try:
            a, b = pair if sequences or type(pair) in (list, tuple) else ()
        except (TypeError, ValueError):
            raise ParseError(f"poset: covers must be [low, high] pairs: {echo(pair)}") from None
        if not (isinstance(a, str) and isinstance(b, str)):
            raise ParseError(f"poset: covers must be pairs of element names: {echo(pair)}")
        if a not in index or b not in index:
            raise ParseError(f"poset: cover [{clip(a)}, {clip(b)}] references unknown elements")
        covers.append((index[a], index[b]))
    try:
        return FinPoset(elements, covers)
    except NotAPartialOrder as exc:
        raise ParseError(f"poset: {exc}") from exc


def poset_to_doc(poset: FinPoset) -> dict:
    names = poset.elements
    return {
        "type": "poset",
        "elements": list(names),
        "covers": sorted([names[a], names[b]] for _, a, b in poset.generator_ends),
    }


def shape_from_doc(doc: dict) -> FinCategory | FinPoset:
    """A shape is either a category document or a poset document; a poset
    stays a FinPoset, which names its arrows only when they are used."""
    kind = doc.get("type")
    if kind == "category":
        return category_from_doc(doc)
    if kind == "poset":
        return poset_from_doc(doc)
    raise ParseError(f"expected a category or poset document, got '{clip(kind)}'")


def load_shape(path: str | os.PathLike) -> FinCategory | FinPoset:
    return shape_from_doc(load_document(path))


# -- inverse categories ----------------------------------------------------

def inverse_from_doc(doc: dict) -> FinInverseCategory:
    cat = category_from_doc(doc)
    inv = validate_inverse(cat)
    declared = doc.get("pinv")
    if declared is not None:
        if not isinstance(declared, dict):
            raise ParseError("pinv: must be an object from morphism names to morphism names")
        for fname, gname in declared.items():
            if not isinstance(gname, str) or not {fname, gname} <= cat.mor_index.keys():
                raise ParseError(f"pinv: unknown morphism in '{clip(fname)}': '{clip(gname)}'")
            if inv.pinv[cat.mor_index[fname]] != cat.mor_index[gname]:
                raise ParseError(
                    f"pinv: declared pseudoinverse of {clip(fname)} does not match"
                )
    return inv


# -- diagrams ----------------------------------------------------------------

def shape_path(shape_field: str, base_dir: str | os.PathLike | None):
    """The file a diagram's ``shape`` path names, relative to the diagram's
    directory, as a ``pathlib.Path``."""
    from pathlib import Path

    path = Path(shape_field)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir, path)
    return path


def _shape_of(shape_field, base_dir: str | os.PathLike | None) -> FinCategory | FinPoset:
    if isinstance(shape_field, str):
        return load_shape(shape_path(shape_field, base_dir))
    if isinstance(shape_field, dict):
        return shape_from_doc(shape_field)
    raise ParseError("diagram: shape must be a path or an inline document")


def diagram_from_doc(
    doc: dict, base_dir: str | os.PathLike | None = None, shape: FinCategory | FinPoset | None = None
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
            raise ParseError(f"diagram: carrier for unknown object '{clip(name)}'")
        try:
            if not isinstance(labels, list):
                raise TypeError
            lone = lone_surrogate(labels)
        except TypeError:
            raise ParseError(
                f"diagram: carrier of '{clip(name)}' must be a list of string labels"
            ) from None
        if lone is not None:
            raise ParseError(
                f"diagram: carrier of '{clip(name)}' may not hold a lone surrogate: '{lone}'"
            )
    carriers = [carriers_field.get(name, ()) for name in shape.objects]
    actions_field = doc.get("actions", {})
    if not isinstance(actions_field, dict):
        raise ParseError("diagram: actions must map morphism names to pair lists")
    for name in actions_field:
        if name not in shape.mor_index:
            raise ParseError(f"diagram: action for unknown morphism '{clip(name)}'")
    actions = [actions_field.get(m.name) for m in shape.morphisms]
    try:
        if not all(a is None or _is_pair_list(a) for a in actions):
            raise TypeError("an action is not a list of pairs")
        return validate_diagram(shape, carriers, actions)
    except (DiagramError, TypeError, ValueError):
        _raise_first_format_fault(shape, actions_field)
        raise


def _is_pair_list(pairs) -> bool:
    """The action is a list of lists or tuples: a document built in memory,
    as the writers build it, may hold tuples."""
    return isinstance(pairs, list) and set(map(type, pairs)) <= {list, tuple}


def _raise_first_format_fault(shape: FinCategory | FinPoset, actions_field: dict) -> None:
    """Name the first action, in morphism order, that is missing or is not
    a list of [x, y] pairs listing each source once.  Reached only when
    the actions do not read into a diagram, so a ParseError outranks every
    DiagramError."""
    for i, m in enumerate(shape.morphisms):
        pairs = actions_field.get(m.name)
        if pairs is None and shape.is_identity(i):
            continue
        if m.name not in actions_field:
            raise ParseError(f"diagram: missing action for morphism '{clip(m.name)}'")
        malformed = f"diagram: action of '{clip(m.name)}' must be a list of [x, y] pairs"
        if not _is_pair_list(pairs):
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
                        f"diagram: action of '{clip(m.name)}' lists source {echo(x)} twice"
                    )
                seen.add(x)


def diagram_to_doc(diagram: FinInjDiagram) -> dict:
    """Each action as its sorted [element, image] pairs, read off its row.
    A poset's arrows are named off its masks."""
    shape, carriers, maps = diagram.shape, diagram.carriers, diagram.maps
    if isinstance(shape, FinPoset):
        n = len(shape)  # the identities come first
        shape_doc = poset_to_doc(shape)
        arrows = zip(shape.arrow_names[n:], shape.arrow_ends[n:], maps[n:])
    else:
        shape_doc = category_to_doc(shape)
        arrows = (
            (m.name, (m.dom, m.cod), row)
            for i, (m, row) in enumerate(zip(shape.morphisms, maps))
            if not shape.is_identity(i)
        )
    return {
        "type": "diagram",
        "shape": shape_doc,
        "carriers": {
            shape.objects[i]: list(c) for i, c in enumerate(carriers)
        },
        "actions": {
            name: sorted(zip(carriers[a], map(carriers[b].__getitem__, row))) if row else []
            for name, (a, b), row in arrows
        },
    }


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
            "upsets": [sorted_names(name, upset) for upset in node.upsets],
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
    u, v, zigzag, region = witness_points(poset, witness)
    return {
        "type": "non-forest-witness",
        "minimal_element": name[witness.x],
        "component": sorted_names(name, witness.component),
        "upset_components": [sorted_names(name, part) for part in witness.upset_components],
        "separated": [name[u], name[v]],
        "zigzag": [name[e] for e in zigzag],
        "region": sorted_names(name, region),
    }


def verdict_to_doc(verdict: Verdict) -> dict:
    analysis, diagram = verdict.analysis, verdict.diagram
    doc = {
        "type": "verdict",
        "usc": analysis.usc,
        "connected": verdict.connected,
        "amalgamable_ap_jep": verdict.amalgamable_ap_jep,
        "amalgamable_ap_only": verdict.amalgamable_ap_only,
        "trace": list(verdict.trace),
    }
    if diagram is None:
        doc["evidence"] = {
            "kind": "certificate",
            "certificate": certificate_to_doc(analysis.forest, analysis.skeleton),
        }
        return doc
    col = diagram.collision
    evidence = {
        "kind": "non-forest-poset" if analysis.preorder else "parallel-pair",
        "diagram": diagram_to_doc(diagram),
        "collision": {
            "object": diagram.shape.objects[col.obj],
            "elements": [col.x, col.y],
        },
    }
    if analysis.preorder:
        evidence["witness"] = witness_to_doc(analysis.forest, analysis.skeleton)
    else:
        refl = analysis.reflection
        evidence["parallel_pair"] = [refl.morphisms[i].name for i in analysis.parallel_pair]
    doc["evidence"] = evidence
    return doc


def _nesting(doc) -> int | None:
    """Levels of arrays and objects nested in a JSON value, or None when a
    container holds itself.  Each level keeps one copy of a shared
    container, so a value nested deeper than its count of distinct
    containers has a cycle."""
    depth, level, seen = 0, [doc], set()
    while level:
        level = list({id(v): v for v in level if isinstance(v, (dict, list, tuple))}.values())
        seen.update(map(id, level))
        depth += bool(level)
        if depth > len(seen):
            return None
        level = [w for v in level for w in (v.values() if isinstance(v, dict) else v)]
    return depth


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def dump(doc: dict) -> str:
    """One line of compact JSON with sorted keys, written by the C encoder.

    The writers build trees, so the encoder keeps no cycle markers.  It
    recurses once per level, so a document nested past the recursion limit,
    or one that contains itself, raises ValueError, naming its depth."""
    try:
        return _ENCODER.encode(doc) + "\n"
    except RecursionError:
        depth = _nesting(doc)
        if depth is None:
            raise ValueError("cannot write a document that contains itself as JSON") from None
        raise ValueError(
            f"cannot write a document nested {depth} levels deep as JSON "
            f"(recursion limit {sys.getrecursionlimit()})"
        ) from None
