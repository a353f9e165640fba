"""Output checker: re-verifies each output document from its JSON alone.

Nothing here calls into ``amalgam``; the decider is never used to check the
decider.  Each function returns ``None`` for a verified output or a short
reason for the failure.

- A positive verdict's forest certificate is replayed against the order of
  the input (for a category input, the order its objects' reachability
  induces): every up-set is non-empty, connected and upward-closed within
  its child, and the replayed order equals the input order.
- A refutation's witness diagram is re-parsed, its shape must equal the
  input shape, and a union-find colimit of its carriers must glue two
  elements of one carrier.
- A cocone's legs must be total, injective and commuting; a no-cocone
  report's zigzag must join its two elements through the diagram's actions.
"""

from __future__ import annotations


class Rejected(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise Rejected(reason)


def _field(doc, key: str, kind):
    _require(isinstance(doc, dict) and key in doc, f"missing field '{key}'")
    value = doc[key]
    _require(isinstance(value, kind), f"field '{key}' has the wrong type")
    return value


# -- shapes --------------------------------------------------------------------

def _closure(n: int, edges) -> list[int]:
    up = [1 << i for i in range(n)]
    for a, b in edges:
        up[a] |= 1 << b
    for k in range(n):  # Warshall on bitmasks
        bit = 1 << k
        for a in range(n):
            if up[a] & bit:
                up[a] |= up[k]
    return up


def poset_order(doc: dict) -> tuple[list[str], list[int]]:
    names = list(doc["elements"])
    index = {e: i for i, e in enumerate(names)}
    return names, _closure(len(names), [(index[a], index[b]) for a, b in doc["covers"]])


def shape_category(doc: dict) -> tuple[list[str], set, set]:
    """(objects, {(name, dom, cod)}, {(g, f, g.f)}) with identities implicit and
    composites involving an identity left out, for either document type."""
    if doc["type"] == "poset":
        names, up = poset_order(doc)
        above = [[b for b in range(len(names)) if b != a and up[a] >> b & 1]
                 for a in range(len(names))]
        arrow = {(a, b): f"{names[a]}->{names[b]}" for a in range(len(names)) for b in above[a]}
        morphisms = {(nm, names[a], names[b]) for (a, b), nm in arrow.items()}
        compose = {
            (arrow[(b, c)], arrow[(a, b)], arrow[(a, c)])
            for (a, b) in arrow for c in above[b]
        }
        return names, morphisms, compose
    names = list(doc["objects"])
    ids = {f"id_{o}" for o in names}
    morphisms = {(m["name"], m["dom"], m["cod"]) for m in doc.get("morphisms", [])}
    compose = {
        tuple(t) for t in doc.get("compose", []) if t[0] not in ids and t[1] not in ids
    }
    return names, morphisms, compose


def skeleton_order(doc: dict) -> tuple[list[str], list[int]]:
    """Names and up-set bitmasks of the poset the input collapses to: objects
    reachable both ways are merged, each class named by its first object."""
    if doc["type"] == "poset":
        return poset_order(doc)
    names, morphisms, _ = shape_category(doc)
    index = {o: i for i, o in enumerate(names)}
    n = len(names)
    reach = _closure(n, [(index[d], index[c]) for _, d, c in morphisms])
    rep = [min(j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1)
           for i in range(n)]
    reps = sorted(set(rep))
    slot = {r: k for k, r in enumerate(reps)}
    up = [0] * len(reps)
    for i in range(n):
        for j in range(n):
            if reach[i] >> j & 1:
                up[slot[rep[i]]] |= 1 << slot[rep[j]]
    return [names[r] for r in reps], up


def _connected(mask: int, up: list[int]) -> bool:
    if not mask:
        return False
    members = [i for i in range(len(up)) if mask >> i & 1]
    seen = 1 << members[0]
    stack = [members[0]]
    while stack:
        a = stack.pop()
        for b in members:
            if not seen >> b & 1 and (up[a] >> b & 1 or up[b] >> a & 1):
                seen |= 1 << b
                stack.append(b)
    return seen == mask


# -- verdicts ------------------------------------------------------------------

def check_certificate(cert: dict, names: list[str], up: list[int]) -> None:
    index = {e: i for i, e in enumerate(names)}

    def mask_of(elems) -> int:
        _require(isinstance(elems, list), "up-set is not a list")
        out = 0
        for e in elems:
            _require(e in index, f"certificate names unknown element {e!r}")
            out |= 1 << index[e]
        return out

    replayed: dict[int, int] = {}
    # Post-order walk with an explicit stack: subtree element masks come first.
    subtree: dict[int, int] = {}
    stack = [(node, False) for node in _field(cert, "trees", list)]
    while stack:
        node, done = stack.pop()
        children = _field(node, "children", list)
        if not done:
            stack.append((node, True))
            stack.extend((c, False) for c in children)
            continue
        point = _field(node, "point", str)
        _require(point in index, f"certificate names unknown element {point!r}")
        p = index[point]
        _require(p not in replayed, f"element {point} occurs twice")
        upsets = [mask_of(u) for u in _field(node, "upsets", list)]
        _require(len(upsets) == len(children), f"node {point}: one up-set per child")
        rel = 1 << p
        members = 1 << p
        for child, u in zip(children, upsets):
            elems = subtree[id(child)]
            _require(u != 0, f"node {point}: empty up-set")
            _require(u & ~elems == 0, f"node {point}: up-set leaves its child")
            _require(_connected(u, up), f"node {point}: up-set is not connected")
            closed = 0
            for i in range(len(up)):
                if u >> i & 1:
                    closed |= up[i] & elems
            _require(closed == u, f"node {point}: up-set is not upward-closed")
            rel |= u
            members |= elems
        replayed[p] = rel
        subtree[id(node)] = members
    _require(len(replayed) == len(names), "certificate does not cover every element")
    for p, rel in replayed.items():
        _require(rel == up[p], f"replayed order differs from the input at {names[p]}")


def colimit_collision(carriers: dict, actions: dict, morphisms) -> tuple | None:
    """Union-find colimit; the first pair of elements of one carrier it glues."""
    parent: dict = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for name, dom, cod in morphisms:
        for x, y in actions[name].items():
            ra, rb = find((dom, x)), find((cod, y))
            if ra != rb:
                parent[ra] = rb
    for obj, elems in carriers.items():
        seen = {}
        for e in elems:
            root = find((obj, e))
            if root in seen:
                return obj, seen[root], e
            seen[root] = e
    return None


def parse_diagram(doc: dict, shape: tuple) -> tuple[dict, dict]:
    """Carriers and actions of a diagram document over ``shape``, checked for
    totality, injectivity and functoriality."""
    objects, morphisms, compose = shape
    raw = _field(doc, "carriers", dict)
    carriers = {o: list(raw.get(o, [])) for o in objects}
    _require(set(raw) <= set(objects), "carrier for an unknown object")
    for o, elems in carriers.items():
        _require(len(set(elems)) == len(elems), f"carrier of {o} repeats a label")
    raw_actions = _field(doc, "actions", dict)
    actions = {}
    for name, dom, cod in morphisms:
        _require(name in raw_actions, f"no action for {name}")
        act = {x: y for x, y in raw_actions[name]}
        _require(set(act) == set(carriers[dom]), f"action of {name} is not total")
        _require(set(act.values()) <= set(carriers[cod]), f"action of {name} leaves its target")
        _require(len(set(act.values())) == len(act), f"action of {name} is not injective")
        actions[name] = act
    for o in objects:
        actions[f"id_{o}"] = {e: e for e in carriers[o]}
    for g, f, r in compose:
        af, ag, ar = actions[f], actions[g], actions[r]
        _require(all(ag[af[x]] == ar[x] for x in af), f"({g}, {f}) does not commute")
    return carriers, actions


def check_verdict(shape_doc: dict, code: int, out: dict) -> None:
    _require(out.get("type") == "verdict", "output is not a verdict")
    _require(out.get("amalgamable_ap_jep") == (code == 0), "verdict disagrees with exit code")
    evidence = _field(out, "evidence", dict)
    if code == 0:
        _require(evidence.get("kind") == "certificate", "positive verdict without certificate")
        names, up = skeleton_order(shape_doc)
        check_certificate(_field(evidence, "certificate", dict), names, up)
        return
    _require(evidence.get("kind") in ("parallel-pair", "non-forest-poset"),
             "negative verdict without a witness")
    diagram = _field(evidence, "diagram", dict)
    shape = shape_category(shape_doc)
    got = shape_category(_field(diagram, "shape", dict))
    _require(got == shape, "witness shape differs from the input")
    carriers, actions = parse_diagram(diagram, shape)
    _require(colimit_collision(carriers, actions, shape[1]) is not None,
             "witness diagram has a cocone")


# -- cocones -------------------------------------------------------------------

def _diagram_of(diagram_doc: dict):
    shape = shape_category(diagram_doc["shape"])
    carriers, actions = parse_diagram(diagram_doc, shape)
    return shape, carriers, actions


def check_cocone(diagram_doc: dict, code: int, out: dict) -> None:
    _require(code == 0 and out.get("type") == "cocone", "output is not a cocone")
    (_, morphisms, _), carriers, actions = _diagram_of(diagram_doc)
    apex = set(_field(out, "apex", list))
    raw_legs = _field(out, "legs", dict)
    legs = {}
    for obj, elems in carriers.items():
        leg = {x: y for x, y in raw_legs.get(obj, [])}
        _require(set(leg) == set(elems), f"leg of {obj} is not total")
        _require(set(leg.values()) <= apex, f"leg of {obj} leaves the apex")
        _require(len(set(leg.values())) == len(leg), f"leg of {obj} is not injective")
        legs[obj] = leg
    for name, dom, cod in morphisms:
        act = actions[name]
        _require(all(legs[cod][act[x]] == legs[dom][x] for x in act),
                 f"legs do not commute with {name}")


def check_oracle(diagram_doc: dict, code: int, out: dict) -> None:
    if code == 0:
        check_cocone(diagram_doc, code, out)
        return
    _require(out.get("type") == "no-cocone", "output is not a no-cocone report")
    (_, morphisms, _), carriers, actions = _diagram_of(diagram_doc)
    col = _field(out, "collision", dict)
    obj = col.get("object")
    x, y = col.get("elements", [None, None])
    _require(obj in carriers and x in carriers[obj] and y in carriers[obj] and x != y,
             "collision does not name two elements of one carrier")
    path = [tuple(node) for node in _field(col, "zigzag", list)]
    _require(path[:1] == [(obj, x)] and path[-1:] == [(obj, y)],
             "zigzag does not join the colliding elements")
    edges = set()
    for name, dom, cod in morphisms:
        for a, b in actions[name].items():
            edges.add(((dom, a), (cod, b)))
    for a, b in zip(path, path[1:]):
        _require((a, b) in edges or (b, a) in edges, f"zigzag step {a} -> {b} is no action")


CHECKS = {"verdict": check_verdict, "cocone": check_cocone, "oracle": check_oracle}


def verify(kind: str, subject: dict, code: int, out: dict) -> str | None:
    """None when the output re-verifies, otherwise the reason it does not."""
    try:
        CHECKS[kind](subject, code, out)
    except Rejected as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
    return None
