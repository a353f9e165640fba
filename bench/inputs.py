"""Seeded input generators for the benchmark workloads.

Every input is a JSON document built here, never by ``amalgam.gen``: a later
change to the package's own generators must not change what is measured.
Each operation carries the exit code it must produce.  Where the family fixes
the verdict (chains, adjoin-a-point forests, left-zero monoids, Z_n, diagrams
with a global cocone, disjoint unions with a crown witness) the code follows
from the construction; otherwise it is the verdict recorded at the commit the
benchmark was written against, kept in ``expected.json`` and regenerated by
``record.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("shapes", "diagrams")

# Corpus entries that are category documents; bowtie_diagram is a diagram.
CORPUS_CATEGORIES = (
    "bowtie",
    "inverse_iso_pair",
    "inverse_null",
    "inverse_pinj2",
    "inverse_z2",
)


@dataclass
class Op:
    """One call of ``amalgam.cli.main``.

    ``argv`` names input files by key in ``files``; the runner writes them to
    a scratch directory and substitutes real paths.  ``check`` selects the
    output checker and ``subject`` names the document it checks against.
    """

    argv: tuple[str, ...]
    files: dict[str, dict]
    expected: int
    check: str
    subject: str
    label: str


# -- posets as up-set bitmasks -------------------------------------------------

def close_up(n: int, covers) -> list[int]:
    """Reflexive-transitive closure of cover pairs as up-set bitmasks."""
    up = [1 << i for i in range(n)]
    for a, b in covers:
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for a in range(n):
            acc = up[a]
            rest = acc & ~(1 << a)
            while rest:
                low = rest & -rest
                acc |= up[low.bit_length() - 1]
                rest ^= low
            if acc != up[a]:
                up[a] = acc
                changed = True
    return up


def cover_pairs(up: list[int]) -> list[tuple[int, int]]:
    n = len(up)
    out = []
    for a in range(n):
        strict = up[a] & ~(1 << a)
        for b in range(n):
            if strict >> b & 1:
                between = strict & ~(1 << b)
                if not any(between >> c & 1 and up[c] >> b & 1 for c in range(n)):
                    out.append((a, b))
    return out


def _canonical(up: tuple[int, ...]) -> tuple[int, ...]:
    """Least relabeled up-mask tuple over the arrangements that keep the
    (up-size, down-size) profile sorted.  Isomorphisms preserve the profile,
    so this is a canonical form; its cost limits it to small posets."""
    n = len(up)
    down = [sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]
    key = [(bin(up[i]).count("1"), bin(down[i]).count("1")) for i in range(n)]
    order = sorted(range(n), key=lambda i: key[i])
    groups: list[list[int]] = []
    for i in order:
        if groups and key[groups[-1][0]] == key[i]:
            groups[-1].append(i)
        else:
            groups.append([i])

    def arrangements(k: int):
        if k == len(groups):
            yield []
            return
        for perm in permutations(groups[k]):
            for rest in arrangements(k + 1):
                yield list(perm) + rest

    best = None
    for placed in arrangements(0):
        pos = {old: new for new, old in enumerate(placed)}
        rel = tuple(
            sum(1 << pos[j] for j in range(n) if up[old] >> j & 1) for old in placed
        )
        if best is None or rel < best:
            best = rel
    return best


def canonical_key(up) -> str:
    return f"{len(up)}:" + ",".join(f"{m:x}" for m in _canonical(tuple(up)))


def all_posets(max_size: int) -> list[tuple[int, ...]]:
    """One up-mask tuple per isomorphism class, sizes 0..max_size.

    Each class of size n is reached by adjoining a new maximal element above
    an order ideal of a poset of size n - 1.
    """
    layer = [()]
    out = [()]
    for n in range(1, max_size + 1):
        seen = set()
        fresh = []
        for up in layer:
            m = n - 1
            down = [sum(1 << j for j in range(m) if up[j] >> i & 1) for i in range(m)]
            for ideal in range(1 << m):
                if any(ideal >> i & 1 and down[i] & ~ideal for i in range(m)):
                    continue
                new = tuple(
                    up[i] | (1 << m if ideal >> i & 1 else 0) for i in range(m)
                ) + (1 << m,)
                canon = _canonical(new)
                if canon not in seen:
                    seen.add(canon)
                    fresh.append(canon)
        out.extend(fresh)
        layer = fresh
    return out


def _names(rng: random.Random, n: int, prefix: str) -> list[str]:
    tags = list(range(n))
    rng.shuffle(tags)
    return [f"{prefix}{t}" for t in tags]


def poset_doc(up: list[int], rng: random.Random, prefix: str = "v") -> dict:
    """Poset document with seeded names and a seeded listing order."""
    n = len(up)
    names = _names(rng, n, prefix)
    order = list(range(n))
    rng.shuffle(order)
    covers = [[names[a], names[b]] for a, b in cover_pairs(up)]
    rng.shuffle(covers)
    return {"type": "poset", "elements": [names[i] for i in order], "covers": covers}


def poset_as_category(up: list[int], names: list[str], arrow) -> dict:
    """A poset as a category document: one named arrow per strict pair a < b."""
    n = len(up)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and up[a] >> b & 1]
    morphisms = [{"name": arrow(a, b), "dom": names[a], "cod": names[b]} for a, b in pairs]
    compose = [
        [arrow(b, c), arrow(a, b), arrow(a, c)]
        for a, b in pairs
        for c in range(n)
        if c != b and up[b] >> c & 1
    ]
    return {"type": "category", "objects": list(names), "morphisms": morphisms,
            "compose": compose}


# -- families ------------------------------------------------------------------

def chain(n: int) -> list[int]:
    return close_up(n, [(i, i + 1) for i in range(n - 1)])


def sparse_dag(n: int, rng: random.Random) -> list[int]:
    """Random DAG order: each element covers at most two earlier ones."""
    covers = []
    for b in range(1, n):
        r = rng.random()
        k = 0 if r < 0.2 else 1 if r < 0.75 else 2
        for a in rng.sample(range(b), min(k, b)):
            covers.append((a, b))
    return close_up(n, covers)


def adjoin_forest(n: int, rng: random.Random) -> list[int]:
    """Forest-like by construction: each new point is adjoined below one
    principal up-set (connected and upward-closed) in each of up to two
    existing trees, which it joins into one tree."""
    up: list[int] = []
    trees: list[int] = []  # element bitmask of each tree
    for p in range(n):
        k = min(len(trees), 0 if rng.random() < 0.15 else 1 if rng.random() < 0.6 else 2)
        chosen = rng.sample(range(len(trees)), k)
        mask = 1 << p
        members = 1 << p
        for t in chosen:
            elems = [i for i in range(p) if trees[t] >> i & 1]
            mask |= up[rng.choice(elems)]
            members |= trees[t]
        up.append(mask)
        trees = [m for i, m in enumerate(trees) if i not in chosen] + [members]
    return up


def cyclic_group(n: int, rng: random.Random) -> dict:
    """Z_n as a one-object category; every element but 0 is a named arrow."""
    names = ["id_X"] + _names(rng, n - 1, "r")
    arrows = list(range(1, n))
    rng.shuffle(arrows)
    return {
        "type": "category",
        "objects": ["X"],
        "morphisms": [{"name": names[k], "dom": "X", "cod": "X"} for k in arrows],
        "compose": [[names[a], names[b], names[(a + b) % n]] for a in arrows for b in arrows],
    }


def left_zero_monoid(k: int, rng: random.Random) -> dict:
    """k left zeros (g . f = g) plus the identity: the monic reflection
    collapses every arrow, so the shape is amalgamable."""
    names = _names(rng, k, "z")
    return {
        "type": "category",
        "objects": ["X"],
        "morphisms": [{"name": m, "dom": "X", "cod": "X"} for m in names],
        "compose": [[g, f, g] for g in names for f in names],
    }


def crown(k: int) -> list[int]:
    """2k-crown: minimal x_i below maximal y_i and y_{i+1}; not forest-like."""
    covers = [(i, k + i) for i in range(k)] + [(i, k + (i + 1) % k) for i in range(k)]
    return close_up(2 * k, covers)


def disjoint(a: list[int], b: list[int]) -> list[int]:
    shift = len(a)
    return list(a) + [m << shift for m in b]


# -- diagrams ------------------------------------------------------------------

def global_diagram(up: list[int], elements: int, pool: random.Random,
                   rng: random.Random, tag: str):
    """Carriers are monotone subsets of one universe, relabeled per object, so
    the universe itself is a cocone.  Each point of the universe lies over
    the up-sets of two objects drawn from ``pool``; points are added until
    the carriers hold ``elements`` elements.  ``rng`` draws the labels.
    Returns (carriers, actions) by index."""
    n = len(up)
    carriers: list[list[str]] = [[] for _ in range(n)]
    label: list[dict[int, str]] = [{} for _ in range(n)]
    total = u = 0
    while total < elements:
        over = up[pool.randrange(n)] | up[pool.randrange(n)]
        for p in range(n):
            if over >> p & 1:
                label[p][u] = ""
                total += 1
        u += 1
    for p in range(n):
        members = list(label[p])
        rng.shuffle(members)
        for k, u in enumerate(members):
            label[p][u] = f"{tag}{k}"
        carriers[p] = sorted(label[p].values())
    actions = {
        (a, b): {label[a][u]: label[b][u] for u in label[a]}
        for a in range(n)
        for b in range(n)
        if a != b and up[a] >> b & 1
    }
    return carriers, actions


def crown_witness(k: int, n: int):
    """Cocone-free diagram on a 2k-crown at indices 0..2k-1 of an n-element
    shape, empty elsewhere: x_0 carries one point sent to 0 in y_0 and to 1
    in y_1; the rest of the crown carries {0, 1} with identity actions, so
    0 and 1 of y_0 are glued.  Returns (carriers, actions) by index."""
    carriers = [["w*"]] + [["w0", "w1"]] * (2 * k - 1) + [[]] * (n - 2 * k)
    actions = {(0, k): {"w*": "w0"}, (0, k + 1): {"w*": "w1"}}
    for i in range(1, k):
        for j in (i, (i + 1) % k):
            actions[(i, k + j)] = {"w0": "w0", "w1": "w1"}
    return carriers, actions


def union(first, second):
    """Disjoint union of two diagrams with disjoint labels over one shape."""
    carriers = [a + b for a, b in zip(first[0], second[0])]
    actions = {key: {**first[1].get(key, {}), **second[1].get(key, {})}
               for key in first[1].keys() | second[1].keys()}
    return carriers, actions


def diagram_docs(up: list[int], carriers, actions, rng: random.Random):
    """Shape (category document) and diagram document with seeded names."""
    n = len(up)
    names = _names(rng, n, "o")

    def arrow(a: int, b: int) -> str:
        return f"{names[a]}_{names[b]}"

    shape = poset_as_category(up, names, arrow)
    diagram = {
        "type": "diagram",
        "shape": shape,
        "carriers": {names[p]: list(carriers[p]) for p in range(n)},
        "actions": {
            arrow(a, b): sorted([x, y] for x, y in act.items())
            for (a, b), act in actions.items()
        },
    }
    return shape, diagram


# -- workloads -----------------------------------------------------------------

def recorded() -> dict:
    """Exit codes recorded by ``record.py``, by workload and input key."""
    return json.loads(EXPECTED_FILE.read_text())


def _check(name: str, doc: dict, expected: int, label: str) -> Op:
    return Op(("check", name, "--format", "structured"), {name: doc}, expected,
              "verdict", name, label)


def poset_sweep(rng: random.Random, smoke: bool, table: dict) -> list[Op]:
    ops = []
    for k, up in enumerate(all_posets(4 if smoke else 6)):
        key = canonical_key(up)
        ops.append(_check(f"p{k}.json", poset_doc(list(up), rng), table[key], key))
    return ops


# Pool of sparse random DAG orders: (size, pool seed).  The pool is fixed so
# that its verdicts could be recorded; the run seed relabels and reorders.
DAG_POOL = tuple((12 + (i * 7) % 29, 1000 + i) for i in range(24))
CHAIN_SIZES = (12, 16, 20, 24, 28, 32, 36, 40)
# Forests likewise come from fixed pool seeds: how many pairs a forest
# orders, and so the size of its composition table, must not vary with the
# run seed.
FOREST_POOL = tuple((12 + (i * 5) % 29, 1100 + i) for i in range(14))


def large_posets(rng: random.Random, smoke: bool, table: dict) -> list[Op]:
    chains = (5, 7) if smoke else CHAIN_SIZES
    forests = ((6, 1100), (8, 1101)) if smoke else FOREST_POOL
    pool = DAG_POOL[:2] if smoke else DAG_POOL
    ops = []
    for n in chains:
        ops.append(_check(f"chain{n}.json", poset_doc(chain(n), rng), 0, f"chain {n}"))
    for i, (n, pool_seed) in enumerate(forests):
        up = adjoin_forest(n, random.Random(pool_seed))
        ops.append(_check(f"forest{i}.json", poset_doc(up, rng), 0, f"forest {n}"))
    for n, pool_seed in pool:
        up = sparse_dag(n, random.Random(pool_seed))
        key = f"dag-{n}-{pool_seed}"
        ops.append(_check(f"{key}.json", poset_doc(up, rng), table[key], key))
    return ops


Z_SIZES = (8, 12, 16, 20, 24, 28, 32, 36, 40)


def monoids(rng: random.Random, smoke: bool, table: dict, corpus_dir: Path) -> list[Op]:
    sizes = (3, 4) if smoke else Z_SIZES
    ops = []
    for n in sizes:
        ops.append(_check(f"z{n}.json", cyclic_group(n, rng), 1, f"Z_{n}"))
        ops.append(_check(f"lz{n}.json", left_zero_monoid(n - 1, rng), 0, f"left-zero {n}"))
    for name in CORPUS_CATEGORIES:
        doc = json.loads((corpus_dir / f"{name}.json").read_text())
        ops.append(_check(f"{name}.json", doc, table[name], name))
    return ops


# Carrier elements per diagram, one round each.  Each round's shape and the
# universe of its diagrams come from a fixed pool seed, so a run seed changes
# the labels and the order but not the amount of work.  28 rounds of four
# operations give 112 latency samples, at least ten beyond the 90th
# percentile.
DIAGRAM_SIZES = tuple(300 + 97 * i for i in range(28))
SHAPE_POOL_SEED = 2000


def diagrams(rng: random.Random, smoke: bool) -> list[Op]:
    """Per round: a forest shape with a cocone and an oracle call on the same
    diagram, an oracle call on a diagram with a global cocone over a crown
    shape, and an oracle call on crown-witness + global diagram (no cocone).
    Sizes, shapes and universes are fixed per round; seeds differ in the
    labels."""
    sizes = (20, 40) if smoke else DIAGRAM_SIZES
    ops = []
    for r, elements in enumerate(sizes):
        pool = random.Random(SHAPE_POOL_SEED + r)
        n = 4 + r % 5
        up = adjoin_forest(n, pool)
        glob = global_diagram(up, elements, pool, rng, "g")
        shape, diagram = diagram_docs(up, *glob, rng)
        s, d = f"f{r}-shape.json", f"f{r}-diagram.json"
        ops.append(Op(("cocone", s, d), {s: shape, d: diagram}, 0, "cocone", d,
                      f"cocone forest {n}"))
        ops.append(Op(("oracle", d), {d: diagram}, 0, "oracle", d, f"oracle forest {n}"))

        k = 2 + r % 2
        up = disjoint(crown(k), sparse_dag(r % (9 - 2 * k), pool))
        n = len(up)
        glob = global_diagram(up, elements, pool, rng, "g")
        _, diagram = diagram_docs(up, *glob, rng)
        d = f"c{r}-diagram.json"
        ops.append(Op(("oracle", d), {d: diagram}, 0, "oracle", d, f"oracle crown {n}"))
        _, diagram = diagram_docs(up, *union(glob, crown_witness(k, n)), rng)
        d = f"w{r}-diagram.json"
        ops.append(Op(("oracle", d), {d: diagram}, 1, "oracle", d, f"oracle witness {n}"))
    return ops


def build(workload: str, seed: int, smoke: bool, corpus_dir: Path) -> list[Op]:
    """The workload's operations for this seed, in a seeded order.

    ``shapes`` is the ``check`` traffic: the poset sweep, the large posets and
    the monoids, one family each, in one input set.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "shapes":
        table = recorded()
        ops = (poset_sweep(rng, smoke, table["poset-sweep"])
               + large_posets(rng, smoke, table["large-posets"])
               + monoids(rng, smoke, table["monoids"], corpus_dir))
    elif workload == "diagrams":
        ops = diagrams(rng, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
