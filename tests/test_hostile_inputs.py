"""Hostile inputs: one structural mutation of a document the tool reads or
writes, run in process through every command that reads its type.

The documents mutated are the corpus, ``gen`` output, and the diagrams that
``witness`` and ``gen diagram`` write.  A mutation drops a key, retypes a
value, repeats a key, nests a value deeper, puts a 5001-digit integer,
``NaN`` or ``Infinity`` in place of a value, lengthens a string, puts a
lone surrogate in one, or swaps or clashes two names.  Mutations that a
dict cannot hold are made in the JSON text.

The contract, for every command that reads the mutant:
- the exit code is 0, 1 or 2, and no exception escapes ``cli.main``;
- on exit 2, stdout is empty, stderr is one ``error:`` line of under 300
  bytes, and ``--out`` is neither created nor changed;
- ``validate`` refuses the mutant exactly when every other reader does.
Two refusals are not reading faults: a forest-like poset whose arrow names
clash is read by ``check`` and ``explain``, which name no arrows on it (a
refuted one exits 2: its witness diagram names every arrow), and ``gen
diagram`` refuses a valid shape whose monic reflection is not a preorder.

Run with ``--wide`` for 10,000 examples.
"""

import contextlib
import io
import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from amalgam import cli, corpus, serialize
from conftest import corpus_names

HOLE = "@@hostile@@"  # stands for raw JSON text in a document until it is dumped
PALETTE = (None, True, 0, -1, 2.5, "", "x", [], {}, [[]], {"x": []})
MUTATIONS = ("drop", "retype", "repeat", "nest", "digits", "constant", "long",
             "surrogate", "swap", "clash")
SHAPE_READERS = ("check", "explain", "witness", "gen diagram", "cocone", "oracle")
ARROW_CLASH = "error: morphism name '"
NOT_A_PREORDER = "error: gen diagram: the monic reflection is not a preorder\n"
KEPT = b"kept\n"


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def seeds() -> tuple[tuple[str, dict], ...]:
    """(origin, document) for each document mutated."""
    out = [(name, serialize.load_document(corpus.resolve(name))) for name in corpus_names()]
    for argv in (["gen", "poset", "6", "--seed", "0"], ["gen", "forest", "6", "--seed", "1"],
                 ["gen", "nonforest", "6", "--seed", "2"], ["witness", "boat"],
                 ["witness", "bowtie"], ["witness", "nonforest6"], ["witness", "inverse_z2"],
                 ["gen", "diagram", "span"], ["gen", "diagram", "fan"],
                 ["gen", "diagram", "inverse_iso_pair"], ["gen", "diagram", "inverse_null"]):
        code, stdout, _ = run(argv)
        assert code == 0, argv
        out.append((" ".join(argv), json.loads(stdout)))
    return tuple(out)


def nodes(doc, path=()):
    """(path, value) of every value in the document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, (*path, key))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    """The document with the value at path, which may be the root."""
    if not path:
        return value
    at(doc, path[:-1])[path[-1]] = value
    return doc


def rename_key(doc, path, old: str, new: str):
    node = at(doc, path)
    return put(doc, path, {new if k == old else k: v for k, v in node.items()})


def mutate(data, doc) -> tuple[str, str]:
    """One mutation of a copy of the document: its name and the JSON text."""

    def pick(options, label):
        return data.draw(st.sampled_from(options), label=label)

    doc = json.loads(json.dumps(doc))
    kind = pick(MUTATIONS, "mutation")
    found = list(nodes(doc))
    inner = [p for p, _ in found if p]
    objects = [p for p, v in found if isinstance(v, dict) and v]
    strings = [p for p, v in found if isinstance(v, str)]
    keys = [(p, k) for p in objects for k in at(doc, p)]
    raw = None
    if kind == "drop":
        path = pick(objects, "object")
        del at(doc, path)[pick(sorted(at(doc, path)), "key")]
    elif kind == "retype":
        path = pick(inner, "path")
        old = at(doc, path)
        doc = put(doc, path, pick([v for v in PALETTE if type(v) is not type(old)], "value"))
    elif kind == "repeat":
        path = pick(objects, "object")
        node = at(doc, path)
        key = pick(sorted(node), "key")
        pairs = list(node.items())
        pairs.insert(data.draw(st.integers(0, len(pairs)), label="place"),
                     (key, pick([node[key], *PALETTE], "value")))
        raw = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    elif kind == "nest":
        path = pick(inner, "path")
        depth = pick([1, 2, 3, 5000], "depth")
        opener, closer = pick([("[", "]"), ('{"n": ', "}")], "container")
        raw = opener * depth + json.dumps(at(doc, path)) + closer * depth
    elif kind == "digits":
        path = pick(inner, "path")
        raw = pick(["", "-"], "sign") + "1" * 5001
    elif kind == "constant":
        path = pick(inner, "path")
        raw = pick(["NaN", "Infinity", "-Infinity"], "constant")
    elif kind in ("long", "surrogate"):
        targets = [(p, None) for p in strings] + keys
        path, key = pick(targets, "string")
        old = at(doc, path) if key is None else key
        if kind == "long":
            new = old + "z" * 100_000
        else:
            i = data.draw(st.integers(0, len(old)), label="place")
            new = old[:i] + "\ud800" + old[i:]
        doc = put(doc, path, new) if key is None else rename_key(doc, path, key, new)
    else:  # swap, clash
        p = pick(strings, "name")
        q = pick([s for s in strings if at(doc, s) != at(doc, p)] or [p], "other")
        assume(p != q)
        a, b = at(doc, p), at(doc, q)
        doc = put(doc, p, b)
        if kind == "swap":
            doc = put(doc, q, a)
    if raw is None:
        return kind, json.dumps(doc)
    return kind, json.dumps(put(doc, path, HOLE)).replace(json.dumps(HOLE), raw, 1)


def arrow_actions(path: Path) -> dict:
    """An empty action for each non-identity arrow of the shape at path, or
    none when it does not read: an empty diagram over the shape."""
    if run(["validate", str(path)])[0] != 0:
        return {}
    shape = serialize.load_shape(path)
    return {name: [] for i, name in enumerate(shape.arrow_names) if not shape.is_identity(i)}


def check_run(work: Path, argv: list[str], keep: bool) -> tuple[int, str]:
    """Run argv with ``--out``, holding the contract; exit code and stderr."""
    out = work / "out.json"
    if keep:
        out.write_bytes(KEPT)
    elif out.exists():
        out.unlink()
    code, stdout, stderr = run([*argv, "--out", str(out)])
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert stdout == "", argv
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr[:300])
        size = len(stderr.encode())
        assert stderr.endswith("\n") and size < 300, (argv, stderr[:300])
        assert (out.read_bytes() == KEPT) if keep else not out.exists(), argv
    return code, stderr


def check_mutant(work: Path, data) -> None:
    origin, seed = data.draw(st.sampled_from(seeds()), label="seed")
    kind, text = mutate(data, seed)
    keep = data.draw(st.booleans(), label="keep --out")
    mutant = work / "mutant.json"
    mutant.write_text(text, encoding="utf-8")
    codes = {}
    if seed["type"] == "diagram":
        codes["validate"], _ = check_run(work, ["validate", str(mutant)], keep)
        shape_doc = seed["shape"]
        if codes["validate"] == 0:
            shape_doc = json.loads(text)["shape"]
        shape = work / "shape.json"
        if isinstance(shape_doc, str):  # a path from the diagram's directory
            shape = work / shape_doc
        else:
            shape.write_text(json.dumps(shape_doc), encoding="utf-8")
        codes["oracle"], _ = check_run(work, ["oracle", str(mutant)], keep)
        codes["cocone"], _ = check_run(work, ["cocone", str(shape), str(mutant)], keep)
        refused = codes["validate"] == 2
        assert all((code == 2) == refused for code in codes.values()), (origin, kind, codes)
        return
    actions = json.dumps(arrow_actions(mutant))
    (work / "over.json").write_text(
        f'{{"type": "diagram", "shape": "mutant.json", "actions": {actions}}}', encoding="utf-8")
    (work / "inline.json").write_text(
        f'{{"type": "diagram", "shape": {text}, "actions": {actions}}}', encoding="utf-8")
    argvs = {
        "check": ["check", str(mutant)], "explain": ["explain", str(mutant)],
        "witness": ["witness", str(mutant)], "gen diagram": ["gen", "diagram", str(mutant)],
        "cocone": ["cocone", str(mutant), str(work / "over.json")],
        "oracle": ["oracle", str(work / "inline.json")],
    }
    validate, message = check_run(work, ["validate", str(mutant)], keep)
    for command in SHAPE_READERS:
        code, stderr = check_run(work, argvs[command], keep)
        if command in ("check", "explain") and message.startswith(ARROW_CLASH):
            continue
        if command == "gen diagram" and validate == 0 and stderr == NOT_A_PREORDER:
            continue
        assert (code == 2) == (validate == 2), (origin, kind, command, code, message, stderr)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("hostile")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_reader_judges_a_mutant_alike(work, data):
    check_mutant(work, data)


@pytest.mark.wide
@settings(max_examples=10_000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_reader_judges_many_mutants_alike(work, data):
    check_mutant(work, data)
