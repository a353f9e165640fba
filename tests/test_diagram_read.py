"""The diagram reader, ``validate_diagram`` on the document's own pair
lists, against the label-dict reader it replaced
(``oracles.label_diagram_from_doc``): every document, valid or broken,
gives the same exit code, output and fault message through ``cli.main``."""

import contextlib
import io
import json
import operator
import os
import random
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import corpus, gen, serialize
from amalgam.cli import main
from amalgam.diagram import validate_diagram
from amalgam.poset import FinPoset
from oracles import label_diagram_from_doc


def _crown(k: int) -> FinPoset:
    names = [f"x{i}" for i in range(k)] + [f"y{i}" for i in range(k)]
    return FinPoset(names, [(i, k + j) for i in range(k) for j in (i, (i + 1) % k)])


def _twisted(poset: FinPoset, size: int, rng: random.Random):
    """Every carrier holds the same labels and every arrow permutes them: a
    crown has no composites, so this is a diagram, most often cocone-free."""
    labels = tuple(f"t{k}" for k in range(size))
    actions = []
    for i in range(len(poset.morphisms)):
        image = list(labels)
        if not poset.is_identity(i):
            rng.shuffle(image)
        actions.append(dict(zip(labels, image)))
    return validate_diagram(poset, [labels] * len(poset.objects), actions)


def _bowtie_doc() -> dict:
    return serialize.load_document(corpus.resolve("bowtie_diagram"))


def _as_doc(diagram, rng: random.Random) -> dict:
    """The diagram's document, decoded as a command decodes it, with some
    identity actions listed."""
    doc = json.loads(serialize.dump(serialize.diagram_to_doc(diagram)))
    shape = diagram.shape
    for x, carrier in enumerate(diagram.carriers):
        if rng.random() < 0.3:
            doc["actions"][shape.arrow_names[x]] = [[e, e] for e in carrier]
    return doc


@st.composite
def documents(draw):
    """The corpus bowtie diagram, a diagram over a random forest, or one over
    a crown, random or twisted; with an rng for the faults put into it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("bowtie", "forest", "crown", "twisted")))
    if kind == "bowtie":
        return _bowtie_doc(), rng
    if kind == "forest":
        poset = gen.random_forest(draw(st.integers(1, 6)), rng)
        return _as_doc(gen.random_diagram_over_poset(poset, rng, max_extra=3), rng), rng
    crown = _crown(draw(st.integers(2, 4)))
    if kind == "crown":
        return _as_doc(gen.random_diagram_over_poset(crown, rng, max_extra=3), rng), rng
    return _as_doc(_twisted(crown, draw(st.integers(1, 4)), rng), rng), rng


MUTATIONS = (
    "drop", "duplicate", "stringify", "unknown-source", "unknown-image",
    "unhashable-image", "repeat-source", "collide", "swap", "identity", "omit",
    "repeat-label", "empty-object",
)


def _mutate(doc: dict, rng: random.Random, kind: str) -> None:
    """One fault of the kind: a pair dropped, listed twice or written as a
    string; a source or an image outside its carrier, or an image that is a
    list; one source listed for another, so that the count of pairs is
    kept; two sources sent to one image, or two images swapped (an action
    that stays injective but may break a law); an identity listed as a map
    that moves a label; an action left out; a carrier label repeated; every
    carrier emptied and one action written as ``{}`` or ``""``, which no
    other fault then outranks."""
    actions, carriers = doc["actions"], doc["carriers"]
    listed = sorted(name for name, pairs in actions.items() if pairs)
    if kind == "identity":
        x = rng.choice(sorted(carriers))
        labels = carriers[x]
        moved = labels[1:] + labels[:1] if len(labels) > 1 else ["elsewhere"] * len(labels)
        actions[f"id_{x}"] = [[e, y] for e, y in zip(labels, moved)]
    elif kind == "omit" and actions:
        del actions[rng.choice(sorted(actions))]
    elif kind == "empty-object" and actions:
        for x in carriers:
            carriers[x] = []
        for name in actions:
            actions[name] = []
        actions[rng.choice(sorted(actions))] = rng.choice([{}, ""])
    elif kind == "repeat-label":
        x = rng.choice(sorted(carriers))
        if carriers[x]:
            carriers[x].append(rng.choice(carriers[x]))
    elif listed:
        pairs = actions[rng.choice(listed)]
        k = rng.randrange(len(pairs))
        if not (isinstance(pairs[k], list) and len(pairs[k]) == 2):
            return  # a pair broken by an earlier fault
        x, y = pairs[k]
        if kind == "drop":
            del pairs[k]
        elif kind == "duplicate":
            pairs.insert(rng.randrange(len(pairs) + 1), [x, y])
        elif kind == "stringify":
            pairs[k] = f"{x}{y}"
        elif kind == "unknown-source":
            pairs[k] = ["unknown", y]
        elif kind == "unknown-image":
            pairs[k] = [x, "unknown"]
        elif kind == "unhashable-image":
            pairs[k] = [x, [y]]
        elif len(pairs) > 1:
            j = rng.choice([j for j in range(len(pairs)) if j != k])
            if kind == "repeat-source":
                pairs[k] = [pairs[j][0], y]
            elif kind == "collide":
                pairs[k] = [x, pairs[j][1]]
            else:
                pairs[k], pairs[j] = [x, pairs[j][1]], [pairs[j][0], y]


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _both(doc: dict) -> None:
    """``validate`` and ``oracle`` on the document answer as they answer
    with the label-dict reader in ``diagram_from_doc``'s place."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diagram.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        for command in ("validate", "oracle"):
            got = _run([command, path])
            with mock.patch.object(serialize, "diagram_from_doc", label_diagram_from_doc):
                expected = _run([command, path])
            assert got == expected


@settings(max_examples=300, deadline=None)
@given(documents(), st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3))
def test_a_broken_document_is_named_as_the_label_reader_names_it(drawn, kinds):
    doc, rng = drawn
    for kind in kinds:
        _mutate(doc, rng, kind)
    _both(doc)


@settings(max_examples=50, deadline=None)
@given(documents())
def test_a_valid_document_is_read_without_label_dicts(drawn):
    """A valid document is read by one ``validate_diagram`` call on its own
    pair lists, and the format scan, which builds label dicts, is not
    entered; the diagram is the one the label reader reads."""
    doc, _ = drawn
    expected = label_diagram_from_doc(doc)
    with mock.patch.object(serialize, "validate_diagram", wraps=validate_diagram) as read, \
            mock.patch.object(serialize, "_raise_first_format_fault", side_effect=AssertionError):
        assert serialize.diagram_from_doc(doc) == expected
    assert read.call_count == 1
    shape, _, actions = read.call_args.args
    listed = [doc["actions"].get(name) for name in shape.arrow_names]
    assert all(map(operator.is_, actions, listed))
    _both(doc)
