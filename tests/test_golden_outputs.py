"""The CLI's outputs on the corpus, pinned byte for byte.

``golden_outputs.json`` holds, for each invocation below, the sha256 of its
exit code, stdout and stderr.  A change to a writer that moves one byte of
any of them fails here.  To record the digests of a tree, run from the
repository root::

    PYTHONPATH=src python tests/test_golden_outputs.py --write tests/golden_outputs.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from amalgam import corpus, serialize
from amalgam.cli import main
from conftest import category_from_poset, corpus_names

GOLDEN = Path(__file__).with_name("golden_outputs.json")
AMALGAMABLE = (
    "chain3",
    "chain5",
    "cospan",
    "fan",
    "inverse_iso_pair",
    "inverse_null",
    "inverse_pinj2",
    "span",
)
SEEDS = (0, 1, 2)
# The digests ``gen diagram`` gave on the poset corpus shapes while it wrote a
# poset shape out as its category document.  It now writes the poset
# document; the test below rebuilds these bytes from the new ones.
CATEGORY_SHAPED = {
    "gen diagram chain3 --seed 0":
        "348fc52791b1a30c72f8ccf95c33f554894d43f67bbe0861e5b31779922cccd4",
    "gen diagram chain3 --seed 1":
        "59cfaf5a616343835a1527a27069b2792fede022736d7dd953b3dc600ec56218",
    "gen diagram chain3 --seed 2":
        "2e41db77b78d5326c8dd5447909babf519c7f37d7e0d618485092bf48ea5f5c1",
    "gen diagram chain5 --seed 0":
        "db1e9e984dccefa5c9467be334124555347a9e6c7f87dd7aac5f1c761d8b6d4e",
    "gen diagram chain5 --seed 1":
        "4cd5e2216d448005d869c04482b227b92f9fea92271f818708ed3170e47af34b",
    "gen diagram chain5 --seed 2":
        "a165183c9cbeb6d88ac9e46f5227bbbeb51fd6b3542ef3a441d0cfd047c844df",
    "gen diagram cospan --seed 0":
        "bfc38398a7edfd53ef81fc1999146bcab03b94de86735592c0c586cd8cdcc794",
    "gen diagram cospan --seed 1":
        "18a4bddf74598d4645e604171c46beb4efba6948215f752115e227159d7b5710",
    "gen diagram cospan --seed 2":
        "7a3363229be672058530f21e59efb3d0626fc0c0943f5ca351fb3ccd3949ee89",
    "gen diagram fan --seed 0":
        "018bf669a86f33bc30b80e3722f80244db820559b02373c33fb0d0a4a350bb90",
    "gen diagram fan --seed 1":
        "fbc28c3a7c2b35d2726098eada0eb875c3f449243048db14725edbd3b79df34c",
    "gen diagram fan --seed 2":
        "505f6b041d398b35a8e1a42073f14b86dde007fd4b41bbbbba73f7378b13c8e8",
    "gen diagram span --seed 0":
        "4840e43dc18941c99fc586be182dc8d0b72e2424a4caeb7e724db150b864b3b3",
    "gen diagram span --seed 1":
        "93341a69165748b84b7f5c3b78db6410b0186f6e5debc3f6e74a8437fce5b998",
    "gen diagram span --seed 2":
        "81b2c4b2cf06086d4589a9bcf348f901526f964e66bfcbd32c05a1f581334d47",
}


def _run(argv: list[str], scratch: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().replace(scratch, "<dir>"), err.getvalue().replace(
        scratch, "<dir>"
    )


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def golden_outputs() -> dict[str, str]:
    """Digest per invocation: ``check --format structured``, ``witness``,
    ``oracle`` and ``cocone`` (over the corpus diagram) on every corpus
    entry; ``gen diagram`` at each seed on every amalgamable corpus shape,
    with ``cocone`` and ``oracle`` on each generated diagram."""
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in corpus_names():
            for argv in (
                ["check", name, "--format", "structured"],
                ["witness", name],
                ["oracle", name],
                ["cocone", name, "bowtie_diagram"],
            ):
                digests[" ".join(argv)] = _digest(*_run(argv, scratch))
        for name in AMALGAMABLE:
            for seed in SEEDS:
                argv = ["gen", "diagram", name, "--seed", str(seed)]
                code, out, err = _run(argv, scratch)
                digests[" ".join(argv)] = _digest(code, out, err)
                path = Path(scratch, f"{name}-{seed}.json")
                path.write_text(out)
                label = f"<gen diagram {name} --seed {seed}>"
                for argv in (["cocone", name, str(path)], ["oracle", str(path)]):
                    key = " ".join(argv).replace(str(path), label)
                    digests[key] = _digest(*_run(argv, scratch))
    return digests


def test_outputs_match_the_recorded_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_outputs()
    assert sorted(actual) == sorted(expected)
    assert [k for k in expected if actual[k] != expected[k]] == []



def test_gen_diagram_over_a_poset_keeps_the_content_of_its_category_form():
    """``gen diagram`` over each poset corpus shape writes the poset
    document as its ``shape``.  With that shape replaced by the poset's
    category document, each output is byte for byte the document recorded
    when the shape was written as a category: only the shape's form moved."""
    posets = [
        name for name in AMALGAMABLE
        if json.loads(Path(corpus.resolve(name)).read_text())["type"] == "poset"
    ]
    assert sorted(CATEGORY_SHAPED) == sorted(
        f"gen diagram {name} --seed {seed}" for name in posets for seed in SEEDS
    )
    with tempfile.TemporaryDirectory() as scratch:
        for key, digest in CATEGORY_SHAPED.items():
            code, out, err = _run(key.split(), scratch)
            doc = json.loads(out)
            assert doc["shape"]["type"] == "poset", key
            poset = serialize.poset_from_doc(doc["shape"])
            doc["shape"] = serialize.category_to_doc(category_from_poset(poset))
            assert _digest(code, serialize.dump(doc), err) == digest, key


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) != 3:
        raise SystemExit("usage: test_golden_outputs.py --write PATH")
    Path(sys.argv[2]).write_text(json.dumps(golden_outputs(), indent=1, sort_keys=True) + "\n")
