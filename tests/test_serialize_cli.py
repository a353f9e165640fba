import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from amalgam import cli, corpus, serialize
from amalgam.cli import main
from amalgam.decide import decide
from amalgam.diagram import Cocone, validate_cocone
from amalgam.serialize import ParseError

# corpus shapes that `check` accepts, posets and inverse categories alike
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


def test_corpus_round_trips():
    for name in corpus.names():
        doc = serialize.load_document(corpus.path(name))
        kind = doc["type"]
        if kind == "category" and "pinv" in doc:
            obj = serialize.inverse_from_doc(doc)
            assert serialize.inverse_from_doc(serialize.inverse_to_doc(obj)) == obj
        elif kind == "category":
            obj = serialize.category_from_doc(doc)
            assert serialize.category_from_doc(serialize.category_to_doc(obj)) == obj
        elif kind == "poset":
            obj = serialize.poset_from_doc(doc)
            assert serialize.poset_from_doc(serialize.poset_to_doc(obj)) == obj
        elif kind == "diagram":
            obj = serialize.diagram_from_doc(doc)
            assert serialize.diagram_from_doc(serialize.diagram_to_doc(obj)) == obj


def test_poset_file_and_category_file_agree():
    poset_doc = serialize.load_document(corpus.path("boat"))
    shape = serialize.shape_from_doc(poset_doc)
    again = serialize.category_from_doc(serialize.category_to_doc(shape))
    assert again == shape


def test_verdict_document_fields():
    doc = serialize.verdict_to_doc(decide(serialize.load_shape(corpus.path("bowtie"))))
    assert doc["type"] == "verdict"
    assert doc["usc"] is False and doc["connected"] is True
    assert doc["evidence"]["kind"] == "non-forest-poset"
    assert doc["evidence"]["witness"]["minimal_element"] == "C"
    assert doc["evidence"]["collision"]["object"] in ("A", "B")
    # the attached diagram is itself a loadable document
    witness = serialize.diagram_from_doc(doc["evidence"]["diagram"])
    assert witness.total_elements() > 0


def test_parse_errors():
    with pytest.raises(ParseError):
        serialize.shape_from_doc({"type": "mystery"})
    with pytest.raises(ParseError):
        serialize.poset_from_doc({"type": "poset", "elements": ["a"], "covers": [["a", "b"]]})
    with pytest.raises(ParseError):
        serialize.category_from_doc({"type": "category", "objects": ["X"],
                                     "morphisms": [{"name": "a", "dom": "X", "cod": "X"}],
                                     "compose": []})


def test_cli_check_exit_codes(tmp_path, capsys):
    assert main(["check", "bowtie"]) == 1
    assert main(["check", "span"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()


def test_cli_check_structured(tmp_path):
    out = tmp_path / "verdict.json"
    assert main(["check", "boat", "--format", "structured", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["usc"] is False
    assert doc["evidence"]["kind"] == "non-forest-poset"


def test_cli_witness_boat_has_empty_bottom(tmp_path):
    out = tmp_path / "witness.json"
    assert main(["witness", "boat", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["carriers"]["E"] == []
    diagram = serialize.diagram_from_doc(doc)
    from amalgam.diagram import has_cocone

    assert not has_cocone(diagram)


def test_cli_witness_not_applicable(capsys):
    assert main(["witness", "span"]) == 1
    assert "not applicable" in capsys.readouterr().err


def test_cli_oracle(tmp_path, capsys):
    assert main(["oracle", "bowtie_diagram"]) == 1
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["type"] == "no-cocone"
    assert doc["collision"]["object"] == "B"


def test_cli_cocone_on_generated_diagram(tmp_path, capsys):
    diagram_path = tmp_path / "diagram.json"
    assert main(["gen", "diagram", "span", "--seed", "4", "--out", str(diagram_path)]) == 0
    assert main(["cocone", "span", str(diagram_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "cocone"
    assert set(doc["legs"]) == {"p", "a", "b"}


@pytest.mark.parametrize("name", AMALGAMABLE)
def test_cli_cocone_on_every_amalgamable_corpus_shape(name, tmp_path, capsys):
    diagram_path = tmp_path / "diagram.json"
    for seed in range(3):
        assert main(["gen", "diagram", name, "--seed", str(seed),
                     "--out", str(diagram_path)]) == 0
        assert main(["cocone", name, str(diagram_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        diagram = serialize.load_diagram(diagram_path)
        legs = tuple(
            dict(map(tuple, doc["legs"][obj])) for obj in diagram.shape.objects
        )
        validate_cocone(diagram, Cocone(tuple(doc["apex"]), legs))


def test_check_accepts_exactly_the_amalgamable_corpus_shapes(capsys):
    shapes = [
        name for name in corpus.names()
        if serialize.load_document(corpus.path(name))["type"] != "diagram"
    ]
    assert tuple(n for n in shapes if main(["check", n]) == 0) == AMALGAMABLE
    capsys.readouterr()


def test_cli_cocone_collision_on_certified_shape_is_an_error(monkeypatch, capsys):
    """A colimit collision under a certificate contradicts the theorem: the
    command fails loudly and names the glued elements, with no fallback."""
    monkeypatch.setattr(cli, "analyze_shape", lambda shape: SimpleNamespace(usc=True))
    assert main(["cocone", "bowtie", "bowtie_diagram"]) == 2
    err = capsys.readouterr().err
    assert "collision" in err
    assert "elements 0 and 1 of B" in err


def test_cli_cocone_not_applicable_on_bowtie(tmp_path, capsys):
    diagram_path = tmp_path / "d.json"
    # hand-build a valid diagram over the bowtie shape
    doc = serialize.load_document(corpus.path("bowtie_diagram"))
    diagram_path.write_text(json.dumps(doc))
    assert main(["cocone", "bowtie", str(diagram_path)]) == 1
    assert "not applicable" in capsys.readouterr().err


def test_cli_gen_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "poset", "6", "--seed", "12", "--out", str(a)]) == 0
    assert main(["gen", "poset", "6", "--seed", "12", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert main(["gen", "forest", "7", "--seed", "3", "--out", str(a)]) == 0
    p = serialize.poset_from_doc(json.loads(a.read_text()))
    from amalgam.poset import ForestCertificate, is_forest_like

    assert isinstance(is_forest_like(p), ForestCertificate)
    assert main(["gen", "nonforest", "5", "--seed", "3", "--out", str(a)]) == 0
    p = serialize.poset_from_doc(json.loads(a.read_text()))
    assert not isinstance(is_forest_like(p), ForestCertificate)


def test_cli_gen_forest_checks_its_draw(monkeypatch, capsys):
    """A non-forest draw from the forest generator is an error (exit 2),
    also under ``python -O``."""
    from amalgam import gen

    monkeypatch.setattr(gen, "random_forest", gen.random_nonforest)
    assert main(["gen", "forest", "6"]) == 2
    assert "not forest-like" in capsys.readouterr().err


def test_cli_gen_bounds(capsys):
    assert main(["gen", "poset", "100"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_validate(tmp_path, capsys):
    assert main(["validate", "bowtie"]) == 0
    assert main(["validate", "inverse_pinj2"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "poset", "elements": ["a", "b"],
                               "covers": [["a", "b"], ["b", "a"]]}))
    assert main(["validate", str(bad)]) == 2
    capsys.readouterr()


def test_cli_explain(capsys):
    assert main(["explain", "nonforest6"]) == 1
    out = capsys.readouterr().out
    assert "report" in out


def test_cli_unknown_path(capsys):
    assert main(["check", "definitely_missing.json"]) == 2
    # a missing file is never swapped for the corpus entry of the same stem
    assert main(["check", "/no/such/dir/span.json"]) == 2
    assert main(["check", "span.json"]) == 2
    assert "no such file or corpus entry" in capsys.readouterr().err


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert "amalgamability report" in capsys.readouterr().out
