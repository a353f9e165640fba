"""Faults every command reports alike: a category's ``pinv`` is checked by
the one category reader, the decoder refuses what JSON does not have, and
each reachable guard of the command line prints its one error line."""

import json

import pytest

from amalgam import corpus, serialize
from amalgam.cli import main

BAD_PINV = {
    "mismatch": ({"t": "t", "ti": "t"}, "pinv: declared pseudoinverse of t does not match"),
    "garbage": ("garbage", "pinv: must be an object from morphism names to morphism names"),
}


def _iso_pair(pinv) -> dict:
    doc = serialize.load_document(corpus.resolve("inverse_iso_pair"))
    return {**doc, "pinv": pinv}


@pytest.mark.parametrize("case", sorted(BAD_PINV))
@pytest.mark.parametrize("command", [
    "check", "explain", "witness", "gen diagram", "validate", "cocone", "oracle",
])
def test_a_bad_pinv_is_refused_by_every_reader(tmp_path, monkeypatch, capsys, case, command):
    """The shape as an argument, or inline in the diagram ``oracle`` reads:
    every command prints the line ``validate`` prints, and no ``--out`` is
    written."""
    pinv, message = BAD_PINV[case]
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "diagram", "inverse_iso_pair", "--out", "good.json"]) == 0
    diagram = json.loads((tmp_path / "good.json").read_text())
    (tmp_path / "shape.json").write_text(json.dumps(_iso_pair(pinv)))
    (tmp_path / "diagram.json").write_text(json.dumps({**diagram, "shape": _iso_pair(pinv)}))
    argv = {
        "cocone": ["cocone", "shape.json", "good.json"],
        "oracle": ["oracle", "diagram.json"],
    }.get(command, [*command.split(), "shape.json"])
    capsys.readouterr()
    for out, before in (("new.json", None), ("kept.json", b"kept")):
        if before is not None:
            (tmp_path / out).write_bytes(before)
        assert main([*argv, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert (tmp_path / out).read_bytes() == before if before else not (tmp_path / out).exists()


def test_validate_of_a_diagram_reads_its_inline_pinv(tmp_path, capsys):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"type": "diagram", "shape": _iso_pair("garbage")}))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {BAD_PINV['garbage'][1]}\n")


_POSET_WITH = '{{"type": "poset", "elements": ["a"], "covers": [[{}, "a"]]}}'
_DIAGRAM_WITH = (
    '{{"type": "diagram", "shape": {{"type": "poset", "elements": ["a"]}}, '
    '"carriers": {{"a": [{}]}}}}'
)


def _digit_limit_message() -> str:
    try:
        int("1" * 5001)
    except ValueError:
        return "an integer has too many digits"
    pytest.skip("this interpreter has no integer digit limit")


@pytest.mark.parametrize("command", ["check", "validate", "oracle"])
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1" * 5001],
                         ids=["NaN", "Infinity", "-Infinity", "5001-digits"])
def test_the_decoder_refuses_what_json_does_not_have(
    tmp_path, monkeypatch, capsys, command, constant
):
    """``NaN``, ``Infinity``, ``-Infinity`` and an integer past the digit
    limit exit 2 with one line naming the file."""
    monkeypatch.chdir(tmp_path)
    template = _DIAGRAM_WITH if command == "oracle" else _POSET_WITH
    (tmp_path / "doc.json").write_text(template.format(constant))
    reason = (_digit_limit_message() if constant[0] == "1"
              else f"{constant} is not valid JSON")
    assert main([command, "doc.json"]) == 2
    assert capsys.readouterr() == ("", f"error: doc.json: {reason}\n")


@pytest.mark.parametrize("argv, document, message", [
    (["check", "span", "boat"], None, "check expects 1 input argument(s)"),
    (["gen", "diagram", "inverse_z2"], None,
     "gen diagram: the monic reflection is not a preorder"),
    (["check", "doc.json"], [], "doc.json: document must be an object with a 'type' field"),
    (["check", "doc.json"], {"type": "category", "objects": ["A", "B", "A"]},
     "category: object names must be distinct"),
], ids=["arity", "gen-diagram-not-preorder", "document-list", "repeated-object"])
def test_each_reachable_guard_prints_its_line(tmp_path, monkeypatch, capsys,
                                              argv, document, message):
    monkeypatch.chdir(tmp_path)
    if document is not None:
        (tmp_path / "doc.json").write_text(json.dumps(document))
    assert main([*argv, "--out", "out.json"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["oracle", "cocone", "validate"])
def test_a_diagram_reader_reads_only_diagram_documents(tmp_path, monkeypatch, capsys, command):
    """A document with a diagram's fields under another type is refused by
    every reader of diagrams, as ``validate`` refuses it."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "diagram", "span", "--out", "good.json"]) == 0
    doc = json.loads((tmp_path / "good.json").read_text())
    (tmp_path / "doc.json").write_text(json.dumps({**doc, "type": "cocone"}))
    argv = {"cocone": ["cocone", "span", "doc.json"]}.get(command, [command, "doc.json"])
    message = ("cannot validate documents of type 'cocone'" if command == "validate"
               else "expected a diagram document, got 'cocone'")
    assert main([*argv, "--out", "out.json"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out.json").exists()
