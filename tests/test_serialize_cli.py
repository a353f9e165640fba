import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from amalgam import cli, corpus, fincat, gen, serialize
from amalgam.cli import main
from amalgam.decide import decide, explain
from amalgam.diagram import Cocone, validate_cocone
from amalgam.fincat import PresentationError, category
from amalgam.poset import FinPoset, clip, is_forest_like
from amalgam.serialize import ParseError
from conftest import (
    category_from_poset, chain, cocone_from_labels, corpus_names, recursive_forest_like,
    total_elements,
)
from oracles import all_posets, inverse_category, inverse_to_doc, load_diagram

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
    for name in corpus_names():
        doc = serialize.load_document(corpus.resolve(name))
        kind = doc["type"]
        if kind == "category" and "pinv" in doc:
            obj = inverse_category(serialize.category_from_doc(doc))
            assert inverse_category(serialize.category_from_doc(inverse_to_doc(obj))) == obj
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
    poset_doc = serialize.load_document(corpus.resolve("boat"))
    shape = serialize.shape_from_doc(poset_doc)
    again = serialize.category_from_doc(serialize.category_to_doc(category_from_poset(shape)))
    assert again == shape


def test_verdict_document_fields():
    doc = serialize.verdict_to_doc(decide(serialize.load_shape(corpus.resolve("bowtie"))))
    assert doc["type"] == "verdict"
    assert doc["usc"] is False and doc["connected"] is True
    assert doc["evidence"]["kind"] == "non-forest-poset"
    assert doc["evidence"]["witness"]["minimal_element"] == "C"
    assert doc["evidence"]["collision"]["object"] in ("A", "B")
    # the attached diagram is itself a loadable document
    witness = serialize.diagram_from_doc(doc["evidence"]["diagram"])
    assert total_elements(witness) > 0


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


def test_clashing_arrow_names_are_an_input_error_only_where_arrows_are_named(tmp_path, capsys):
    """Arrows a -> b->c and a->b -> c are both named 'a->b->c'.  Under the
    2-crown p, q the poset is refuted, and its witness names every arrow;
    alone it is forest-like, and no arrow is named."""
    elements = ["a", "b->c", "a->b", "c"]
    covers = [["a", "b->c"], ["a->b", "c"]]
    crowned = {
        "type": "poset",
        "elements": elements + ["p", "q"],
        "covers": covers + [[low, high] for low in "pq" for high in ("a", "a->b")],
    }
    alone = {"type": "poset", "elements": elements, "covers": covers}
    clash = (
        "error: morphism name 'a->b->c' is given to both "
        "the arrow 'a' -> 'b->c' and the arrow 'a->b' -> 'c'\n"
    )
    for name, doc in (("crowned", crowned), ("alone", alone)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    for argv in (["check"], ["check", "--format", "structured"], ["explain"], ["witness"]):
        capsys.readouterr()
        assert main([*argv, str(tmp_path / "crowned.json")]) == 2, argv
        assert capsys.readouterr().err == clash
    for argv in (["check"], ["check", "--format", "structured"], ["explain"]):
        assert main([*argv, str(tmp_path / "alone.json")]) == 0, argv


def test_a_category_never_names_the_arrows_of_its_skeleton(tmp_path, capsys):
    """The crowned order above as a category with its own morphism names:
    its skeleton's arrows a -> b->c and a->b -> c would both be named
    'a->b->c', but the witness is built over the skeleton and pulled back
    to the category, whose names are the only ones used."""
    objects = ["a", "b->c", "a->b", "c", "p", "q"]
    order = [("a", "b->c"), ("a->b", "c")]
    order += [(low, high) for low in "pq" for high in ("a", "a->b", "b->c", "c")]
    name = {pair: f"m{i}" for i, pair in enumerate(order)}
    compose = [
        (name[(b, c)], name[(a, b)], name[(a, c)])
        for a, b in order for b2, c in order if b2 == b
    ]
    cat = category(objects, [(n, a, b) for (a, b), n in name.items()], compose)
    path = tmp_path / "crowned.json"
    path.write_text(json.dumps(serialize.category_to_doc(cat)))
    for argv in (["check"], ["check", "--format", "structured"], ["explain"]):
        assert main([*argv, str(path)]) == 1, argv
    assert main(["witness", str(path)]) == 0
    assert capsys.readouterr().err == ""


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
        diagram = load_diagram(diagram_path)
        legs = tuple(
            dict(map(tuple, doc["legs"][obj])) for obj in diagram.shape.objects
        )
        validate_cocone(diagram, cocone_from_labels(diagram, doc["apex"], legs))


def test_check_accepts_exactly_the_amalgamable_corpus_shapes(capsys):
    shapes = [
        name for name in corpus_names()
        if serialize.load_document(corpus.resolve(name))["type"] != "diagram"
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
    doc = serialize.load_document(corpus.resolve("bowtie_diagram"))
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
    from amalgam.poset import FinPoset, ForestCertificate, is_forest_like

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


def _bowtie_diagram_with(tmp_path, edit):
    doc = serialize.load_document(corpus.resolve("bowtie_diagram"))
    edit(doc)
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["oracle", "validate"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["actions"].update(h=[["*", "0"], ["*", "1"]]),
         "action of 'h' lists source '*' twice"),
        (lambda d: d["carriers"].update(B="01"),
         "carrier of 'B' must be a list of string labels"),
        (lambda d: d["carriers"].update(A=[["*"]]),
         "carrier of 'A' must be a list of string labels"),
        (lambda d: d["carriers"].update(A=[7]),
         "carrier of 'A' must be a list of string labels"),
        (lambda d: d["actions"].update(f=["**"]),
         "action of 'f' must be a list of [x, y] pairs"),
        (lambda d: d["actions"].update(f=[[["*"], "*"]]),
         "action of 'f' must be a list of [x, y] pairs"),
        (lambda d: d["actions"].update(f={"*": "*"}),
         "action of 'f' must be a list of [x, y] pairs"),
        (lambda d: d["actions"].pop("f"), "missing action for morphism 'f'"),
    ],
)
def test_cli_rejects_malformed_diagram_fields(tmp_path, capsys, command, edit, message):
    """A source listed twice, a carrier that is a string or holds a
    non-string label, a pair that is not a list, and an action that is an
    object or is missing: each exits 2 and names the object or morphism at
    fault."""
    path = _bowtie_diagram_with(tmp_path, edit)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: diagram: ") and message in err


@pytest.mark.parametrize("command", ["oracle", "validate", "cocone"])
@pytest.mark.parametrize("pairs", [[["*", ["0"]]], [["*", {"0": 1}]]])
def test_cli_names_an_action_with_an_unhashable_image(tmp_path, capsys, command, pairs):
    """An image that cannot be hashed is no label of the target carrier:
    exit 2 naming the morphism, not a TypeError."""
    path = _bowtie_diagram_with(tmp_path, lambda d: d["actions"].update(h=pairs))
    argv = [command, "bowtie", path] if command == "cocone" else [command, path]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: action of h leaves the target carrier\n"


def test_cli_explain(capsys):
    """``explain`` is ``check`` with the text report: ``--format
    structured`` does not turn it into the verdict document."""
    assert main(["explain", "nonforest6"]) == 1
    report = capsys.readouterr()
    assert "report" in report.out
    assert main(["explain", "--format", "structured", "nonforest6"]) == 1
    assert capsys.readouterr() == report
    assert main(["check", "--format", "structured", "nonforest6"]) == 1
    assert capsys.readouterr().out != report.out


def test_cli_unknown_path(capsys):
    assert main(["check", "definitely_missing.json"]) == 2
    # a missing file is never swapped for the corpus entry of the same stem
    assert main(["check", "/no/such/dir/span.json"]) == 2
    assert main(["check", "span.json"]) == 2
    assert "no such file or corpus entry" in capsys.readouterr().err


def test_cli_reads_a_path_as_pathlib_normalises_it(tmp_path, capsys):
    """A file named with a trailing '/' or '/.' is read, as pathlib reads it."""
    path = tmp_path / "span.json"
    path.write_bytes(Path(corpus.resolve("span")).read_bytes())
    for ref in (f"{path}/", f"{path}/.", f"{tmp_path}//span.json"):
        assert main(["check", ref]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-32"])
def test_documents_are_read_in_the_encoding_json_detects(tmp_path, capsys, encoding):
    path = tmp_path / "poset.json"
    doc = {"type": "poset", "elements": ["é", "ü"], "covers": [["é", "ü"]]}
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding=encoding)
    assert main(["check", str(path), "--format", "structured"]) == 0
    assert "\\u00e9" in capsys.readouterr().out


def test_documents_are_read_to_their_end_from_a_pipe(tmp_path):
    """A pipe reports size 0, so its document comes in over several reads."""
    fifo = tmp_path / "poset.json"
    os.mkfifo(fifo)
    doc = {"type": "poset", "elements": [f"e{i}" for i in range(20000)], "covers": []}
    data = json.dumps(doc).encode()
    assert len(data) > 2 << 16  # more than two reads of 64 KiB

    def write():
        with open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        assert serialize.load_document(str(fifo)) == doc
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_read_and_write_errors_name_the_path_as_open_does(tmp_path, monkeypatch, capsys):
    """A missing shape file, a directory given as a diagram's shape (opened
    fine, refused by its first read) and ``--out`` into a missing directory.
    An absolute path is quoted as every fault quotes a path, whole up to 80
    characters, so the line holds under a temporary directory of any
    length."""
    monkeypatch.chdir(tmp_path)
    shapedir = clip(tmp_path / "shapedir")
    (tmp_path / "shapedir").mkdir()
    for name, shape in (("dir.json", "shapedir"), ("gone.json", "missing.json")):
        doc = {"type": "diagram", "shape": shape, "carriers": {}, "actions": {}}
        (tmp_path / name).write_text(json.dumps(doc))
    cases = [
        (["oracle", "gone.json"],
         "missing.json: [Errno 2] No such file or directory: 'missing.json'"),
        (["oracle", "dir.json"], "shapedir: [Errno 21] Is a directory: 'shapedir'"),
        (["validate", "dir.json"], "shapedir: [Errno 21] Is a directory: 'shapedir'"),
        (["cocone", "span", "dir.json"], "shapedir: [Errno 21] Is a directory: 'shapedir'"),
        (["oracle", str(tmp_path / "dir.json")],
         f"{shapedir}: [Errno 21] Is a directory: '{shapedir}'"),
        (["check", "span", "--out", "missing/out.json"],
         "[Errno 2] No such file or directory: 'missing/out.json'"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    assert not (tmp_path / "missing").exists()


def test_out_overwrites_a_file_in_place(tmp_path, capsys):
    """Writing twice gives the same bytes; a shorter output truncates a
    longer one; the file keeps its inode, links and permissions; and a
    device, which reports no size, takes the output too."""
    out, link = tmp_path / "out.json", tmp_path / "link.json"
    assert main(["check", "span", "--out", str(out)]) == 0
    first = out.read_bytes()
    out.chmod(0o600)
    link.hardlink_to(out)
    inode = out.stat().st_ino
    assert main(["check", "span", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert main(["check", "nonforest6", "--out", str(out)]) == 1
    assert len(out.read_bytes()) > len(first)
    assert main(["check", "span", "--out", str(out)]) == 0
    assert out.read_bytes() == link.read_bytes() == first
    assert out.stat().st_ino == inode and out.stat().st_mode & 0o777 == 0o600
    assert main(["check", "span", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_out_is_written_whole_through_short_writes(tmp_path, monkeypatch):
    """Every byte lands when each write takes at most seven, and a new file
    gets mode 0o666 less the umask, as open(path, "w") gives it."""
    out = tmp_path / "out.json"
    assert main(["check", "nonforest6", "--format", "structured", "--out", str(out)]) == 1
    whole = out.read_bytes()
    out.unlink()
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:7])))
    old_mask = os.umask(0o002)
    try:
        assert main(["check", "nonforest6", "--format", "structured", "--out", str(out)]) == 1
    finally:
        os.umask(old_mask)
    assert out.read_bytes() == whole and out.stat().st_mode & 0o777 == 0o664


def test_out_is_encoded_in_the_locale_encoding_strictly(tmp_path, monkeypatch, capsys):
    import locale

    path, out = tmp_path / "poset.json", tmp_path / "out.txt"
    doc = {"type": "poset", "elements": ["é", "ü"], "covers": [["é", "ü"]]}
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--out", str(out)]) == 0
    text = explain(decide(serialize.load_shape(path))) + "\n"
    assert cli._locale_encoding() == locale.getpreferredencoding(False)
    assert out.read_bytes() == text.encode(locale.getpreferredencoding(False))
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(cli, "_locale_encoding", lambda: "ascii")
    assert main(["check", str(path), "--out", str(out)]) == 2
    assert "'ascii' codec can't encode character '\\xe9'" in capsys.readouterr().err
    assert out.read_bytes() == text.encode(locale.getpreferredencoding(False))


def test_out_is_encoded_in_the_locale_encoding_outside_utf8_mode(tmp_path):
    """Outside Python's UTF-8 mode the encoding is read off the locale: it
    agrees with ``locale``, and in the C locale an ``explain`` that does not
    encode in ASCII exits 2 and creates no ``--out`` file, while a
    structured verdict, whose JSON escapes every non-ASCII character, is
    written."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import locale; from amalgam import cli; "
             "print(cli._locale_encoding() == locale.getpreferredencoding(False))")
    done = subprocess.run([sys.executable, "-X", "utf8=0", "-c", probe],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "True\n"
    (tmp_path / "poset.json").write_text(
        json.dumps({"type": "poset", "elements": ["é", "b"], "covers": [["é", "b"]]})
    )
    c_locale = dict(env, LC_ALL="C", PYTHONCOERCECLOCALE="0")

    def amalgam(*argv):
        return subprocess.run([sys.executable, "-X", "utf8=0", "-m", "amalgam.cli", *argv],
                              cwd=tmp_path, env=c_locale, capture_output=True, text=True)

    done = amalgam("explain", "poset.json", "--out", "explained.txt")
    assert done.returncode == 2
    assert done.stderr.startswith("error: 'ascii' codec can't encode character '\\xe9'")
    assert not (tmp_path / "explained.txt").exists()
    done = amalgam("check", "--format", "structured", "poset.json", "--out", "verdict.json")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    data = (tmp_path / "verdict.json").read_bytes()
    assert data.isascii() and b'"point":"\\u00e9"' in data


SURROGATE = '{"type":"poset","elements":["a","\\ud800"],"covers":[["a","\\ud800"]]}'


def test_text_that_does_not_encode_leaves_the_out_file_as_it_was(tmp_path, monkeypatch, capsys):
    """The text is encoded before ``--out`` is opened: a file keeps its
    bytes, and a new path is not created."""
    path, out, fresh = tmp_path / "poset.json", tmp_path / "out.txt", tmp_path / "new.txt"
    path.write_text(json.dumps({"type": "poset", "elements": ["é", "ü"], "covers": [["é", "ü"]]}))
    out.write_bytes(b"previous content")
    monkeypatch.setattr(cli, "_locale_encoding", lambda: "ascii")
    for target in (out, fresh):
        assert main(["check", str(path), "--out", str(target)]) == 2
        assert "'ascii' codec can't encode character '\\xe9'" in capsys.readouterr().err
    assert out.read_bytes() == b"previous content"
    assert not fresh.exists()


# A name with a lone surrogate, which no UTF-8 output can write, is refused
# where it is read, naming the field and showing the name ASCII-escaped.
# Each command names the input file by "{}".
_SHAPE_COMMANDS = (["check", "{}"], ["check", "{}", "--format", "structured"], ["validate", "{}"])
_DIAGRAM_SHAPE = '"shape": {"type": "poset", "elements": ["a", "b"], "covers": [["a", "b"]]}'
LONE_SURROGATES = {
    "elements": (
        _SHAPE_COMMANDS, SURROGATE, "poset: elements may not hold a lone surrogate: '\\ud800'",
    ),
    "objects": (
        _SHAPE_COMMANDS, '{"type": "category", "objects": ["A", "B\\udfff"]}',
        "category: objects may not hold a lone surrogate: 'B\\udfff'",
    ),
    "morphisms": (
        _SHAPE_COMMANDS,
        '{"type": "category", "objects": ["A", "B"], '
        '"morphisms": [{"name": "\\udc80f", "dom": "A", "cod": "B"}]}',
        "category: morphism names may not hold a lone surrogate: '\\udc80f'",
    ),
    "carriers": (
        (["oracle", "{}"], ["validate", "{}"], ["cocone", "span", "{}"]),
        '{"type": "diagram", ' + _DIAGRAM_SHAPE + ', "carriers": {"a": ["x"], "b": ["\\udc80"]}, '
        '"actions": {"a->b": [["x", "\\udc80"]]}}',
        "diagram: carrier of 'b' may not hold a lone surrogate: '\\udc80'",
    ),
}


@pytest.mark.parametrize("field", list(LONE_SURROGATES))
def test_a_name_with_a_lone_surrogate_is_refused_naming_its_field(tmp_path, capsys, field):
    commands, text, message = LONE_SURROGATES[field]
    path = tmp_path / "input.json"
    path.write_text(text)
    for command in commands:
        argv = [str(path) if word == "{}" else word for word in command]
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n"), argv
        assert len(err.encode()) < 300


def test_a_long_name_with_a_lone_surrogate_is_quoted_escaped_and_cut_short(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"type": "poset", "elements": ["\ud800" + "n" * 100_000]}))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: poset: elements may not hold a lone surrogate: '\\ud800" + "n" * 71 + "...'\n"
    )
    assert len(err.encode()) < 300


def test_a_surrogate_pair_is_one_astral_character_and_is_accepted(tmp_path, capsys):
    """Escaped as a pair, or written as UTF-8, an astral name is read whole."""
    escaped, raw = tmp_path / "escaped.json", tmp_path / "raw.json"
    escaped.write_text('{"type": "poset", "elements": ["a", "\\ud83d\\ude00"], '
                       '"covers": [["a", "\\ud83d\\ude00"]]}')
    doc = {"type": "poset", "elements": ["a", "\U0001F600"], "covers": [["a", "\U0001F600"]]}
    raw.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    for path in (escaped, raw):
        assert serialize.load_shape(path).elements == ("a", "\U0001F600")
        for argv in (["check", str(path)], ["check", str(path), "--format", "structured"],
                     ["validate", str(path)]):
            assert main(argv) == 0, argv
    capsys.readouterr()


REPEATED_KEYS = {
    "carriers": (
        "oracle",
        '{"type": "diagram", "shape": {"type": "poset", "elements": ["a", "b"], '
        '"covers": []}, "carriers": {"a": ["x"], "b": ["u", "v"], "a": []}, '
        '"actions": {}}',
        "a",
    ),
    "covers": (
        "check",
        '{"type": "poset", "elements": ["a", "b"], "covers": [["a", "b"]], "covers": []}',
        "covers",
    ),
    "type": (
        "check",
        '{"type": "poset", "type": "category", "objects": ["a"], "elements": ["a"]}',
        "type",
    ),
    "name": (
        "check",
        '{"type": "category", "objects": ["A", "B"], '
        '"morphisms": [{"name": "f", "name": "g", "dom": "A", "cod": "B"}]}',
        "name",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_an_object_that_repeats_a_key_is_refused(tmp_path, capsys, case):
    """Each of these read as the key's last value, and so as another input."""
    command, text, key = REPEATED_KEYS[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {clip(path)}: an object repeats the key '{key}'\n"
    )


def test_a_repeated_key_is_named_clipped(tmp_path):
    key = "k" * 100
    path = tmp_path / "doc.json"
    path.write_text(f'{{"type": "poset", "{key}": 1, "{key}": 2}}')
    with pytest.raises(ParseError) as caught:
        serialize.load_document(path)
    assert str(caught.value) == f"{clip(path)}: an object repeats the key '{'k' * 77}...'"


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert "amalgamability report" in capsys.readouterr().out


@pytest.fixture
def built_categories(monkeypatch):
    """The FinCategory instances constructed while the test runs."""
    built = []
    init = fincat.FinCategory.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fincat.FinCategory, "__init__", counted)
    return built


def test_check_builds_no_category_for_a_poset(built_categories, tmp_path):
    """A positive poset is decided on its masks, and a refuted one carries
    its witness diagram itself: neither builds a composition table."""
    out = str(tmp_path / "out")
    for name, code in (("span", 0), ("chain5", 0), ("boat", 1)):
        for argv in (["check"], ["check", "--format", "structured"], ["explain"]):
            built_categories.clear()
            assert main([argv[0], name, *argv[1:], "--out", out]) == code
            assert built_categories == [], (name, argv)
    assert main(["check", "bowtie", "--out", out]) == 1  # a category document
    assert len(built_categories) == 1


def test_positive_check_never_names_a_posets_arrows(monkeypatch, tmp_path):
    """Deciding a forest-like poset reads its masks only."""
    def refuse(self):
        raise AssertionError("the arrows of a positive poset were built")

    monkeypatch.setattr(FinPoset, "morphisms", property(refuse))
    monkeypatch.setattr(FinPoset, "arrow_names", property(refuse))
    out = str(tmp_path / "out")
    for name in ("span", "chain5", "fan", "cospan"):
        assert main(["check", name, "--format", "structured", "--out", out]) == 0


def test_refuting_a_poset_builds_no_morphism_objects(monkeypatch, tmp_path):
    """The witness of a refuted poset is built, checked and run through the
    oracle on its masks and rows; only its arrow names and ends are made,
    for the writer, and each morphism is a plain (dom, cod) pair.  Its rows
    commute, so the fault rescan over every composable pair never runs."""
    def refuse(self):
        raise AssertionError("a refuted poset rescanned its composable pairs")

    monkeypatch.setattr(FinPoset, "composites", refuse)
    out = str(tmp_path / "out")
    for name in ("boat", "nonforest6"):
        for argv in (["check"], ["check", "--format", "structured"], ["witness"]):
            assert main([*argv, name, "--out", out]) == (0 if argv == ["witness"] else 1)
        poset = serialize.load_shape(corpus.resolve(name))
        assert decide(poset).diagram.shape is poset and "morphisms" in vars(poset)
        assert all(type(ends) is tuple and len(ends) == 2 for ends in poset.morphisms)


def test_no_command_on_a_poset_document_builds_a_category(built_categories, tmp_path):
    """check, explain, witness, validate, gen diagram, and cocone and oracle
    on a diagram whose shape is the poset document, inline or by path."""
    out = str(tmp_path / "out")
    boat = corpus.resolve("boat")
    span_doc = serialize.load_document(corpus.resolve("span"))
    (tmp_path / "span.json").write_text(json.dumps(span_doc))
    diagram = serialize.diagram_to_doc(
        gen.random_diagram_over_poset(serialize.poset_from_doc(span_doc), random.Random(3))
    )
    assert diagram["shape"] == span_doc
    inline, by_path = tmp_path / "inline.json", tmp_path / "by_path.json"
    inline.write_text(json.dumps(diagram))
    by_path.write_text(json.dumps({**diagram, "shape": "span.json"}))
    for argv, code in (
        (["check", boat], 1),
        (["explain", boat], 1),
        (["witness", boat], 0),
        (["validate", boat], 0),
        (["gen", "diagram", "span"], 0),
        (["cocone", "span", str(inline)], 0),
        (["cocone", str(tmp_path / "span.json"), str(by_path)], 0),
        (["oracle", str(inline)], 0),
        (["oracle", str(by_path)], 0),
    ):
        assert main([*argv, "--out", out]) == code, argv
    assert built_categories == []


def test_cocone_validates_a_shared_shape_once(built_categories, tmp_path, capsys):
    """A diagram whose shape is the SHAPE document is parsed over one shape;
    a different shape is parsed and compared, and a mismatch stays an error."""
    out = str(tmp_path / "out")
    shape_doc = serialize.load_document(corpus.resolve("span"))
    cat_doc = serialize.category_to_doc(category_from_poset(serialize.poset_from_doc(shape_doc)))
    shape = serialize.category_from_doc(cat_doc)
    d = gen.random_diagram_over_poset(serialize.poset_from_doc(shape_doc), random.Random(5))
    doc = {**serialize.diagram_to_doc(d), "shape": cat_doc}
    (tmp_path / "cat.json").write_text(json.dumps(cat_doc))
    (tmp_path / "d.json").write_text(json.dumps(doc))
    (tmp_path / "p.json").write_text(json.dumps({**doc, "shape": "cat.json"}))
    for diagram in ("d.json", "p.json"):
        built_categories.clear()
        assert main(["cocone", str(tmp_path / "cat.json"), str(tmp_path / diagram),
                     "--out", out]) == 0
        assert len(built_categories) == 1
    assert built_categories[0] == shape
    # the category document against the poset document: parsed and compared
    built_categories.clear()
    assert main(["cocone", "span", str(tmp_path / "d.json"), "--out", out]) == 0
    assert len(built_categories) == 1
    assert main(["cocone", "cospan", str(tmp_path / "d.json"), "--out", out]) == 2
    assert "diagram shape does not match the given shape" in capsys.readouterr().err


def _write_chain(path: Path, n: int) -> None:
    names = [f"c{i}" for i in range(n)]
    doc = {"type": "poset", "elements": names, "covers": [list(p) for p in zip(names, names[1:])]}
    path.write_text(json.dumps(doc))


def test_check_and_explain_a_chain_longer_than_the_recursion_limit(tmp_path, capsys):
    n = sys.getrecursionlimit() + 100
    path, out = tmp_path / "chain.json", tmp_path / "out.txt"
    _write_chain(path, n)
    for command in ("check", "explain"):
        assert main([command, str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert sum(1 for line in lines if line.lstrip().startswith("adjoin")) == n
        assert lines[-3].strip() == f"adjoin c{n - 1}"
    # Indented JSON nests once per level: the nested certificate is refused
    # with its depth, not a traceback.
    assert main(["check", str(path), "--format", "structured", "--out", str(out)]) == 2
    assert f"nested {2 * n + 4} levels deep" in capsys.readouterr().err


def test_deep_certificate_document_is_built_without_recursion():
    n = sys.getrecursionlimit() + 100
    doc = serialize.verdict_to_doc(decide(chain(n)))
    node, depth = doc["evidence"]["certificate"]["trees"][0], 1
    while node["children"]:
        assert node["upsets"] == [sorted(f"c{i}" for i in range(depth, n))]
        node, depth = node["children"][0], depth + 1
    assert depth == n and node["point"] == f"c{n - 1}"
    with pytest.raises(ValueError, match=f"nested {2 * n + 4} levels deep"):
        serialize.dump(doc)


def _recursive_node_doc(node, names):
    return {
        "point": names[node.point],
        "upsets": [sorted(names[e] for e in upset) for upset in node.upsets],
        "children": [_recursive_node_doc(c, names) for c in node.children],
    }


def test_certificate_document_matches_the_recursive_layout():
    """The writer nests the flat steps as the recursive reference nests its
    nodes."""
    for posets in all_posets(6).values():
        for p in posets:
            roots = recursive_forest_like(p)
            if isinstance(roots, list):
                trees = [_recursive_node_doc(root, p.elements) for root in roots]
                assert serialize.certificate_to_doc(is_forest_like(p), p)["trees"] == trees


def _recursive_narrative(node, names, indent):
    pad = "  " * indent
    lines = [f"{pad}adjoin {names[node.point]}"]
    for child, upset in zip(node.children, node.upsets):
        names_above = ", ".join(sorted(names[e] for e in upset))
        lines.append(f"{pad}  below upward-closed set {{{names_above}}}:")
        lines.extend(_recursive_narrative(child, names, indent + 2))
    return lines


def test_explain_narrates_the_certificate_in_the_recursive_order():
    for posets in all_posets(6).values():
        for p in posets:
            roots = recursive_forest_like(p)
            if isinstance(roots, list) and roots:
                text = explain(decide(p))
                steps = [line for root in roots
                         for line in _recursive_narrative(root, p.elements, 1)]
                assert "decomposition (innermost steps first applied):\n" + "\n".join(steps) in text


def test_dump_names_the_depth_of_any_document_too_deep_to_write():
    n = sys.getrecursionlimit() + 100
    deep = 0
    for _ in range(n):
        deep = [deep]
    with pytest.raises(ValueError, match=f"nested {n + 1} levels deep"):
        serialize.dump({"value": deep})


def test_dump_refuses_a_document_that_contains_itself():
    """The encoder keeps no cycle markers; a cycle still ends in ValueError."""
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="contains itself"):
        serialize.dump({"value": loop})
    node = {"up": None}
    node["up"] = [node]
    with pytest.raises(ValueError, match="contains itself"):
        serialize.dump(node)


def test_dump_counts_a_shared_list_once_per_level():
    """A list reached along two paths is not a cycle: the error names the
    depth of the deeper path."""
    n = sys.getrecursionlimit() + 100
    deep = 0
    for _ in range(n):
        deep = [deep]
    with pytest.raises(ValueError, match=f"nested {n + 3} levels deep"):
        serialize.dump({"a": deep, "b": (deep, [deep])})


def test_shallow_structured_verdict_is_compact_sorted_json():
    doc = serialize.verdict_to_doc(decide(chain(200)))
    text = serialize.dump(doc)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1 and json.loads(text) == doc


def test_morphism_name_collision(tmp_path, capsys):
    """The arrow id_p -> q of this poset and the identity of its element
    p->q share the name id_p->q.  check decides the order without naming
    arrows; the commands that build the category name both morphisms."""
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(
        {"type": "poset", "elements": ["p->q", "id_p", "q"], "covers": [["id_p", "q"]]}
    ))
    assert main(["check", str(path)]) == 0
    assert main(["check", str(path), "--format", "structured"]) == 0
    assert main(["explain", str(path)]) == 0
    capsys.readouterr()
    for argv in (["witness", str(path)], ["validate", str(path)], ["gen", "diagram", str(path)]):
        assert main(argv) == 2
        assert ("morphism name 'id_p->q' is given to both the identity of 'p->q' "
                "and the arrow 'id_p' -> 'q'") in capsys.readouterr().err
    with pytest.raises(PresentationError, match="'a' is given to both the arrow 'X' -> 'Y' "
                                                "and the arrow 'Y' -> 'X'"):
        category(["X", "Y"], [("a", "X", "Y"), ("a", "Y", "X")])


_MORPHISM = {"name": "f", "dom": "a", "cod": "a"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"type": "poset", "elements": [1, 2], "covers": [[1, 2]]},
         "poset: elements must be a list of string names"),
        ({"type": "poset", "elements": "ab", "covers": []},
         "poset: elements must be a list of string names"),
        ({"type": "poset", "elements": ["a", "b"], "covers": [[["a"], "b"]]},
         "poset: covers must be pairs of element names"),
        ({"type": "category", "objects": "xy"},
         "category: objects must be a list of string names"),
        ({"type": "category", "objects": [["a"]]},
         "category: objects must be a list of string names"),
        ({"type": "category", "objects": ["a"], "morphisms": [{**_MORPHISM, "name": ["f"]}]},
         "category: morphism name/dom/cod fields must be strings"),
        ({"type": "category", "objects": ["a"], "morphisms": [{**_MORPHISM, "dom": ["a"]}]},
         "category: morphism name/dom/cod fields must be strings"),
        ({"type": "category", "objects": ["a"], "morphisms": [{**_MORPHISM, "cod": ["a"]}]},
         "category: morphism name/dom/cod fields must be strings"),
        ({"type": "category", "objects": ["a"], "morphisms": [_MORPHISM],
          "compose": [[["f"], "f", "f"]]},
         "category: compose entries must be triples of morphism names"),
    ],
)
def test_malformed_shape_fields_are_input_errors(tmp_path, capsys, doc, message):
    """A name that is not a string, or a list of names given as a string, is
    rejected with exit 2 naming the field, by every command that reads it."""
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path)], ["validate", str(path)]):
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err


def _nested(depth: int) -> list:
    inner = []
    for _ in range(depth - 1):
        inner = [inner]
    return inner


_LONG = list(range(100_000))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"type": "poset", "elements": ["a", "b"], "covers": [_nested(500)]},
         "poset: covers must be [low, high] pairs: [[[[...]]]]"),
        ({"type": "category", "objects": ["a"], "morphisms": [{**_MORPHISM, "name": _LONG}]},
         "category: morphism name/dom/cod fields must be strings: "
         "{'name': [0, 1, 2, 3, 4, 5, 6, 7, ...], 'dom': 'a', 'cod': 'a'}"),
        ({"type": "category", "objects": ["a"], "morphisms": [_MORPHISM],
          "compose": [[_LONG, "f", "f"]]},
         "category: compose entries must be triples of morphism names: "
         "[[0, 1, 2, 3, 4, 5, 6, 7, ...], 'f', 'f']"),
        ({"type": "category", "objects": ["X"], "compose": [{"k": {"k": {"k": {"k": 1}}}}]},
         "category: compose entries must be [g, f, result] triples: {'k': {'k': {'k': {...}}}}"),
    ],
    ids=["cover-nested-500-deep", "morphism-holding-a-long-list", "triple-holding-a-long-list",
         "compose-object-nested-4-deep"],
)
def test_a_fault_quotes_a_large_entry_cut_short(tmp_path, capsys, doc, message):
    """A malformed entry nested deep or holding a long list is quoted in a
    few items and levels: exit 2, the field named, and a short line."""
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 300


_POSET_AB = {"type": "poset", "elements": ["a", "b"]}
_MONOID_F = {"type": "category", "objects": ["a"], "morphisms": [_MORPHISM]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**_POSET_AB, "covers": ["ab"]},
         "poset: covers must be [low, high] pairs: 'ab'"),
        ({**_POSET_AB, "covers": [{"a": 0, "b": 1}]},
         "poset: covers must be [low, high] pairs: {'a': 0, 'b': 1}"),
        ({**_MONOID_F, "compose": ["fff"]},
         "category: compose entries must be [g, f, result] triples: 'fff'"),
        ({**_MONOID_F, "compose": [{"f": 1, "g": 2, "h": 3}]},
         "category: compose entries must be [g, f, result] triples: {'f': 1, 'g': 2, 'h': 3}"),
        ({**_POSET_AB, "covers": [["a", "b"], "ab"]},
         "poset: covers must be [low, high] pairs: 'ab'"),
        ({**_POSET_AB, "covers": [["a", "c"], "ab"]},
         "poset: cover [a, c] references unknown elements"),
        ({**_POSET_AB, "covers": ["ab", ["a", "c"]]},
         "poset: covers must be [low, high] pairs: 'ab'"),
        ({**_MONOID_F, "compose": [["f", "f", "g"], "fff"]},
         "category: compose entry references unknown morphism g"),
        ({**_MONOID_F, "compose": [["f", "f", "f"], {"f": 1, "g": 2, "h": 3}]},
         "category: compose entries must be [g, f, result] triples: {'f': 1, 'g': 2, 'h': 3}"),
    ],
    ids=["cover-string", "cover-object", "compose-string", "compose-object",
         "cover-string-after-a-pair", "unknown-cover-first", "cover-string-first",
         "unknown-morphism-first", "compose-object-after-a-triple"],
)
def test_an_entry_that_is_no_list_is_refused_not_unpacked(tmp_path, capsys, doc, message):
    """A string or an object in ``covers`` or ``compose`` would unpack into
    its characters or keys; it is refused with exit 2 naming the field, and
    the first fault in document order is the one named."""
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path), "--format", "structured"], ["validate", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "entry",
    [["a"], [["a"], "b"], [[["a"]], "b"], {"name": "f", "dom": ["a"], "cod": "a"},
     {"cod": 1, "name": None, "dom": 2.5}, ["f", True, "x" * 78], list(range(8)), [], {}],
)
def test_a_small_entry_is_quoted_as_its_repr(entry):
    assert fincat.echo(entry) == repr(entry)


def test_a_quoted_entry_is_bounded():
    wide = [[["y" * 500] * 50] * 50] * 50
    assert len(fincat.echo(wide)) <= 200
    assert fincat.echo("z" * 500) == repr("z" * 500)[:38] + "..." + repr("z" * 500)[-39:]


@pytest.mark.parametrize("action", [{}, ""], ids=["object", "string"])
def test_an_empty_non_list_action_on_an_empty_carrier_is_a_format_fault(tmp_path, capsys, action):
    """An action on an empty carrier, where any list of pairs would be
    empty, is still read as a list first."""
    doc = {"type": "diagram",
           "shape": {"type": "poset", "elements": ["a", "b"], "covers": [["a", "b"]]},
           "actions": {"a->b": action}}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: diagram: action of 'a->b' must be a list of [x, y] pairs\n"
    )


def _unknown_name_cases(name: str):
    """A command and a document whose fault quotes the name, with the message."""
    poset_a = {"type": "poset", "elements": ["a"]}
    return [
        ("check", {"type": "category", "objects": ["a"],
                   "morphisms": [{"name": name, "dom": "a", "cod": "b"}]},
         "category: morphism {} references unknown objects"),
        ("check", {"type": "category", "objects": ["a"], "morphisms": [_MORPHISM],
                   "compose": [[name, "f", "f"]]},
         "category: compose entry references unknown morphism {}"),
        ("check", {**poset_a, "covers": [["a", name]]},
         "poset: cover [a, {}] references unknown elements"),
        ("oracle", {"type": "diagram", "shape": poset_a, "carriers": {name: []}},
         "diagram: carrier for unknown object '{}'"),
        ("oracle", {"type": "diagram", "shape": poset_a, "actions": {name: []}},
         "diagram: action for unknown morphism '{}'"),
        ("check", {"type": "category", "objects": ["A"], "pinv": {"id_A": name}},
         "pinv: unknown morphism in 'id_A': '{}'"),
    ]


_FAULT_IDS = ["morphism", "compose", "cover", "carrier", "action", "pinv"]


@pytest.mark.parametrize("case", range(len(_FAULT_IDS)), ids=_FAULT_IDS)
def test_a_fault_escapes_a_lone_surrogate_in_an_unknown_name(tmp_path, capsys, case):
    """A name that UTF-8 cannot encode is quoted backslash-escaped, so the
    fault line encodes strictly."""
    command, doc, message = _unknown_name_cases("\ud800E")[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: " + message.format("\\ud800E") + "\n"
    err.encode()


@pytest.mark.parametrize("case", range(len(_FAULT_IDS)), ids=_FAULT_IDS)
def test_a_fault_cuts_a_long_unknown_name_short(tmp_path, capsys, case):
    """A name of 100,000 characters is quoted as its first 77 and ``...``."""
    command, doc, message = _unknown_name_cases("n" * 100_000)[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: " + message.format("n" * 77 + "...") + "\n"
    assert len(err.encode()) < 300


@pytest.mark.parametrize("name", ["ghost", "g" * 80], ids=["short", "80-characters"])
@pytest.mark.parametrize("case", range(len(_FAULT_IDS)), ids=_FAULT_IDS)
def test_a_fault_quotes_an_unknown_name_of_80_characters_whole(tmp_path, capsys, case, name):
    command, doc, message = _unknown_name_cases(name)[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "error: " + message.format(name) + "\n"


def _declared_name_cases(name: str):
    """A command and a document that declares the name, whose fault quotes
    it, with the message."""
    poset = {"type": "poset", "elements": [name, "b"], "covers": [[name, "b"]]}
    arrow = {"type": "category", "objects": ["A", "B"],
             "morphisms": [{"name": name, "dom": "A", "cod": "B"}]}
    endo = {"type": "category", "objects": ["A"],
            "morphisms": [{"name": name, "dom": "A", "cod": "A"}]}
    return [
        ("check", {**poset, "covers": [[name, "b"], ["b", name]]},
         "poset: antisymmetry fails on {}, b"),
        ("oracle", {"type": "diagram", "shape": poset, "carriers": {name: [1]}},
         "diagram: carrier of '{}' must be a list of string labels"),
        ("check", {**endo, "morphisms": endo["morphisms"] * 2},
         "category: morphism name '{}' is given to both the arrow 'A' -> 'A' "
         "and the arrow 'A' -> 'A'"),
        ("check", endo, "category: no entry for ({0}, {0})"),
        ("check", {**endo, "compose": [[name, name, name], [name, name, "id_A"]]},
         "category: conflicting compose entries for ({0}, {0})"),
        ("check", {**endo, "compose": [[name, name, name], [name, "id_A", "id_A"]]},
         "category: ({}, id_A, id_A) breaks the right identity law"),
        ("check", {**endo, "compose": [[name, name, name], ["id_A", name, "id_A"]]},
         "category: (id_A, {}, id_A) breaks the left identity law"),
        ("oracle", {"type": "diagram", "shape": arrow},
         "diagram: missing action for morphism '{}'"),
        ("oracle", {"type": "diagram", "shape": arrow,
                    "carriers": {"A": ["x", "y"], "B": ["z"]},
                    "actions": {name: [["x", "z"], ["y", "z"]]}},
         "action of {} is not injective"),
        ("oracle", {"type": "diagram", "shape": {"type": "category", "objects": [name]},
                    "carriers": {name: ["x", "x"]}},
         "carrier of {} has duplicate labels"),
        ("check", {"type": name}, "expected a category or poset document, got '{}'"),
        ("validate", {**arrow, "pinv": {}}, "{} has no pseudoinverse"),
        ("validate", {**endo, "morphisms": [], "pinv": {name: "id_A"}},
         "pinv: unknown morphism in '{}': 'id_A'"),
        ("validate", {"type": name}, "cannot validate documents of type '{}'"),
    ]


_DECLARED_IDS = ["cycle", "carrier", "twin-arrows", "missing-entry", "conflict",
                 "identity-law", "left-identity-law", "missing-action", "not-injective",
                 "duplicate-labels", "type", "no-pseudoinverse", "pinv", "validate-type"]
# A declared value that is not a string is quoted as its text is, cut alike.
_LIST_TYPE = ("validate", {"type": ["n"] * 50_000},
              "cannot validate documents of type '" + repr(["n"] * 20)[:77] + "...'")


@pytest.mark.parametrize("case", range(len(_DECLARED_IDS) + 1),
                         ids=_DECLARED_IDS + ["validate-list-type"])
def test_a_fault_cuts_a_long_declared_name_short(tmp_path, capsys, case):
    """A name the input declares, of 100,000 characters, is quoted as its
    first 77 and ``...`` wherever a fault names it."""
    command, doc, message = [*_declared_name_cases("n" * 100_000), _LIST_TYPE][case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: " + message.format("n" * 77 + "...") + "\n"
    assert len(err.encode()) < 300


@pytest.mark.parametrize("name", ["ghost", "g" * 80], ids=["short", "80-characters"])
@pytest.mark.parametrize("case", range(len(_DECLARED_IDS)), ids=_DECLARED_IDS)
def test_a_fault_quotes_a_declared_name_of_80_characters_whole(tmp_path, capsys, case, name):
    command, doc, message = _declared_name_cases(name)[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "error: " + message.format(name) + "\n"


def test_an_os_error_on_out_exits_2(tmp_path, monkeypatch, capsys):
    """``--out`` naming a directory, or a path below a file, is refused by
    the system: one error line and exit 2, as for a missing directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.json").write_text("kept")
    cases = [
        (["check", "span", "--out", "."], "[Errno 21] Is a directory: '.'"),
        (["check", "span", "--out", "file.json/x"], "[Errno 20] Not a directory: 'file.json/x'"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    assert (tmp_path / "file.json").read_text() == "kept"


_CATEGORY_A = {"type": "category", "objects": ["A"]}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("check", {"type": "poset", "elements": ["a"], "covers": 5},
         "poset: covers must be a list of [low, high] pairs"),
        ("check", {"type": "poset", "elements": ["a"], "covers": None},
         "poset: covers must be a list of [low, high] pairs"),
        ("check", {**_CATEGORY_A, "morphisms": 5},
         "category: morphisms must be a list of name/dom/cod entries"),
        ("check", {**_CATEGORY_A, "morphisms": None},
         "category: morphisms must be a list of name/dom/cod entries"),
        ("check", {**_CATEGORY_A, "compose": 7},
         "category: compose must be a list of [g, f, result] triples"),
        ("validate", {**_CATEGORY_A, "pinv": 5},
         "pinv: must be an object from morphism names to morphism names"),
        ("validate", {**_CATEGORY_A, "pinv": ["x"]},
         "pinv: must be an object from morphism names to morphism names"),
        ("validate", {**_CATEGORY_A, "pinv": {"id_A": []}},
         "pinv: unknown morphism in 'id_A': '[]'"),
        ("check", {**_CATEGORY_A, "morphisms": [{"name": "f", "dom": "A"}]},
         "category: morphism entries need name/dom/cod fields: {'name': 'f', 'dom': 'A'}"),
        ("oracle", {"type": "diagram", "shape": 5},
         "diagram: shape must be a path or an inline document"),
        ("oracle", {"type": "diagram", "shape": {"type": "poset", "elements": ["a"]},
                    "carriers": []},
         "diagram: carriers must map object names to element lists"),
        ("oracle", {"type": "diagram", "shape": {"type": "poset", "elements": ["a"]},
                    "actions": []},
         "diagram: actions must map morphism names to pair lists"),
    ],
    ids=["covers-5", "covers-null", "morphisms-5", "morphisms-null", "compose-7",
         "pinv-5", "pinv-list", "pinv-list-value", "morphism-without-cod", "shape-5",
         "carriers-list", "actions-list"],
)
def test_malformed_container_fields_are_input_errors(tmp_path, capsys, command, doc, message):
    """A list field given as a scalar or null, or a pseudoinverse map that
    is no object or names no morphism, exits 2 naming the field: exit 1
    would say the shape is not amalgamable."""
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"type": "poset", "elements": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "maximum recursion depth exceeded"),
        (b"\xff\xfe{", "'utf-16-le' codec can't decode byte 0x7b"),
    ],
    ids=["nested-past-the-recursion-limit", "truncated-utf-16"],
)
def test_load_document_names_the_path_of_bytes_that_do_not_decode(
    tmp_path, capsys, data, message
):
    path = tmp_path / "shape.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as caught:
        serialize.load_document(path)
    assert str(caught.value).startswith(f"{clip(path)}: ") and message in str(caught.value)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {clip(path)}: ") and message in err


def test_gen_names_a_size_that_is_not_an_integer(capsys):
    assert main(["gen", "poset", "abc"]) == 2
    assert "SIZE must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gen", "poset", "3", "9", "junk"], "gen poset expects at most 2 input argument(s)"),
    (["gen", "poset", "3", "9"], "gen poset expects at most 2 input argument(s)"),
    (["gen", "forest", "3", "--seed", "2", "4"], "gen forest expects at most 2 input argument(s)"),
    (["gen", "diagram", "span", "extra"], "gen diagram expects 2 input argument(s)"),
    (["gen", "diagram"], "gen diagram expects a shape path or corpus name"),
    (["gen"], "gen expects a kind: poset | forest | nonforest | diagram"),
])
def test_gen_rejects_a_wrong_number_of_inputs(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
