"""The command line: ``COMMAND [INPUTS...]`` with options anywhere, read by
``cli.parse_args`` and compared with the argparse reference in conftest."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import cli
from amalgam.cli import main
from amalgam.serialize import ParseError
from conftest import reference_config

VALID = {
    "--out": ("o.json", "-", "-5", "", "a b"),
    "--seed": ("0", "7", "-3", " 4"),
    "--max-size": ("5", "64"),
    "--format": ("text", "structured"),
}
INVALID = {
    "--out": ("--x", "-h"),
    "--seed": ("x", "", "1.5", "-h"),
    "--max-size": ("0", "-2", "big"),
    "--format": ("xml", "", "--out"),
}
PREFIXES = {
    "--out": ("--o", "--ou"),
    "--seed": ("--s", "--se", "--see"),
    "--max-size": ("--m", "--max", "--max-s"),
    "--format": ("--f", "--fo", "--form"),
}
COMMANDS = tuple(sorted(cli.HANDLERS))
NOT_COMMANDS = ("bogus", "")
INPUTS = ("boat", "span", "a.json", "-7", "-0.5", "-", "", "x y", "--no such", "=")
UNKNOWN = ("-x", "--bogus", "-1e5", "---out", "--=x", "-o")


def rarely(draw, common, rare):
    """A draw from common, or one time in eight from rare."""
    return draw(st.sampled_from(rare if draw(st.integers(0, 7)) == 0 else common))


@st.composite
def option_chunks(draw):
    """One option in one of its spellings, with a value or without one."""
    option = draw(st.sampled_from(sorted(VALID)))
    name = draw(st.sampled_from((option, *PREFIXES[option])))
    value = rarely(draw, VALID[option], INVALID[option])
    form = rarely(draw, ("separate", "equals"), ("bare",))
    if form == "separate":
        return [name, value]
    if form == "equals":
        return [f"{name}={value}"]
    return [name]


@st.composite
def tail_chunks(draw):
    """An input (a command name is one too), an option, or a stray token."""
    kind = rarely(draw, ("input", "input", "option"), ("unknown",))
    if kind == "option":
        return draw(option_chunks())
    return [draw(st.sampled_from(INPUTS + COMMANDS if kind == "input" else UNKNOWN))]


@st.composite
def argvs(draw):
    """Argument lists over the grammar's tokens: options, a command, then
    inputs mixed with options and stray tokens, and at most one '--' (the
    reference's handling of a second one differs between Python versions)."""
    head = draw(st.lists(option_chunks(), max_size=2))
    command = rarely(draw, [[c] for c in COMMANDS], [[c] for c in NOT_COMMANDS] + [[]])
    tail = draw(st.lists(tail_chunks(), max_size=5))
    argv = [t for chunk in head + [command] + tail for t in chunk]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--")
    return argv


def intermixed(argv):
    """The reference's ``parse_intermixed_args``, which also reads an option
    after '--' as an option; the test gives it such tokens masked as
    'P<i>' inputs and unmasks them in its config."""
    if "--" not in argv:
        return reference_config(argv, intermixed=True)
    k = argv.index("--") + 1
    mask = {f"P{i}": t for i, t in enumerate(argv[k:]) if t.startswith("-")}
    unmask = {t: m for m, t in mask.items()}
    config = reference_config(argv[:k] + [unmask.get(t, t) for t in argv[k:]], intermixed=True)
    if isinstance(config, cli.RunConfig):
        config.command = mask.get(config.command, config.command)
        config.inputs = tuple(mask.get(t, t) for t in config.inputs)
    return config


def parsed(argv):
    try:
        config = cli.parse_args(argv)
    except ParseError:
        return "exit 2"
    return "help" if config is None else config


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_parse_args_reads_what_the_reference_reads(argv):
    """The argparse config, or exit 2 where argparse exits 2.  The one
    difference: an input after an option, which plain ``parse_args``
    rejects and ``parse_intermixed_args`` reads."""
    ours = parsed(argv)
    reference = reference_config(argv)
    if reference != "exit 2":
        assert ours == reference
    else:
        assert ours == intermixed(argv)


@pytest.mark.parametrize("argv, config", [
    (["check", "boat"], ("check", ("boat",), None, 0, 64, "text")),
    (["--format", "structured", "check", "boat", "--out", "o"],
     ("check", ("boat",), "o", 0, 64, "structured")),
    (["gen", "--seed", "3", "poset", "--max-size=9", "5"],
     ("gen", ("poset", "5"), None, 3, 9, "text")),
    (["gen", "poset", "-3", "--se=-4"], ("gen", ("poset", "-3"), None, -4, 64, "text")),
    (["check", "--", "--out", "-x"], ("check", ("--out", "-x"), None, 0, 64, "text")),
    (["check", "a", "--", "b", "--", "c"], ("check", ("a", "b", "--", "c"), None, 0, 64, "text")),
    (["check", "x", "--out", "-"], ("check", ("x",), "-", 0, 64, "text")),
])
def test_options_anywhere(argv, config):
    assert cli.parse_args(argv) == cli.RunConfig(*config)


def test_an_input_after_an_option_is_read(capsys):
    """argparse's ``parse_args`` (before Python 3.13) read this argv as
    'unrecognized arguments: boat' and exited 2."""
    assert main(["check", "--format", "structured", "boat"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["type"] == "verdict" and not verdict["amalgamable_ap_jep"]
    assert reference_config(["check", "a", "--seed", "3", "b"]) == "exit 2"
    assert cli.parse_args(["check", "a", "--seed", "3", "b"]).inputs == ("a", "b")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["check", "boat", "-h"],
                                  ["-h", "bogus", "--seed", "x"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: amalgam COMMAND") and "--max-size" in out


@pytest.mark.parametrize("argv, token", [
    (["check", "span", "--bogus"], "--bogus"),
    (["check", "-x", "span"], "-x"),
    (["check", "span", "--seed"], "--seed"),
    (["check", "span", "--out", "--format", "text"], "--out"),
    (["check", "span", "--seed", "x"], "'x'"),
    (["check", "span", "--format", "xml"], "'xml'"),
    (["frobnicate", "span"], "'frobnicate'"),
    (["--seed", "3"], "COMMAND"),
    (["check", "span", "--max-size", "0"], "--max-size"),
    (["check", "span", "-hx"], "-hx"),
])
def test_a_bad_argument_exits_2_naming_it(argv, token, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and token in err


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["amalgam", "check", "--format", "structured", "span"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["amalgamable_ap_jep"] is True


LONG = "x" * 100_000


@pytest.mark.parametrize("argv, message", [
    ([LONG], "unknown command 'xxx"),
    (["check", "--" + LONG], "unrecognized option '--xxx"),
    (["check", "-h" + LONG], "unrecognized option '-hxxx"),
    (["--help=" + LONG, "check"], ": --help takes no value"),
    (["check", "span", "--format", LONG], "--format must be text or structured, got 'xxx"),
    (["gen", "poset", "--seed", LONG], "--seed expects an integer, got 'xxx"),
    (["gen", "poset", "--max-size", LONG], "--max-size expects an integer, got 'xxx"),
    (["gen", "poset", LONG], "SIZE must be an integer, got 'xxx"),
    (["gen", LONG], "unknown generator kind 'xxx"),
    (["gen", LONG, "1", "2"], "expects at most 2 input argument(s)"),
    (["gen", "poset", "0", "--max-size", "9" * 4000], "size must be in 1..999"),
    (["check", LONG], "no such file or corpus entry: xxx"),
    (["validate", LONG + ".json"], "no such file or corpus entry: xxx"),
], ids=["command", "option", "short-option", "help-value", "format", "seed", "max-size", "size",
        "kind", "kind-arity", "size-bound", "shape", "document"])
def test_a_long_argument_is_quoted_cut_short(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "..." in captured.err and len(captured.err.encode()) < 300


@pytest.mark.parametrize("argv", [
    ["check", "a/" + LONG],
    ["check", "chain3", "--out", LONG],
    ["cocone", "chain3", "b/" + LONG],
    ["oracle", "long_shape.json"],
    ["validate", "long_shape.json"],
], ids=["shape", "out", "diagram", "oracle-shape-field", "validate-shape-field"])
def test_a_long_path_the_os_refuses_is_quoted_cut_short(argv, tmp_path, monkeypatch, capsys):
    """The OS's reason stays; the path it names, and the document that
    names it, are quoted clipped."""
    monkeypatch.chdir(tmp_path)
    doc = {"type": "diagram", "shape": "s/" + LONG, "carriers": {}, "actions": {}}
    (tmp_path / "long_shape.json").write_text(json.dumps(doc))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "[Errno " in captured.err
    assert "..." in captured.err and len(captured.err.encode()) < 300
    assert sorted(p.name for p in tmp_path.iterdir()) == ["long_shape.json"]
