"""``cli.main`` pauses the cyclic collector while a command runs and leaves
it as it found it on every way out.  A command's objects form no cycles,
so reference counting frees them all and the pause keeps no garbage."""

import gc

import pytest

from amalgam import cli
from amalgam.cli import main


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched on or off for the test, and put back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "argv, code",
    [(["check", "span"], 0), (["check", "boat"], 1), (["check", "--bogus"], 2),
     (["check", "no_such_shape"], 2), (["-h"], 0)],
    ids=["exit-0", "exit-1", "exit-2-arguments", "exit-2-input", "help"],
)
def test_main_leaves_the_collector_as_it_found_it(collector, monkeypatch, capsys, argv, code):
    seen = []
    handler, arity = cli.HANDLERS["check"]

    def check(config):
        seen.append(gc.isenabled())
        return handler(config)

    monkeypatch.setitem(cli.HANDLERS, "check", (check, arity))
    assert main(argv) == code
    assert gc.isenabled() is collector
    assert not any(seen)  # paused while a command ran


def test_main_leaves_the_collector_as_it_found_it_when_a_command_raises(
    collector, monkeypatch
):
    seen = []

    def crash(config):
        seen.append(gc.isenabled())
        raise RuntimeError("crash")

    monkeypatch.setitem(cli.HANDLERS, "check", (crash, 1))
    with pytest.raises(RuntimeError, match="crash"):
        main(["check", "span"])
    assert seen == [False]
    assert gc.isenabled() is collector


def test_no_command_on_the_corpus_leaves_cyclic_garbage(tmp_path, capsys):
    diagram = str(tmp_path / "diagram.json")
    runs = [
        ["check", "boat"],
        ["check", "span", "--format", "structured"],
        ["check", "bowtie", "--format", "structured"],
        ["check", "inverse_z2", "--format", "structured"],
        ["explain", "nonforest6"],
        ["witness", "bowtie"],
        ["oracle", "bowtie_diagram"],
        ["gen", "diagram", "span", "--out", diagram],
        ["cocone", "span", diagram],
        ["oracle", diagram],
        ["validate", diagram],
        ["validate", "inverse_pinj2"],
        ["gen", "nonforest", "6"],
    ]
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for argv in runs:
            assert main(argv) in (0, 1), argv
            assert gc.collect() == 0, argv
    finally:
        if was:
            gc.enable()


def test_reading_the_colimit_classes_leaves_no_cyclic_garbage():
    """The classes view a colimit caches holds its numbers, not the colimit,
    so a read colimit is freed by reference counting alone."""
    from amalgam import corpus, serialize
    from amalgam.diagram import collision_zigzag, has_cocone

    diagram = serialize.diagram_from_doc(serialize.load_document(corpus.resolve("bowtie_diagram")))
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        r = has_cocone(diagram)
        assert len(r.colimit.classes) == r.colimit.count
        assert sum(map(len, r.colimit.classes)) == sum(map(len, diagram.carriers))
        collision_zigzag(diagram, r.colimit.collision)
        del r
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
