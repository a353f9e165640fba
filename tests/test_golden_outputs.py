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

from amalgam import corpus
from amalgam.cli import main

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
        for name in corpus.names():
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


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) != 3:
        raise SystemExit("usage: test_golden_outputs.py --write PATH")
    Path(sys.argv[2]).write_text(json.dumps(golden_outputs(), indent=1, sort_keys=True) + "\n")
