"""Smoke test of the benchmark: every workload, the checker and the traced run
at tiny sizes, and proof that corrupted outputs are counted as failed."""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_runs_every_workload_untraced_and_traced():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "3"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = _results(proc.stdout)
    assert len(results) == 2 * len(inputs.WORKLOADS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for k, result in enumerate(results):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == (per_layer if k % 2 else end_to_end)
    assert {w["name"] for w in SPEC["workloads"]} == set(inputs.WORKLOADS)


class Corrupting:
    """Stands in for ``amalgam.cli``: runs the real command, then edits the
    output document it wrote."""

    def __init__(self, cli, edit):
        self.cli, self.edit = cli, edit

    def main(self, argv):
        code = self.cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads(out.read_text())
        self.edit(doc)
        out.write_text(json.dumps(doc))
        return code


def _attempt(op, tmp_path, edit=None):
    cli = run.import_cli()
    for name, doc in op.files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    _, failure = run.attempt(cli if edit is None else Corrupting(cli, edit), op, tmp_path)
    return failure


def flip_first_cover(verdict: dict) -> None:
    """Swap a certificate node's point with its first child's point, which
    reverses the cover between them."""
    node = verdict["evidence"]["certificate"]["trees"][0]
    child = node["children"][0]
    node["point"], child["point"] = child["point"], node["point"]


def change_first_action(verdict: dict) -> None:
    """Send the first element of the first action to another element of the
    codomain carrier."""
    diagram = verdict["evidence"]["diagram"]
    name = sorted(diagram["actions"])[0]
    pairs = diagram["actions"][name]
    cod = next(m["cod"] for m in diagram["shape"]["morphisms"] if m["name"] == name)
    pairs[0][1] = next(e for e in diagram["carriers"][cod] if e != pairs[0][1])


def test_flipped_cover_in_a_certificate_counts_as_failed(tmp_path):
    doc = inputs.poset_doc(inputs.chain(4), random.Random(1))
    op = inputs.Op(("check", "c.json", "--format", "structured"), {"c.json": doc},
                   0, "verdict", "c.json", "chain 4")
    assert _attempt(op, tmp_path) is None
    assert _attempt(op, tmp_path, flip_first_cover) is not None


def test_changed_action_in_a_witness_counts_as_failed(tmp_path):
    doc = inputs.poset_doc(inputs.crown(2), random.Random(1))
    op = inputs.Op(("check", "b.json", "--format", "structured"), {"b.json": doc},
                   1, "verdict", "b.json", "bowtie")
    assert _attempt(op, tmp_path) is None
    assert _attempt(op, tmp_path, change_first_action) is not None


def test_quantile_agrees_with_the_sample_quantile():
    rng = random.Random(5)
    values = [rng.expovariate(1) for _ in range(2000)]
    for p, plain in ((0.5, statistics.median(values)),
                     (0.9, statistics.quantiles(values, n=10)[-1])):
        assert abs(run.quantile(values, p) - plain) < 0.03 * plain
    assert run.quantile([3.0], 0.9) == 3.0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and this directory, the run fails and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shapes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not _results(proc.stdout)
