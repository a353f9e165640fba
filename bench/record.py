"""Record the exit codes of inputs whose verdict no construction fixes.

Usage, from the repository root:  python3 bench/record.py

Writes ``bench/expected.json``.  Run it only at the commit the benchmark was
written against: afterwards the file is the reference that later commits are
checked against, so regenerating it would hide a changed verdict.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from amalgam import cli  # noqa: E402


def exit_code(doc: dict, workdir: Path) -> int:
    path = workdir / "input.json"
    path.write_text(json.dumps(doc))
    return cli.main(["check", str(path), "--format", "structured",
                     "--out", str(workdir / "out.json")])


def main() -> None:
    rng = random.Random(0)
    table: dict[str, dict[str, int]] = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        workdir = Path(tmp)
        table["poset-sweep"] = {
            inputs.canonical_key(up): exit_code(inputs.poset_doc(list(up), rng), workdir)
            for up in inputs.all_posets(6)
        }
        table["large-posets"] = {
            f"dag-{n}-{seed}": exit_code(
                inputs.poset_doc(inputs.sparse_dag(n, random.Random(seed)), rng), workdir
            )
            for n, seed in inputs.DAG_POOL
        }
        corpus_dir = ROOT / "src" / "amalgam" / "corpus"
        table["monoids"] = {
            name: exit_code(json.loads((corpus_dir / f"{name}.json").read_text()), workdir)
            for name in inputs.CORPUS_CATEGORIES
        }
    inputs.EXPECTED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for workload, codes in table.items():
        zeros = sum(1 for c in codes.values() if c == 0)
        print(f"{workload}: {len(codes)} inputs, {zeros} exit 0")


if __name__ == "__main__":
    main()
