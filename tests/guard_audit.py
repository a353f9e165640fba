"""Guard-deletion audit of the package: can every guard fail?

Each ``raise`` statement and each ``return False`` in ``src/amalgam`` is
replaced, one at a time, by ``pass``, and tier-1 is run with ``-x`` on a
copy of the repository that holds the mutant.  A mutant that stays green
is a survivor: no test shows that its guard can fire.  A survivor listed
in ``KEPT`` is kept on purpose, with the reason given there; any other
survivor is reported, and so is a ``KEPT`` entry whose guard a test now
kills or that names no guard.  The exit status is 0 when neither occurs.

Too slow for tier-1: about half an hour with two workers.  Run it by hand
from anywhere, with pytest and hypothesis installed:

    python tests/guard_audit.py [--jobs 2] [MODULE ...]

MODULE limits the audit to those modules of the package, by file stem
(``diagram``, ``fincat``, ...).  A mutant whose run takes longer than
``TIMEOUT_S`` counts as killed.  ``tests/test_guard_audit.py`` checks in
tier-1 that each ``KEPT`` entry names exactly one guard.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amalgam"
# The kept table's own test reads the source, so it would kill every kept
# mutant; the audit asks only whether a test of behaviour can.
TIER_1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
          "--ignore=tests/test_guard_audit.py"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".benchmarks", ".bench-*", "*.pyc")
TIMEOUT_S = 300  # tier-1 takes about 40 s unmutated

# (module, enclosing function, guard text, reason) of each guard that
# survives the audit on purpose.
KEPT = (
    ("diagram", "in_target", "return False",
     "equivalent mutant: the None that pass returns is as falsy as False"),
)


@dataclass(frozen=True)
class Guard:
    module: str
    function: str  # the innermost enclosing def, or "<module>"
    text: str
    span: tuple[int, int, int, int]  # start line, start column, end line, end column

    def __str__(self) -> str:
        return f"{self.module}.py:{self.span[0]} {self.function}: {self.text.splitlines()[0]}"


def guards(package: Path = PACKAGE) -> list[Guard]:
    """Every ``raise`` and ``return False`` of the package's modules, in
    module and line order."""
    return [g for path in sorted(package.glob("*.py"))
            for g in module_guards(path.stem, path.read_text(encoding="utf-8"))]


def module_guards(module: str, source: str) -> list[Guard]:
    """The guards of one module's source, in line order.  AST columns count
    UTF-8 bytes, so a guard's text is cut from the lines as bytes."""
    out, lines = [], source.encode("utf-8").splitlines(keepends=True)

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) or (
                isinstance(child, ast.Return)
                and isinstance(child.value, ast.Constant)
                and child.value.value is False
            ):
                span = (child.lineno, child.col_offset, child.end_lineno, child.end_col_offset)
                start, col, end, end_col = span
                text = b"".join(lines[start - 1:end])
                text = text[col:len(text) - len(lines[end - 1]) + end_col].decode("utf-8")
                out.append(Guard(module, function, text, span))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    out.sort(key=lambda g: g.span)
    return out


def mutant(source: str, guard: Guard) -> str:
    """The source with the guard's statement replaced by ``pass``.  AST
    columns count UTF-8 bytes, so the lines are cut as bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    start, col, end, end_col = guard.span
    head, tail = lines[start - 1][:col], lines[end - 1][end_col:]
    lines[start - 1:end] = [head + b"pass" + tail]
    return b"".join(lines).decode("utf-8")


def kept_matches(entry: tuple, found: list[Guard]) -> list[Guard]:
    module, function, text, _ = entry
    return [g for g in found if (g.module, g.function, g.text) == (module, function, text)]


def run_tier_1(copy: Path) -> str:
    """"passed", "failed" or "timeout" for tier-1 run on the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        done = subprocess.run([sys.executable, *TIER_1], cwd=copy, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def make_copy(work: Path, k: int) -> Path:
    """A copy of the repository, tier-1's data files included, without its
    history and caches."""
    return Path(shutil.copytree(ROOT, work / f"copy{k}", ignore=IGNORED))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help="file stems of the modules to audit")
    parser.add_argument("--jobs", type=int, default=2, help="copies run at once (default 2)")
    args = parser.parse_args(argv)
    found = guards()
    audited = [g for g in found if not args.modules or g.module in args.modules]
    kept = [entry for entry in KEPT if not args.modules or entry[0] in args.modules]
    with tempfile.TemporaryDirectory(prefix="guard-audit-") as tmp:
        copies: queue.Queue[Path] = queue.Queue()
        for k in range(max(1, args.jobs)):
            copies.put(make_copy(Path(tmp), k))
        first = copies.get()
        if run_tier_1(first) != "passed":
            print("tier-1 fails on the unmutated copy: nothing to audit", file=sys.stderr)
            return 2
        copies.put(first)

        def audit(guard: Guard) -> tuple[Guard, str]:
            copy = copies.get()
            path = copy / "src" / "amalgam" / f"{guard.module}.py"
            source = path.read_text(encoding="utf-8")
            try:
                path.write_text(mutant(source, guard), encoding="utf-8")
                outcome = run_tier_1(copy)
            finally:
                path.write_text(source, encoding="utf-8")
                copies.put(copy)
            print(f"{outcome:>8}  {guard}", flush=True)
            return guard, outcome

        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            results = list(pool.map(audit, audited))
    survivors = {g for g, outcome in results if outcome == "passed"}
    on_purpose = {g for entry in kept for g in kept_matches(entry, found)}
    faults = [f"survives, not kept: {g}" for g in sorted(survivors - on_purpose, key=str)]
    faults += [f"kept, but a test kills it: {g}" for g in sorted(on_purpose - survivors, key=str)]
    faults += [f"kept entry names {len(kept_matches(e, found))} guards: {e[:3]}"
               for e in kept if len(kept_matches(e, found)) != 1]
    print(f"{len(results)} mutants, {len(survivors)} survive, "
          f"{len(survivors & on_purpose)} of them kept on purpose")
    for line in faults:
        print(line)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
