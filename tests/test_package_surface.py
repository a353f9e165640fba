"""What the package ships: the oracles and views that only the tests read
live in `tests/` (`oracles.py`, `groups.py`, `pinj.py`), `amalgam` exports
none of them, every module-level definition of the package is read by the
package, no module of the package imports from `tests/`, and the decider's
result records store no field that is derived from another."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import amalgam
from amalgam.decide import CertificateEvidence, RefutationEvidence, Verdict
from amalgam.diagram import CoconeResult, Collision, ColimitResult, ShapeAnalysis

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "amalgam"
EXPORTS_MOVED = (
    "shrink_witness", "is_monic", "check_inverse_laws", "is_idempotent_category",
    "wagner_preston", "components", "simply_connected_bounded", "FunctorMap",
    "PartialInjection", "congruence_close", "connected_components",
)
# (module, attribute path) of every definition that left the package
MOVED = (
    ("poset", "simply_connected_bounded"), ("poset", "_component_presentation"),
    ("poset", "components"), ("poset", "closed_masks"),
    ("poset", "FinPoset.upward_closed_subsets"), ("poset", "FinPoset.restrict"),
    ("poset", "FinPoset.minimal"),
    ("invcat", "wagner_preston"), ("invcat", "PInjRepresentation"),
    ("invcat", "check_inverse_laws"), ("invcat", "is_idempotent_category"),
    ("invcat", "is_monic_morphism"),
    ("diagram", "shrink_witness"), ("diagram", "HasCocone"),
    ("diagram", "ColimitResult.class_of"), ("diagram", "ColimitResult.iota"),
    ("diagram", "Collision.word"), ("diagram", "ZigzagWord.is_endo"),
    ("diagram", "FinInjDiagram.actions"), ("diagram", "FinInjDiagram.action"),
    ("diagram", "FinInjDiagram.as_pinj"), ("diagram", "FinInjDiagram.carrier"),
    ("fincat", "is_monic"), ("fincat", "Congruence.from_parent"), ("fincat", "FunctorMap"),
    ("fincat", "congruence_close"), ("fincat", "NonParallelSeed"),
    ("fincat", "connected_components"), ("poset", "FinPoset.up"), ("corpus", "path"),
    ("gen", "all_posets"), ("gen", "_canonical"), ("gen", "_class_perms"),
    ("gen", "random_endo_word"),
    ("serialize", "inverse_to_doc"), ("serialize", "load_diagram"),
    ("pinj", "PartialInjection.defined_on"), ("pinj", "PartialInjection.domain"),
    ("pinj", "PartialInjection.image"), ("pinj", "PartialInjection.restrict"),
    ("pinj", "PartialInjection.is_total"), ("pinj", "PartialInjection.is_partial_identity"),
)
# Facts each record reads off its fields instead of storing them.
DERIVED = {
    Verdict: ("usc", "amalgamable_ap_jep", "amalgamable_ap_only"),
    RefutationEvidence: ("reason", "parallel_pair", "witness", "collision"),
    CertificateEvidence: ("certificate",),
    CoconeResult: ("exists", "collision"),
    ShapeAnalysis: ("preorder",),
}
KEPT_FOR_VERIFY = (
    "verify_certificate", "replay_certificate", "verify_witness", "zigzag_action",
    "upward_closure",
)
# The terse constructor of the README's Library example, which no command calls.
LIBRARY_CONSTRUCTOR = "category"


def has_path(owner, dotted: str) -> bool:
    for name in dotted.split("."):
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def test_the_package_exports_none_of_the_test_only_names():
    assert [name for name in EXPORTS_MOVED if hasattr(amalgam, name)] == []
    assert all(hasattr(amalgam, name) for name in KEPT_FOR_VERIFY)


def test_no_module_of_the_package_keeps_a_moved_definition():
    """A definition whose module left the package left with it."""
    left = [
        f"amalgam.{module}.{dotted}"
        for module, dotted in MOVED
        if importlib.util.find_spec(f"amalgam.{module}") is not None
        and has_path(importlib.import_module(f"amalgam.{module}"), dotted)
    ]
    assert left == []


def defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or class's,
    or an assignment's targets."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def names_read(node: ast.AST) -> set[str]:
    """Every name and attribute the node loads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def test_every_module_level_definition_is_read_by_the_package():
    """A definition that no module of the package reads, outside its own
    definition and the ``amalgam`` exports (``__init__.py``), is kept for the
    tests alone and belongs in `tests/`; only the functions kept for an
    `amalgam verify` command and the Library constructor are exempt.  A
    definition counts as read when its name is read anywhere in the package.
    `bench/` is not scanned: `bench/spans.py` names its targets whether or
    not a command calls them."""
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            names = defined_names(statement)
            defined += [(path.stem, name) for name in names]
            read |= names_read(statement) - set(names)
    assert ("decide", "decide") in defined
    exempt = {*KEPT_FOR_VERIFY, LIBRARY_CONSTRUCTOR}
    unread = [f"{module}.{name}" for module, name in defined
              if name not in read and name not in exempt]
    assert unread == []


def test_a_collision_takes_its_zigzag_only_as_a_search():
    assert list(inspect.signature(Collision).parameters) == ["obj", "x", "y", "search"]


def test_the_coset_enumerator_is_not_a_module_of_the_package():
    assert importlib.util.find_spec("amalgam.groups") is None
    assert not (SRC / "groups.py").exists()


def test_partial_injections_are_not_a_module_of_the_package():
    assert importlib.util.find_spec("amalgam.pinj") is None
    assert not (SRC / "pinj.py").exists()


def test_the_result_records_store_no_derived_field():
    for cls, derived in DERIVED.items():
        assert set(cls._fields).isdisjoint(derived), cls
        assert all(isinstance(getattr(cls, name), property) for name in derived), cls


def test_the_colimit_stores_its_class_rows_and_no_copy_of_them():
    assert ColimitResult._fields == ("diagram", "ids", "count", "collision")
    assert not hasattr(ColimitResult, "all_injective")
    assert "usc" not in Verdict._fields


def test_no_module_of_the_package_imports_from_tests():
    tests = {path.stem for path in TESTS.glob("*.py")}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top not in tests, (path.name, name)
                assert top == "amalgam" or top in sys.stdlib_module_names, (path.name, name)
