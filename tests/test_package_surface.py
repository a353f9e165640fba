"""What the package ships: the oracles and views that only the tests read
live in `tests/` (`oracles.py`, `groups.py`, `pinj.py`), `amalgam` exports
none of them, every module-level definition of the package is read by the
package, no module of the package imports from `tests/`, each shape has one
constructor, and the decider's result records store no field that is
derived from another."""

import ast
import importlib
import importlib.util
import inspect
import symtable
import sys
from pathlib import Path

import amalgam
from amalgam.decide import Verdict
from amalgam.diagram import CoconeResult, Collision, ColimitResult, ShapeAnalysis
from amalgam.fincat import FinCategory, category
from amalgam.poset import FinPoset, NonForestWitness

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "amalgam"
EXPORTS_MOVED = (
    "shrink_witness", "is_monic", "check_inverse_laws", "is_idempotent_category",
    "wagner_preston", "components", "simply_connected_bounded", "FunctorMap",
    "PartialInjection", "congruence_close", "connected_components",
    "CertificateEvidence", "RefutationEvidence", "Congruence",
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
    ("fincat", "connected_components"), ("fincat", "Congruence"),
    ("fincat", "_Closure.congruence"), ("poset", "FinPoset.up"), ("corpus", "path"),
    ("poset", "FinPoset.from_covers"), ("poset", "FinPoset.cover_pairs"),
    ("poset", "FinPoset._covers"), ("poset", "FinPoset.down"), ("poset", "FinPoset.identity"),
    ("poset", "_mask"), ("poset", "FinPoset.generators"), ("poset", "FinPoset.comparable"),
    ("corpus", "names"),
    ("decide", "CertificateEvidence"), ("decide", "RefutationEvidence"), ("decide", "Verdict.usc"),
    ("diagram", "CoconeResult.exists"), ("diagram", "CoconeResult.collision"),
    ("diagram", "Collision.nodes"), ("diagram", "Collision.steps"),
    ("diagram", "_element_zigzag"),
    ("gen", "all_posets"), ("gen", "_canonical"), ("gen", "_class_perms"),
    ("gen", "random_endo_word"),
    ("serialize", "inverse_to_doc"), ("serialize", "load_diagram"),
    ("pinj", "PartialInjection.defined_on"), ("pinj", "PartialInjection.domain"),
    ("pinj", "PartialInjection.image"), ("pinj", "PartialInjection.restrict"),
    ("pinj", "PartialInjection.is_total"), ("pinj", "PartialInjection.is_partial_identity"),
)
# Facts each record reads off its fields instead of storing them.
DERIVED = {
    Verdict: ("amalgamable_ap_jep", "amalgamable_ap_only"),
    ShapeAnalysis: ("preorder", "usc"),
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


def annotations(node: ast.AST) -> list[ast.expr]:
    """The annotations a node carries: its parameters', its return's or an
    annotated assignment's."""
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    return [node.annotation] if isinstance(node, ast.AnnAssign) else []


def module_reads(module: str, source: str, path: Path) -> set[tuple[str, str]]:
    """(module, name) of each module-level definition of the package that
    the module's source reads.  ``symtable`` resolves the scopes: a name the
    module's own scope loads, or one that a nested scope loads as a global,
    outside the top-level scope that defines it.  Annotations count, though
    ``from __future__ import annotations`` keeps them out of the symbol
    tables.  So do a name imported with ``from .M import name`` and
    ``alias.name`` for an ``alias`` that ``from . import M [as alias]``
    binds to module M."""
    top = symtable.symtable(source, str(path), "exec")
    reads = {(module, s.get_name()) for s in top.get_symbols() if s.is_referenced()}
    for child in top.get_children():
        tables = [child]
        while tables:
            table = tables.pop()
            tables += table.get_children()
            reads |= {(module, s.get_name()) for s in table.get_symbols()
                      if s.is_referenced() and s.is_global() and s.get_name() != child.get_name()}
    tree = ast.parse(source)
    aliases = {
        n.asname or n.name: n.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for n in node.names
    }
    for statement in tree.body:
        own = defined_names(statement)
        for node in ast.walk(statement):
            reads |= {(module, n.id) for a in annotations(node) for n in ast.walk(a)
                      if isinstance(n, ast.Name) and n.id not in own}
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    reads.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reads |= {(node.module, n.name) for n in node.names}
    return reads


def unread_definitions(src: Path) -> tuple[list[tuple[str, str]], list[str]]:
    """(module, name) of each module-level definition under src, and
    ``module.name`` of each that no module reads, ``__init__.py`` aside."""
    defined, read = [], set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        defined += [(path.stem, name) for s in ast.parse(source).body for name in defined_names(s)]
        read |= module_reads(path.stem, source, path)
    return defined, [f"{module}.{name}" for module, name in defined if (module, name) not in read]


def test_every_module_level_definition_is_read_by_the_package():
    """A definition that no module of the package reads, outside its own
    definition and the ``amalgam`` exports (``__init__.py``), is kept for the
    tests alone and belongs in `tests/`; only the functions kept for an
    `amalgam verify` command and the Library constructor are exempt.  Names
    resolve per module: a local variable or a parameter of the same name is
    not a read.  `bench/` is not scanned: `bench/spans.py` names its targets
    whether or not a command calls them."""
    exempt = {f"{getattr(amalgam, name).__module__.rpartition('.')[2]}.{name}"
              for name in (*KEPT_FOR_VERIFY, LIBRARY_CONSTRUCTOR)}
    defined, unread = unread_definitions(SRC)
    assert ("decide", "decide") in defined  # the scan found the package's sources
    assert [name for name in unread if name not in exempt] == []


def test_the_surface_scan_resolves_names_per_module(tmp_path):
    """Only a load that reaches the module-level name (from a class body
    too, but not past a match capture), an import of it from its module, or
    an attribute of an alias bound to its module reads it."""
    sources = {
        "m": """
def kept(): pass
def shadowed(): pass
def parameter(): pass
def comprehended(): pass
def imported(): pass
def attribute(): pass
def recursive(): return recursive()
def annotated(): pass
def elsewhere(): pass
def classed(): pass
def matched(): pass

def user(parameter, x: annotated):
    shadowed = 1
    def inner():
        return shadowed, parameter
    class Local:
        held = classed
    match x:
        case matched:
            pass
    return [comprehended for comprehended in x], kept(), inner, Local
""",
        "a": """
from __future__ import annotations
from . import m as mod
from .m import imported

def hint(): pass

def reader(elsewhere) -> hint:
    return mod.attribute, mod.user, elsewhere.elsewhere
""",
    }
    for name, text in sources.items():
        (tmp_path / f"{name}.py").write_text(text, encoding="utf-8")
    assert unread_definitions(tmp_path)[1] == [
        "a.reader", "m.shadowed", "m.parameter", "m.comprehended", "m.recursive", "m.elsewhere",
        "m.matched",
    ]


def test_each_shape_has_one_constructor():
    """A poset is built from its covers alone, and a category's identities
    are its first ``len(objects)`` morphisms."""
    assert list(inspect.signature(FinPoset).parameters) == ["elements", "covers"]
    assert list(inspect.signature(FinCategory).parameters) == ["objects", "morphisms", "table"]
    assert [name for name, value in vars(FinPoset).items() if isinstance(value, classmethod)] == []


def test_the_result_records_hold_their_facts_and_no_forwarding_layer():
    """A verdict holds its analysis and its cocone-free diagram, a collision
    its two elements and no zigzag, an oracle answer its cocone and colimit,
    and a non-forest witness what the decomposition found."""
    assert Verdict._fields == ("connected", "analysis", "diagram", "trace")
    assert Collision._fields == ("obj", "x", "y")
    assert list(inspect.signature(Collision).parameters) == ["obj", "x", "y"]
    assert CoconeResult._fields == ("cocone", "colimit")
    assert [name for name in vars(CoconeResult) if not name.startswith("_")] == []
    assert NonForestWitness._fields == ("x", "component", "upset_components")


def test_each_shape_lists_its_generators_once():
    shapes = (category(["A", "B"], [("f", "A", "B")]), FinPoset(["a", "b"], [(0, 1)]))
    for shape in shapes:
        assert shape.generator_ends == ((2, 0, 1),)
        assert not hasattr(shape, "generators")


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
