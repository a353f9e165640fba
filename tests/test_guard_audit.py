"""The guard audit's kept table and mutants, checked without running the
audit itself, which ``tests/guard_audit.py`` does by hand."""

from guard_audit import KEPT, PACKAGE, guards, kept_matches, module_guards, mutant


def test_each_kept_entry_names_exactly_one_guard_of_the_package():
    found = guards()
    for entry in KEPT:
        assert len(kept_matches(entry, found)) == 1, entry
        assert entry[3], entry


def test_each_mutant_parses_and_loses_only_its_guard():
    """The audit's mutant of a guard is valid Python with one guard fewer:
    the others keep their text."""
    found = guards()
    assert found
    for guard in found:
        source = (PACKAGE / f"{guard.module}.py").read_text(encoding="utf-8")
        others = [(g.function, g.text) for g in found if g.module == guard.module and g != guard]
        after = [(g.function, g.text) for g in module_guards(guard.module, mutant(source, guard))]
        assert after == others, guard
