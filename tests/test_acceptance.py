"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import random

from amalgam import corpus, serialize
from amalgam.decide import decide
from amalgam.diagram import (
    colimit_set,
    has_cocone,
    validate_cocone,
    witness_no_cocone,
)
from amalgam.fincat import monic_reflection
from amalgam.gen import random_diagram_over_poset, random_forest
from amalgam.poset import ForestCertificate, is_forest_like
import conftest
from conftest import (
    ACCEPTANCE_LINES,
    boat_poset,
    brute_force_tree_like,
    build_cocone_forest,
    category_from_poset,
    corpus_names,
    partition_is_congruence,
    quotient_is_monic,
    set_partitions,
    small_category_suite,
)
from oracles import (
    all_posets,
    components,
    inverse_category,
    is_monic_morphism,
    is_partial_identity,
    is_total,
    random_endo_word,
    restrict,
    simply_connected_bounded,
    table_of,
    upward_closed_subsets,
    wagner_preston,
    word_pinj,
)


def _record(num: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_bowtie():
    """Bowtie: not amalgamable; emitted witness and the concrete two-point
    diagram are both cocone-free, the latter with a one-class colimit."""
    shape = serialize.load_shape(corpus.resolve("bowtie"))
    verdict = decide(shape)
    ok = not verdict.amalgamable_ap_jep and not verdict.amalgamable_ap_only
    ok = ok and verdict.diagram is not None
    ok = ok and not has_cocone(verdict.diagram)

    concrete = serialize.load_document(corpus.resolve("bowtie_diagram"))
    diagram = serialize.diagram_from_doc(concrete)
    colim = colimit_set(diagram)
    ok = ok and not has_cocone(diagram)
    ok = ok and len(colim.classes) == 1
    _record(1, ok, "bowtie refuted; concrete diagram cocone-free with 1-class colimit")


def test_criterion_2_boat_separates_simple_connectedness():
    """Boat: simply-connected yet not amalgamable, with an empty-bottom witness."""
    poset = boat_poset()
    ok = simply_connected_bounded(poset) is True
    shape = category_from_poset(poset)
    verdict = decide(shape)
    ok = ok and not verdict.amalgamable_ap_jep
    witness = verdict.diagram
    ok = ok and witness.carriers[shape.obj_index["E"]] == ()
    ok = ok and not has_cocone(witness)
    _record(2, ok, "boat is simply-connected but refuted via an empty-bottom witness")


def test_criterion_3_forest_iff_every_diagram_completes():
    """Exhaustive posets up to 6 elements: on 50 seeded diagrams each, the
    colimit cocone and the iterated-pushout builder both complete every
    diagram over a certified shape, with apexes of one size; refuted shapes
    yield oracle-failing witnesses."""
    posets = all_posets(6)
    n_forest = n_refuted = 0
    for n in range(0, 7):
        for k, poset in enumerate(posets[n]):
            cert = is_forest_like(poset)
            shape = category_from_poset(poset)
            if isinstance(cert, ForestCertificate):
                n_forest += 1
                rng = random.Random(n * 10007 + k)
                for _ in range(50):
                    diagram = random_diagram_over_poset(poset, rng, shape=shape)
                    cocone = build_cocone_forest(diagram, cert)
                    validate_cocone(diagram, cocone)
                    answer = has_cocone(diagram)
                    assert answer, (poset, diagram)
                    assert len(answer.cocone.apex) == len(cocone.apex)
            else:
                n_refuted += 1
                witness = witness_no_cocone(shape)
                assert not has_cocone(witness)
    _record(
        3,
        n_forest + n_refuted == 406,
        f"{n_forest} forest-like shapes x50 diagrams completed, "
        f"{n_refuted} witnesses oracle-refuted",
    )


def test_criterion_4_any_minimal_agreement():
    """Fixed least-index minimal choice agrees with the existential search on
    every component of every poset with at most 7 elements."""
    posets = all_posets(7)
    checked = 0
    for n in range(1, 8):
        for poset in posets[n]:
            for comp in components(poset, range(len(poset))):
                sub, _ = restrict(poset, comp)
                fixed = isinstance(is_forest_like(sub), ForestCertificate)
                roaming = brute_force_tree_like(sub)
                assert fixed == roaming, (poset, comp)
                checked += 1
    _record(4, checked > 3000, f"fixed and existential deciders agree on {checked} components")


def test_criterion_5_certificates_imply_simply_connected_cosieves():
    """Every upward-closed subset of a certified poset (size <= 6) passes the
    bounded simple-connectedness test."""
    posets = all_posets(6)
    checked = 0
    for n in range(0, 7):
        for poset in posets[n]:
            if not isinstance(is_forest_like(poset), ForestCertificate):
                continue
            for subset in upward_closed_subsets(poset):
                sub, _ = restrict(poset, subset)
                assert simply_connected_bounded(sub) is not False, (poset, subset)
                checked += 1
    _record(5, checked > 4000, f"{checked} upward-closed subsets were never refuted")


def test_criterion_6_monic_reflection_against_enumeration():
    """Reflection congruence is idempotent and equals the intersection of all
    congruences with monic quotient, enumerated over all partitions."""
    shapes = 0
    for cat in small_category_suite():
        assert len(cat.morphisms) <= 8
        refl, proj = monic_reflection(cat)
        again, proj2 = monic_reflection(refl)
        assert len(again.morphisms) == len(refl.morphisms)
        assert sorted(proj2) == list(range(len(refl.morphisms)))

        monic_congruences = [
            blocks
            for blocks in set_partitions(range(len(cat.morphisms)))
            if partition_is_congruence(cat, blocks) and quotient_is_monic(cat, blocks)
        ]
        assert monic_congruences
        for f in range(len(cat.morphisms)):
            for g in range(len(cat.morphisms)):
                in_all = all(
                    any(f in b and g in b for b in blocks)
                    for blocks in monic_congruences
                )
                assert (proj[f] == proj[g]) == in_all, cat
        shapes += 1
    _record(6, shapes >= 9, f"reflection = least monic congruence on {shapes} categories")


def test_criterion_7_partial_injection_representation():
    """The hom-set representation is functorial, faithful and maps monics to
    total injections on every corpus inverse category."""
    count = 0
    for name in corpus_names():
        doc = serialize.load_document(corpus.resolve(name))
        if doc["type"] != "category" or "pinv" not in doc:
            continue
        inv = inverse_category(serialize.category_from_doc(doc))
        cat = inv.base
        assert len(cat.morphisms) <= 12
        rep = wagner_preston(inv)
        for (g, f), r in table_of(cat).items():
            assert rep.maps[g].after(rep.maps[f]) == rep.maps[r], name
        for f, g in cat.parallel_pairs():
            assert rep.maps[f] != rep.maps[g], name
        for f in range(len(cat.morphisms)):
            assert is_total(rep.maps[f]) == is_monic_morphism(cat, f), name
        count += 1
    _record(7, count >= 4, f"representation verified on {count} inverse categories")


def test_criterion_8_endo_words_act_as_partial_identities():
    """1000 seeded random endo zigzag words over certified forest-like shapes
    restrict the identity."""
    rng = random.Random(20260808)
    shapes = []
    for name in ("span", "cospan", "chain3", "chain5", "fan"):
        doc = serialize.load_document(corpus.resolve(name))
        poset = serialize.poset_from_doc(doc)
        shapes.append((poset, category_from_poset(poset)))
    for _ in range(5):
        poset = random_forest(rng.randint(3, 7), rng)
        shapes.append((poset, category_from_poset(poset)))

    words = 0
    for poset, shape in shapes:
        cert = is_forest_like(poset)
        assert isinstance(cert, ForestCertificate)
        for _ in range(2):
            diagram = random_diagram_over_poset(poset, rng, shape=shape)
            for _ in range(50):
                word = random_endo_word(shape, rng)
                assert is_partial_identity(word_pinj(diagram, word)), (poset, word)
                words += 1
    _record(8, words == 1000, f"{words} endo words acted as partial identities")
