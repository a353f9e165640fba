"""The paper's theorem on random concrete categories, beyond hand-written
shapes: a shape the decider certifies completes every diagram drawn over
its skeleton, and its endo words act as partial identities (criterion 8
beyond posets); a refuted shape's witness carries a collision whose word
sends x to another element y of the same carrier, the failure of
condition (iii).  A disagreement fails the test."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.decide import decide
from amalgam.diagram import has_cocone, zigzag_action
from amalgam.gen import random_diagram_over_poset
from conftest import concrete_categories
from oracles import collision_word, is_partial_identity, random_endo_word, word_pinj


def check_theorem(cat, rng: random.Random) -> None:
    verdict = decide(cat)
    analysis = verdict.evidence.analysis
    if verdict.usc:
        for _ in range(3):
            diagram = random_diagram_over_poset(
                analysis.skeleton, rng, shape=cat, element_of=analysis.skeleton_map
            )
            assert has_cocone(diagram), (cat, diagram)
            for _ in range(10):
                word = random_endo_word(cat, rng)
                assert is_partial_identity(word_pinj(diagram, word)), (cat, word)
    else:
        witness = verdict.evidence.diagram
        collision = witness.collision
        assert not has_cocone(witness)
        action = zigzag_action(witness, collision_word(collision))
        assert collision.x != collision.y, collision
        assert action.get(collision.x) == collision.y, (cat, collision)


@settings(max_examples=60, deadline=None)
@given(concrete_categories(), st.randoms(use_true_random=False))
def test_the_theorem_holds_on_random_concrete_categories(cat, rng):
    check_theorem(cat, rng)


@pytest.mark.wide
@settings(max_examples=3000, deadline=None)
@given(concrete_categories(), st.randoms(use_true_random=False))
def test_the_theorem_holds_on_many_random_concrete_categories(cat, rng):
    check_theorem(cat, rng)
