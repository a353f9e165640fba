import random

import pytest

from amalgam.gen import (
    random_diagram_over_poset,
    random_forest,
    random_nonforest,
    random_poset,
    random_tree_like,
)
from amalgam.poset import ForestCertificate, is_forest_like
from conftest import category_from_poset
from oracles import all_posets, components, is_endo, random_endo_word


def test_all_posets_match_known_counts():
    counts = {n: len(ps) for n, ps in all_posets(6).items()}
    assert counts == {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}


def test_all_posets_are_valid_and_distinct_sizes():
    for n, posets in all_posets(4).items():
        for p in posets:
            assert len(p) == n


def test_random_poset_reproducible():
    a = random_poset(6, random.Random(42))
    b = random_poset(6, random.Random(42))
    assert a == b


def test_random_tree_like_passes_decider():
    for seed in range(20):
        rng = random.Random(seed)
        p = random_tree_like(rng.randint(1, 7), rng)
        assert isinstance(is_forest_like(p), ForestCertificate)
        assert len(components(p, range(len(p)))) == 1


def test_random_forest_passes_decider():
    for seed in range(20):
        rng = random.Random(seed)
        p = random_forest(rng.randint(1, 8), rng)
        assert isinstance(is_forest_like(p), ForestCertificate)


def test_random_nonforest_fails_decider():
    for seed in range(5):
        p = random_nonforest(5, random.Random(seed))
        assert not isinstance(is_forest_like(p), ForestCertificate)


def test_random_nonforest_minimum_size():
    with pytest.raises(ValueError):
        random_nonforest(3, random.Random(0))


def test_random_nonforest_gives_up_after_its_attempts():
    with pytest.raises(RuntimeError) as info:
        random_nonforest(4, random.Random(0), attempts=0)
    assert str(info.value) == "failed to sample a non-forest-like poset"


def test_random_diagram_valid_and_reproducible():
    rng = random.Random(9)
    p = random_poset(5, rng)
    d1 = random_diagram_over_poset(p, random.Random(1))
    d2 = random_diagram_over_poset(p, random.Random(1))
    assert d1 == d2


def test_random_endo_word_returns_home():
    for seed in range(30):
        rng = random.Random(seed)
        p = random_forest(rng.randint(2, 6), rng)
        shape = category_from_poset(p)
        word = random_endo_word(shape, rng)
        assert is_endo(word, shape)
