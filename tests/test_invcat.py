import pytest

from amalgam import serialize, corpus
from amalgam.fincat import category
from amalgam.invcat import NonUniquePseudoinverse, NoPseudoinverse, validate_inverse
from conftest import corpus_names, empty_map_monoid_cat, iso_pair_cat, z2_cat
from oracles import (
    check_inverse_laws,
    domain,
    inverse_category,
    is_idempotent_category,
    is_monic_morphism,
    is_partial_identity,
    is_total,
    table_of,
    wagner_preston,
)


def corpus_inverse_categories():
    out = []
    for name in corpus_names():
        doc = serialize.load_document(corpus.resolve(name))
        if doc["type"] == "category" and "pinv" in doc:
            out.append((name, inverse_category(serialize.category_from_doc(doc))))
    return out


def test_group_pseudoinverse_is_group_inverse():
    inv = inverse_category(z2_cat())
    s = inv.base.mor_index["s"]
    assert inv.pinv[s] == s
    assert inv.pinv[0] == 0  # the identity


def test_empty_map_monoid_is_inverse():
    inv = inverse_category(empty_map_monoid_cat())
    z = inv.base.mor_index["z"]
    assert inv.pinv[z] == z
    assert is_idempotent_category(inv)


def test_left_zero_monoid_has_no_pseudoinverse():
    # x·y = x for non-identities: l·l·l = l holds but uniqueness fails
    cat = category(
        ["X"],
        [("l", "X", "X"), ("m", "X", "X")],
        [("l", "l", "l"), ("l", "m", "l"), ("m", "l", "m"), ("m", "m", "m")],
    )
    with pytest.raises((NoPseudoinverse, NonUniquePseudoinverse)):
        validate_inverse(cat)


def test_monoid_with_squaring_collapse_not_inverse():
    # a·a = z absorbing: a has no pseudoinverse
    cat = category(
        ["X"],
        [("a", "X", "X"), ("z", "X", "X")],
        [("a", "a", "z"), ("a", "z", "z"), ("z", "a", "z"), ("z", "z", "z")],
    )
    with pytest.raises(NoPseudoinverse):
        validate_inverse(cat)


def test_inverse_laws_pass_on_corpus():
    for name, inv in corpus_inverse_categories():
        assert check_inverse_laws(inv) == [], name


def test_idempotent_category_examples():
    assert is_idempotent_category(inverse_category(empty_map_monoid_cat()))
    assert not is_idempotent_category(inverse_category(z2_cat()))
    assert is_idempotent_category(inverse_category(iso_pair_cat()))


def test_wagner_preston_z2_swaps():
    inv = inverse_category(z2_cat())
    rep = wagner_preston(inv)
    carrier = rep.carriers[0]
    assert len(carrier) == 2
    s = inv.base.mor_index["s"]
    action = rep.maps[s]
    assert is_total(action)
    assert sorted(action.mapping.items()) == sorted(
        {carrier[0]: carrier[1], carrier[1]: carrier[0]}.items()
    )


def test_wagner_preston_identity_total():
    inv = inverse_category(z2_cat())
    rep = wagner_preston(inv)
    ident = rep.maps[0]  # the identity
    assert is_partial_identity(ident) and is_total(ident)


def test_wagner_preston_empty_map_domain():
    inv = inverse_category(empty_map_monoid_cat())
    rep = wagner_preston(inv)
    z = inv.base.mor_index["z"]
    action = rep.maps[z]
    assert domain(action) == ("X:z",)
    assert action.mapping == {"X:z": "X:z"}


def test_wagner_preston_functorial_faithful_monic_on_corpus():
    """Independent re-verification of the representation on corpus inverse categories."""
    for name, inv in corpus_inverse_categories():
        cat = inv.base
        assert len(cat.morphisms) <= 12, name
        rep = wagner_preston(inv)
        for (g, f), r in table_of(cat).items():
            assert rep.maps[g].after(rep.maps[f]) == rep.maps[r], name
        for f in range(len(cat.morphisms)):
            for g in range(len(cat.morphisms)):
                if f != g and cat.morphisms[f] == cat.morphisms[g]:
                    assert rep.maps[f] != rep.maps[g], name
        for f in range(len(cat.morphisms)):
            assert is_total(rep.maps[f]) == is_monic_morphism(cat, f), name


def test_partial_injection_monoid_details():
    doc = serialize.load_document(corpus.resolve("inverse_pinj2"))
    inv = inverse_category(serialize.category_from_doc(doc))
    cat = inv.base
    assert len(cat.morphisms) == 7
    up, dn = cat.mor_index["up"], cat.mor_index["dn"]
    assert inv.pinv[up] == dn and inv.pinv[dn] == up
    swap = cat.mor_index["swap"]
    assert is_monic_morphism(cat, swap)
    assert not is_monic_morphism(cat, cat.mor_index["fix1"])
