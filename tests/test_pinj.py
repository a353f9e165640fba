import pytest

from pinj import PartialInjection
from oracles import domain, image, is_partial_identity, is_total, restricted


def test_identity_and_totality():
    ident = PartialInjection.identity(("a", "b"))
    assert is_total(ident) and is_partial_identity(ident)
    assert ident("a") == "a"


def test_rejects_non_injective():
    with pytest.raises(ValueError):
        PartialInjection(("a", "b"), ("x",), {"a": "x", "b": "x"})


def test_rejects_out_of_carrier():
    with pytest.raises(ValueError):
        PartialInjection(("a",), ("x",), {"a": "y"})
    with pytest.raises(ValueError):
        PartialInjection(("a",), ("x",), {"b": "x"})


def test_composition_narrows_domain():
    f = PartialInjection(("a", "b"), ("x", "y"), {"a": "x"})
    g = PartialInjection(("x", "y"), ("u", "v"), {"y": "u"})
    composite = g.after(f)
    assert composite.mapping == {}
    h = PartialInjection(("x", "y"), ("u", "v"), {"x": "v"})
    assert h.after(f).mapping == {"a": "v"}


def test_inverse_round_trip():
    f = PartialInjection(("a", "b"), ("x", "y"), {"a": "y"})
    back = f.inverse()
    assert back.mapping == {"y": "a"}
    assert is_partial_identity(back.after(f))


def test_partial_identity_requires_same_carrier():
    f = PartialInjection(("a",), ("a", "b"), {"a": "a"})
    assert not is_partial_identity(f)
    g = PartialInjection(("a", "b"), ("b", "a"), {"a": "a"})
    assert is_partial_identity(g)


def test_restrict_and_domain():
    f = PartialInjection(("a", "b", "c"), ("x", "y", "z"), {"a": "x", "b": "y"})
    assert domain(f) == ("a", "b")
    assert restricted(f, {"b"}).mapping == {"b": "y"}
    assert image(f) == ("x", "y")
