"""Finite inverse categories and their representation by partial injections.

An inverse category gives every morphism f a unique pseudoinverse f' with
f∘f'∘f = f and f'∘f∘f' = f'.  The representation below realizes each
morphism as a partial injection on hom-set carriers, acting by
post-composition; it is faithful and sends monics to total injections.
"""

from __future__ import annotations

from .fincat import FinCategory
from .pinj import PartialInjection
from .record import Record


class InverseCategoryError(Exception):
    pass


class NoPseudoinverse(InverseCategoryError):
    pass


class NonUniquePseudoinverse(InverseCategoryError):
    pass


class FinInverseCategory:
    """A validated finite category together with its pseudoinverse map."""

    def __init__(self, base: FinCategory, pinv):
        self.base = base
        self.pinv = tuple(pinv)

    def __eq__(self, other):
        if not isinstance(other, FinInverseCategory):
            return NotImplemented
        return self.base == other.base and self.pinv == other.pinv


def validate_inverse(cat: FinCategory) -> FinInverseCategory:
    """Find the pseudoinverse of every morphism by exhaustive search.

    Raises NoPseudoinverse / NonUniquePseudoinverse naming the offender.
    """
    pinv = []
    for f, mf in enumerate(cat.morphisms):
        candidates = [
            g
            for g in cat.hom(mf.cod, mf.dom)
            if cat.compose(f, cat.compose(g, f)) == f
            and cat.compose(g, cat.compose(f, g)) == g
        ]
        if not candidates:
            raise NoPseudoinverse(f"{mf.name} has no pseudoinverse")
        if len(candidates) > 1:
            names = ", ".join(cat.morphisms[g].name for g in candidates)
            raise NonUniquePseudoinverse(
                f"{mf.name} has several pseudoinverses: {names}"
            )
        pinv.append(candidates[0])
    return FinInverseCategory(cat, pinv)


def is_monic_morphism(cat: FinCategory, f: int) -> bool:
    """Whether f∘g = f∘h forces g = h.  Such g and h lie in hom_in[dom f]
    and are parallel, since f∘g has the domain of g."""
    into = cat.hom_in[cat.morphisms[f].dom]
    return len({cat.compose(f, g) for g in into}) == len(into)


def check_inverse_laws(inv: FinInverseCategory) -> list[str]:
    """Verify the structural laws; returns the list of violations (empty = pass).

    Checked: the pseudoinverse map is an involutive contravariant functor,
    idempotents on a common object commute, and a morphism is monic exactly
    when its pseudoinverse is a left inverse.
    """
    cat, pinv = inv.base, inv.pinv
    report = []
    for x, i in enumerate(cat.identity):
        if pinv[i] != i:
            report.append(f"pseudoinverse of id_{cat.objects[x]} is not itself")
    for f, mf in enumerate(cat.morphisms):
        if pinv[pinv[f]] != f:
            report.append(f"pseudoinverse of {mf.name} is not involutive")
    for (g, f), r in cat.table.items():
        if cat.compose(pinv[f], pinv[g]) != pinv[r]:
            report.append(
                f"pseudoinverse is not contravariant on "
                f"({cat.morphisms[g].name}, {cat.morphisms[f].name})"
            )
    idempotents = [
        e
        for e, me in enumerate(cat.morphisms)
        if me.dom == me.cod and cat.compose(e, e) == e
    ]
    for e in idempotents:
        for e2 in idempotents:
            if cat.morphisms[e].dom != cat.morphisms[e2].dom:
                continue
            if cat.compose(e, e2) != cat.compose(e2, e):
                report.append(
                    f"idempotents {cat.morphisms[e].name} and "
                    f"{cat.morphisms[e2].name} do not commute"
                )
    for f, mf in enumerate(cat.morphisms):
        split = cat.compose(pinv[f], f) == cat.identity[mf.dom]
        if is_monic_morphism(cat, f) != split:
            report.append(
                f"{mf.name}: monic and split-monic characterizations disagree"
            )
    return report


def is_idempotent_category(inv: FinInverseCategory) -> bool:
    """True when every endomorphism squares to itself."""
    cat = inv.base
    return all(
        cat.compose(f, f) == f
        for f, mf in enumerate(cat.morphisms)
        if mf.dom == mf.cod
    )


class PInjRepresentation(Record):
    """Carriers (one per object, tagged `source object:morphism`) and one
    partial injection per morphism."""

    _fields = ("carriers", "maps")

    def __init__(
        self, carriers: tuple[tuple[str, ...], ...], maps: tuple[PartialInjection, ...]
    ):
        self.carriers = carriers
        self.maps = maps


def wagner_preston(inv: FinInverseCategory) -> PInjRepresentation:
    """Represent each morphism as a partial injection on hom-set carriers.

    The carrier of X is the disjoint union over all Z of Hom(Z, X); f acts by
    g -> f∘g on the g fixed by pinv(f)∘f∘-.  The result is verified to be
    functorial and faithful, with monics acting totally.
    """
    cat, pinv = inv.base, inv.pinv

    def label(g: int) -> str:
        return f"{cat.objects[cat.morphisms[g].dom]}:{cat.morphisms[g].name}"

    carriers = tuple(
        tuple(label(g) for g in cat.hom_in[x]) for x in range(len(cat.objects))
    )
    maps = []
    for f, mf in enumerate(cat.morphisms):
        fixer = cat.compose(pinv[f], f)
        mapping = {
            label(g): label(cat.compose(f, g))
            for g in cat.hom_in[mf.dom]
            if cat.compose(fixer, g) == g
        }
        maps.append(
            PartialInjection(carriers[mf.dom], carriers[mf.cod], mapping)
        )

    for (g, f), r in cat.table.items():
        if maps[g].after(maps[f]) != maps[r]:
            raise InverseCategoryError(
                f"representation is not functorial on "
                f"({cat.morphisms[g].name}, {cat.morphisms[f].name})"
            )
    for f, g in cat.parallel_pairs():
        if maps[f] == maps[g]:
            raise InverseCategoryError(
                f"representation identifies {cat.morphisms[f].name} "
                f"and {cat.morphisms[g].name}"
            )
    for f in range(len(cat.morphisms)):
        if is_monic_morphism(cat, f) != maps[f].is_total:
            raise InverseCategoryError(
                f"{cat.morphisms[f].name}: monic does not match totality"
            )
    return PInjRepresentation(carriers, tuple(maps))
