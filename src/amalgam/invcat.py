"""Finite inverse categories.

An inverse category gives every morphism f a unique pseudoinverse f' with
f∘f'∘f = f and f'∘f∘f' = f'.  A category document with a ``pinv`` map is
validated by finding each pseudoinverse and checking it is unique.
"""

from __future__ import annotations

from .fincat import CategoryError, FinCategory, clip


class InverseCategoryError(CategoryError):
    pass


class NoPseudoinverse(InverseCategoryError):
    pass


class NonUniquePseudoinverse(InverseCategoryError):
    pass


def validate_inverse(cat: FinCategory) -> tuple[int, ...]:
    """Find the pseudoinverse of every morphism by exhaustive search: the
    pseudoinverse map, a tuple of morphism indices.

    Raises NoPseudoinverse / NonUniquePseudoinverse naming the offender.
    """
    pinv, names = [], cat.arrow_names
    for f, (dom, cod) in enumerate(cat.morphisms):
        candidates = [
            g
            for g in cat.hom(cod, dom)
            if cat.compose(f, cat.compose(g, f)) == f
            and cat.compose(g, cat.compose(f, g)) == g
        ]
        if not candidates:
            raise NoPseudoinverse(f"{clip(names[f])} has no pseudoinverse")
        if len(candidates) > 1:
            listed = ", ".join(clip(names[g]) for g in candidates)
            raise NonUniquePseudoinverse(
                f"{clip(names[f])} has several pseudoinverses: {listed}"
            )
        pinv.append(candidates[0])
    return tuple(pinv)
