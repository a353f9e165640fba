"""Partial injections between finite sets of labeled elements: the tests'
reference model for the actions a diagram stores as rows."""

from __future__ import annotations


class PartialInjection:
    """An injective partial map between two finite carriers.

    Carriers are tuples of distinct string labels; the mapping is a dict
    defined on a subset of the source.  Instances are immutable by
    convention and compare structurally (carriers as sets).
    """

    def __init__(self, source, target, mapping):
        self.source = tuple(source)
        self.target = tuple(target)
        self.mapping = dict(mapping)
        src, tgt = set(self.source), set(self.target)
        if len(src) != len(self.source) or len(tgt) != len(self.target):
            raise ValueError("carrier labels must be distinct")
        if not set(self.mapping) <= src:
            raise ValueError("mapping defined outside the source carrier")
        values = list(self.mapping.values())
        if not set(values) <= tgt:
            raise ValueError("mapping lands outside the target carrier")
        if len(set(values)) != len(values):
            raise ValueError("mapping is not injective")

    @classmethod
    def identity(cls, carrier) -> "PartialInjection":
        carrier = tuple(carrier)
        return cls(carrier, carrier, {x: x for x in carrier})

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def after(self, other: "PartialInjection") -> "PartialInjection":
        """Composite self ∘ other, defined where the chain is defined."""
        if set(other.target) != set(self.source):
            raise ValueError("composition carriers do not match")
        mapping = {
            x: self.mapping[y]
            for x, y in other.mapping.items()
            if y in self.mapping
        }
        return PartialInjection(other.source, self.target, mapping)

    def inverse(self) -> "PartialInjection":
        return PartialInjection(
            self.target, self.source, {v: k for k, v in self.mapping.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, PartialInjection):
            return NotImplemented
        return (
            set(self.source) == set(other.source)
            and set(self.target) == set(other.target)
            and self.mapping == other.mapping
        )

    def __repr__(self):
        pairs = ", ".join(f"{k}->{v}" for k, v in sorted(self.mapping.items()))
        return f"PartialInjection({pairs})"
