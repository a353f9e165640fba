"""End-to-end decision pipeline with oracle-verified evidence.

A shape is amalgamable over every category with the amalgamation and joint
embedding properties exactly when it is upward-simply-connected: its monic
reflection is a preorder whose skeleton poset is forest-like.  Positive
verdicts carry the decomposition certificate; negative verdicts carry a
concrete cocone-free diagram checked against the colimit oracle before the
verdict is emitted.
"""

from __future__ import annotations

from .diagram import (
    CoconeFreeDiagram,
    ShapeAnalysis,
    analyze_shape,
    witness_no_cocone,
)
from .fincat import FinCategory
from .poset import (
    FinPoset,
    ForestCertificate,
    _component_masks,
    sorted_names,
)
from .record import Record


class Verdict(Record):
    """The shape's analysis holds the evidence: the forest certificate, or
    the parallel pair or non-forest witness of a refutation.  ``diagram`` is
    a refutation's cocone-free diagram, and ``None`` beside a certificate."""

    _fields = ("connected", "analysis", "diagram", "trace")

    def __init__(
        self,
        connected: bool,
        analysis: ShapeAnalysis,
        diagram: CoconeFreeDiagram | None,
        trace: tuple[str, ...],
    ):
        self.connected = connected
        self.analysis = analysis
        self.diagram = diagram
        self.trace = trace

    @property
    def amalgamable_ap_jep(self) -> bool:
        return self.analysis.usc

    @property
    def amalgamable_ap_only(self) -> bool:
        return self.analysis.usc and self.connected


def _sizes(shape: FinCategory | FinPoset) -> tuple[int, int, int]:
    """Objects, morphisms and connected components.  A poset has one
    morphism per related pair, so its morphisms are counted on its masks."""
    n = len(shape.objects)
    parts = len(_component_masks(shape, (1 << n) - 1))
    if isinstance(shape, FinPoset):
        return n, sum(mask.bit_count() for mask in shape.up_masks), parts
    return n, len(shape.morphisms), parts


def decide(shape: FinCategory | FinPoset) -> Verdict:
    """Decide amalgamability of the shape, with evidence.

    A FinPoset is decided on its masks, and a refutation's witness diagram
    is built over the poset itself: no composition table is made for it.
    """
    objects, morphisms, parts = _sizes(shape)
    trace = [f"shape: {objects} objects, {morphisms} morphisms"]
    connected = parts == 1
    trace.append(f"connected components: {parts}")

    analysis = analyze_shape(shape)
    reflected = (
        morphisms
        if analysis.reflection is shape
        else len(analysis.reflection.morphisms)
    )
    trace.append(f"monic reflection: {morphisms} -> {reflected} morphisms")
    if analysis.preorder:
        trace.append(
            f"reflection is a preorder; skeleton poset has "
            f"{len(analysis.skeleton)} elements"
        )
        if isinstance(analysis.forest, ForestCertificate):
            trace.append("skeleton is forest-like: certificate found")
        else:
            w = analysis.forest
            trace.append(
                "skeleton is not forest-like: up-set of "
                f"{analysis.skeleton.elements[w.x]} splits into "
                f"{len(w.upset_components)} pieces"
            )
    else:
        f, g = analysis.parallel_pair
        trace.append(
            "reflection is not a preorder: parallel pair "
            f"{analysis.reflection.morphisms[f].name}, "
            f"{analysis.reflection.morphisms[g].name}"
        )

    if analysis.usc:
        diagram = None
        trace.append("verdict: amalgamable (certificate attached)")
    else:
        diagram = witness_no_cocone(shape, analysis)
        trace.append("verdict: not amalgamable (cocone-free diagram attached)")
    return Verdict(connected, analysis, diagram, tuple(trace))


def _describe_tree(root, poset, indent: int) -> list[str]:
    """Narrate a decomposition tree in pre-order, on an explicit stack; each
    child carries the line that introduces its subtree."""
    lines = []
    stack = [(root, indent, None)]
    while stack:
        node, depth, header = stack.pop()
        if header is not None:
            lines.append(header)
        pad = "  " * depth
        lines.append(f"{pad}adjoin {poset.elements[node.point]}")
        for child, upset in reversed(list(zip(node.children, node.upsets))):
            names = ", ".join(sorted_names(poset.elements, upset))
            stack.append((child, depth + 2, f"{pad}  below upward-closed set {{{names}}}:"))
    return lines


def explain(verdict: Verdict) -> str:
    """Human-readable derivation of a verdict."""
    lines = ["amalgamability report", "=" * 21, ""]
    lines.extend(f"- {step}" for step in verdict.trace)
    lines.append("")
    analysis, diagram = verdict.analysis, verdict.diagram
    if diagram is None:
        cert, poset = analysis.forest, analysis.skeleton
        if not cert.roots:  # one tree per component: only the empty shape has none
            lines.append(
                "The shape is empty: the empty diagram is completed by any object, "
                "so a category needs the joint embedding property (hence an object) "
                "but not the amalgamation property alone."
            )
        else:
            lines.append("decomposition (innermost steps first applied):")
            for root in cert.roots:
                lines.extend(_describe_tree(root, poset, 1))
    else:
        if not analysis.preorder:
            f, g = analysis.parallel_pair
            refl = analysis.reflection
            lines.append(
                "The monic reflection keeps the distinct parallel morphisms "
                f"{refl.morphisms[f].name} and {refl.morphisms[g].name}; the "
                "attached diagram glues them in its colimit."
            )
        else:
            w, poset = analysis.forest, analysis.skeleton
            pieces = [
                "{" + ", ".join(sorted_names(poset.elements, part)) + "}"
                for part in w.upset_components
            ]
            lines.append(
                f"Minimal element {poset.elements[w.x]} sees its up-set split "
                f"into disconnected pieces {' and '.join(pieces)} inside one "
                "component of the remaining poset."
            )
        col = diagram.collision
        lines.append(
            f"Oracle: elements {col.x} and {col.y} of "
            f"{diagram.shape.objects[col.obj]} are glued in the colimit, so no leg "
            "can stay injective."
        )
    flags = (
        f"upward-simply-connected: {analysis.usc}; connected: {verdict.connected}; "
        f"amalgamable with AP+JEP: {verdict.amalgamable_ap_jep}; "
        f"amalgamable with AP alone: {verdict.amalgamable_ap_only}"
    )
    lines.extend(["", flags])
    return "\n".join(lines)
