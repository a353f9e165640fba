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
    Collision,
    ShapeAnalysis,
    analyze_shape,
    witness_no_cocone,
)
from .fincat import FinCategory
from .poset import (
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    _component_masks,
    sorted_names,
)
from .record import Record


class CertificateEvidence(Record):
    _fields = ("analysis",)

    def __init__(self, analysis: ShapeAnalysis):
        self.analysis = analysis

    @property
    def certificate(self) -> ForestCertificate:
        return self.analysis.forest


class RefutationEvidence(Record):
    """The reason, the parallel pair or non-forest witness, and the collision
    are read off the analysis and the cocone-free diagram."""

    _fields = ("analysis", "diagram")

    def __init__(self, analysis: ShapeAnalysis, diagram: CoconeFreeDiagram):
        self.analysis = analysis
        self.diagram = diagram

    @property
    def reason(self) -> str:
        return "non-forest-poset" if self.analysis.preorder else "parallel-pair"

    @property
    def parallel_pair(self) -> tuple[int, int] | None:
        return self.analysis.parallel_pair

    @property
    def witness(self) -> NonForestWitness | None:
        return self.analysis.forest  # None beside a parallel pair

    @property
    def collision(self) -> Collision:
        return self.diagram.collision


class Verdict(Record):
    _fields = ("connected", "evidence", "trace")

    def __init__(
        self,
        connected: bool,
        evidence: CertificateEvidence | RefutationEvidence,
        trace: tuple[str, ...],
    ):
        self.connected = connected
        self.evidence = evidence
        self.trace = trace

    @property
    def usc(self) -> bool:
        """Upward-simply-connected: the evidence is a certificate."""
        return isinstance(self.evidence, CertificateEvidence)

    @property
    def amalgamable_ap_jep(self) -> bool:
        return self.usc

    @property
    def amalgamable_ap_only(self) -> bool:
        return self.usc and self.connected


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
        evidence = CertificateEvidence(analysis)
        trace.append("verdict: amalgamable (certificate attached)")
    else:
        evidence = RefutationEvidence(analysis, witness_no_cocone(shape, analysis))
        trace.append("verdict: not amalgamable (cocone-free diagram attached)")
    return Verdict(connected, evidence, tuple(trace))


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
    if isinstance(verdict.evidence, CertificateEvidence):
        cert = verdict.evidence.certificate
        poset = verdict.evidence.analysis.skeleton
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
        ev = verdict.evidence
        if ev.reason == "parallel-pair":
            f, g = ev.parallel_pair
            refl = ev.analysis.reflection
            lines.append(
                "The monic reflection keeps the distinct parallel morphisms "
                f"{refl.morphisms[f].name} and {refl.morphisms[g].name}; the "
                "attached diagram glues them in its colimit."
            )
        else:
            w = ev.witness
            poset = ev.analysis.skeleton
            pieces = [
                "{" + ", ".join(sorted_names(poset.elements, part)) + "}"
                for part in w.upset_components
            ]
            lines.append(
                f"Minimal element {poset.elements[w.x]} sees its up-set split "
                f"into disconnected pieces {' and '.join(pieces)} inside one "
                "component of the remaining poset."
            )
        col = ev.collision
        lines.append(
            f"Oracle: elements {col.x} and {col.y} of "
            f"{ev.diagram.shape.objects[col.obj]} are glued in the colimit, so no leg "
            "can stay injective."
        )
    flags = (
        f"upward-simply-connected: {verdict.usc}; connected: {verdict.connected}; "
        f"amalgamable with AP+JEP: {verdict.amalgamable_ap_jep}; "
        f"amalgamable with AP alone: {verdict.amalgamable_ap_only}"
    )
    lines.extend(["", flags])
    return "\n".join(lines)
