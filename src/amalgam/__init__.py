"""Decide whether every diagram of a finite shape can be amalgamated.

Given a finite category as a composition table, the library determines
whether every diagram of that shape admits a cocone in every category with
the amalgamation property (and joint embedding property), returning either a
replayable forest decomposition certificate, under which the colimit oracle
completes every concrete diagram, or a concrete finite-sets diagram verified
to have no cocone.
"""

from .decide import Verdict, decide, explain
from .diagram import (
    Cocone,
    CoconeFreeDiagram,
    CoconeResult,
    Collision,
    ColimitResult,
    FinInjDiagram,
    ShapeAnalysis,
    ZigzagWord,
    analyze_shape,
    colimit_set,
    collision_zigzag,
    has_cocone,
    validate_diagram,
    witness_no_cocone,
    zigzag_action,
)
from .fincat import (
    FinCategory,
    Morphism,
    category,
    is_preorder,
    monic_reflection,
    quotient_category,
    skeleton_poset,
    validate_category,
)
from .invcat import FinInverseCategory, validate_inverse
from .poset import (
    DecompositionNode,
    FinPoset,
    ForestCertificate,
    NonForestWitness,
    is_forest_like,
    replay_certificate,
    upward_closure,
    verify_certificate,
    verify_witness,
    witness_points,
)

__version__ = "0.1.0"
