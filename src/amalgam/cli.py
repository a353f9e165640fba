"""Command-line front end.

Commands: check, explain, witness, cocone, oracle, validate, gen.
Exit codes: 0 = positive outcome (amalgamable / cocone exists / valid),
1 = negative outcome, 2 = input or validation error.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from . import corpus, gen, serialize
from .decide import decide, explain
from .diagram import (
    DiagramError,
    NotApplicable,
    analyze_shape,
    has_cocone,
    witness_no_cocone,
)
from .fincat import CategoryError
from .poset import ForestCertificate, PosetError, is_forest_like
from .serialize import ParseError


@dataclass
class RunConfig:
    command: str
    inputs: tuple[str, ...]
    out: str | None
    seed: int
    max_size: int
    format: str

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        if args.max_size <= 0:
            raise ParseError("--max-size must be positive")
        return cls(
            command=args.command,
            inputs=tuple(getattr(args, "inputs", ()) or ()),
            out=args.out,
            seed=args.seed,
            max_size=args.max_size,
            format=args.format,
        )


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_shape(ref: str):
    return serialize.load_shape(corpus.resolve(ref))


def _with_named_arrows(shape):
    """The shape, once its morphism names are known to be distinct: a poset
    names its arrows on first use, and two arrows of one name are an input
    error wherever arrows are named."""
    shape.mor_index
    return shape


def cmd_check(config: RunConfig) -> int:
    verdict = decide(_load_shape(config.inputs[0]))
    if config.format == "structured":
        _emit(config, serialize.dump(serialize.verdict_to_doc(verdict)))
    else:
        _emit(config, explain(verdict) + "\n")
    return 0 if verdict.amalgamable_ap_jep else 1


def cmd_explain(config: RunConfig) -> int:
    verdict = decide(_load_shape(config.inputs[0]))
    _emit(config, explain(verdict) + "\n")
    return 0 if verdict.amalgamable_ap_jep else 1


def cmd_witness(config: RunConfig) -> int:
    shape = _with_named_arrows(_load_shape(config.inputs[0]))
    try:
        diagram = witness_no_cocone(shape)
    except NotApplicable as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 1
    _emit(config, serialize.dump(serialize.diagram_to_doc(diagram)))
    return 0


def _load_diagram_over(shape, shape_doc: dict, shape_path: str, ref: str):
    """The diagram document at ref, read over the shape already parsed from
    shape_doc when its shape is that document, inline or by path; any other
    shape is parsed and must equal it."""
    path = corpus.resolve(ref)
    doc = serialize.load_document(path)
    base_dir = Path(path).parent
    field = doc.get("shape")
    same = field == shape_doc or (
        isinstance(field, str)
        and serialize.shape_path(field, base_dir).resolve() == Path(shape_path).resolve()
    )
    diagram = serialize.diagram_from_doc(doc, base_dir, shape if same else None)
    if not same and diagram.shape != shape:
        raise ParseError("diagram shape does not match the given shape")
    return diagram


def cmd_cocone(config: RunConfig) -> int:
    shape_path = corpus.resolve(config.inputs[0])
    shape_doc = serialize.load_document(shape_path)
    shape = serialize.shape_from_doc(shape_doc)
    diagram = _load_diagram_over(shape, shape_doc, shape_path, config.inputs[1])
    if not analyze_shape(shape).usc:
        print("not applicable: shape is not upward-simply-connected", file=sys.stderr)
        return 1
    answer = has_cocone(diagram)
    if not answer:
        col = answer.collision
        raise DiagramError(
            "colimit collision on a certified shape: elements "
            f"{col.x} and {col.y} of {shape.objects[col.obj]} are glued"
        )
    _emit(config, serialize.dump(serialize.cocone_to_doc(diagram, answer.cocone)))
    return 0


def cmd_oracle(config: RunConfig) -> int:
    path = corpus.resolve(config.inputs[0])
    diagram = serialize.diagram_from_doc(
        serialize.load_document(path), base_dir=Path(path).parent
    )
    answer = has_cocone(diagram)
    if answer:
        _emit(config, serialize.dump(serialize.cocone_to_doc(diagram, answer.cocone)))
        return 0
    col = answer.collision
    doc = {
        "type": "no-cocone",
        "collision": {
            "object": diagram.shape.objects[col.obj],
            "elements": [col.x, col.y],
            "zigzag": [
                [diagram.shape.objects[o], e] for o, e in col.nodes
            ],
        },
    }
    _emit(config, serialize.dump(doc))
    return 1


def cmd_validate(config: RunConfig) -> int:
    path = corpus.resolve(config.inputs[0])
    doc = serialize.load_document(path)
    kind = doc["type"]
    if kind == "category" and "pinv" in doc:
        serialize.inverse_from_doc(doc)
    elif kind in ("category", "poset"):
        _with_named_arrows(serialize.shape_from_doc(doc))
    elif kind == "diagram":
        serialize.diagram_from_doc(doc, base_dir=Path(path).parent)
    else:
        raise ParseError(f"cannot validate documents of type '{kind}'")
    _emit(config, f"valid {kind}\n")
    return 0


def cmd_gen(config: RunConfig) -> int:
    kind = config.inputs[0]
    rng = random.Random(config.seed)
    if kind == "diagram":
        if len(config.inputs) < 2:
            raise ParseError("gen diagram expects a shape path or corpus name")
        shape = _load_shape(config.inputs[1])
        analysis = analyze_shape(shape)
        if analysis.skeleton is None:
            raise DiagramError("gen diagram: the monic reflection is not a preorder")
        diagram = gen.random_diagram_over_poset(
            analysis.skeleton, rng, shape=shape, element_of=analysis.skeleton_map
        )
        doc = serialize.diagram_to_doc(diagram)
        doc["shape"] = serialize.category_to_doc(shape)  # a poset shape as its category
        _emit(config, serialize.dump(doc))
        return 0
    try:
        size = int(config.inputs[1]) if len(config.inputs) > 1 else 5
    except ValueError:
        raise ParseError(f"SIZE must be an integer, got '{config.inputs[1]}'") from None
    if not 0 < size <= config.max_size:
        raise ParseError(f"size must be in 1..{config.max_size}")
    if kind == "poset":
        poset = gen.random_poset(size, rng)
    elif kind == "forest":
        poset = gen.random_forest(size, rng)
        if not isinstance(is_forest_like(poset), ForestCertificate):
            raise PosetError("gen forest drew a poset that is not forest-like")
    elif kind == "nonforest":
        poset = gen.random_nonforest(size, rng)
    else:
        raise ParseError(f"unknown generator kind '{kind}'")
    _emit(config, serialize.dump(serialize.poset_to_doc(poset)))
    return 0


HANDLERS = {
    "check": (cmd_check, 1),
    "explain": (cmd_explain, 1),
    "witness": (cmd_witness, 1),
    "cocone": (cmd_cocone, 2),
    "oracle": (cmd_oracle, 1),
    "validate": (cmd_validate, 1),
    "gen": (cmd_gen, None),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="amalgam",
        description=(
            "Decide whether every diagram of a finite shape admits a cocone in "
            "every category with the amalgamation (and joint embedding) property."
        ),
    )
    parser.add_argument(
        "command",
        choices=sorted(HANDLERS),
        help="check | explain | witness | cocone | oracle | validate | gen",
    )
    parser.add_argument(
        "inputs",
        nargs="*",
        help="paths or corpus names; gen takes KIND [SIZE] or 'diagram SHAPE'",
    )
    parser.add_argument("--out", help="write the output document to this path")
    parser.add_argument("--seed", type=int, default=0, help="seed for gen")
    parser.add_argument(
        "--max-size", type=int, default=64, help="bound for generated instances"
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="verdict output style for check",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, arity = HANDLERS[args.command]
    try:
        config = RunConfig.from_args(args)
        if arity is not None and len(config.inputs) != arity:
            raise ParseError(
                f"{config.command} expects {arity} input argument(s)"
            )
        if config.command == "gen" and not config.inputs:
            raise ParseError("gen expects a kind: poset | forest | nonforest | diagram")
        return handler(config)
    except (ParseError, CategoryError, PosetError, DiagramError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
