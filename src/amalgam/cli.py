"""Command-line front end.

Commands: check, explain, witness, cocone, oracle, validate, gen.
Exit codes: 0 = positive outcome (amalgamable / cocone exists / valid),
1 = negative outcome, 2 = input or validation error.
"""

from __future__ import annotations

import gc
import os
import sys

from . import corpus, serialize
from .decide import decide, explain
from .diagram import (
    DiagramError,
    NotApplicable,
    analyze_shape,
    collision_zigzag,
    has_cocone,
    witness_no_cocone,
)
from .fincat import CategoryError
from .poset import FinPoset, ForestCertificate, PosetError, clip, is_forest_like
from .record import Record
from .serialize import ParseError


class RunConfig(Record):
    _fields = ("command", "inputs", "out", "seed", "max_size", "format")

    def __init__(self, command: str, inputs: tuple[str, ...], out: str | None,
                 seed: int, max_size: int, format: str):
        self.command = command
        self.inputs = inputs
        self.out = out
        self.seed = seed
        self.max_size = max_size
        self.format = format


def _locale_encoding() -> str:
    """``locale.getpreferredencoding(False)``, the encoding ``open(path,
    "w")`` writes in, read off the built-in ``_locale``: importing ``locale``
    would hold about 128 KB more in every process that writes a file."""
    if sys.flags.utf8_mode:
        return "utf-8"
    import _locale

    try:
        return _locale.getencoding()
    except AttributeError:  # Python 3.10
        return _locale._get_locale_encoding()


def _emit(config: RunConfig, text: str) -> None:
    """Write text to stdout, or to the file ``--out`` names through one
    descriptor: created or truncated as open(path, "w") does it, and the
    text encoded as it would, in the locale's encoding, strictly.  The text
    is encoded before the file is opened, so text that does not encode
    leaves the file as it was and creates none."""
    if not config.out:
        sys.stdout.write(text)
        return
    data = text.encode(_locale_encoding())
    fd = os.open(config.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:  # a write may take fewer bytes than it is given
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _load_shape(ref: str):
    return serialize.load_shape(corpus.resolve(ref))


def _with_named_arrows(shape):
    """The shape, once its morphism names are known to be distinct: a poset
    names its arrows on first use, and two arrows of one name are an input
    error wherever arrows are named."""
    if isinstance(shape, FinPoset):
        shape.arrow_names
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
    base_dir = os.path.dirname(path)
    field = doc.get("shape")
    same = field == shape_doc or (
        isinstance(field, str)
        and os.path.realpath(serialize.shape_path(field, base_dir))
        == os.path.realpath(shape_path)
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
        col = answer.colimit.collision
        raise DiagramError(
            "colimit collision on a certified shape: elements "
            f"{col.x} and {col.y} of {shape.objects[col.obj]} are glued"
        )
    _emit(config, serialize.dump(serialize.cocone_to_doc(diagram, answer.cocone)))
    return 0


def cmd_oracle(config: RunConfig) -> int:
    path = corpus.resolve(config.inputs[0])
    diagram = serialize.diagram_from_doc(
        serialize.load_document(path), base_dir=os.path.dirname(path)
    )
    answer = has_cocone(diagram)
    if answer:
        _emit(config, serialize.dump(serialize.cocone_to_doc(diagram, answer.cocone)))
        return 0
    col = answer.colimit.collision
    nodes, _ = collision_zigzag(diagram, col)
    doc = {
        "type": "no-cocone",
        "collision": {
            "object": diagram.shape.objects[col.obj],
            "elements": [col.x, col.y],
            "zigzag": [[diagram.shape.objects[o], e] for o, e in nodes],
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
        serialize.diagram_from_doc(doc, base_dir=os.path.dirname(path))
    else:
        raise ParseError(f"cannot validate documents of type '{clip(kind)}'")
    _emit(config, f"valid {kind}\n")
    return 0


def cmd_gen(config: RunConfig) -> int:
    import random

    from . import gen  # no other command runs a generator

    kind, *rest = config.inputs
    rng = random.Random(config.seed)
    if kind == "diagram":
        if not rest:
            raise ParseError("gen diagram expects a shape path or corpus name")
        if len(rest) > 1:
            raise ParseError("gen diagram expects 2 input argument(s)")
        shape = _load_shape(rest[0])
        analysis = analyze_shape(shape)
        if analysis.skeleton is None:
            raise DiagramError("gen diagram: the monic reflection is not a preorder")
        diagram = gen.random_diagram_over_poset(
            analysis.skeleton, rng, shape=shape, element_of=analysis.skeleton_map
        )
        _emit(config, serialize.dump(serialize.diagram_to_doc(diagram)))
        return 0
    if len(rest) > 1:
        raise ParseError(f"gen {clip(kind)} expects at most 2 input argument(s)")
    try:
        size = int(rest[0]) if rest else 5
    except ValueError:
        raise ParseError(f"SIZE must be an integer, got '{clip(rest[0])}'") from None
    if not 0 < size <= config.max_size:
        raise ParseError(f"size must be in 1..{clip(config.max_size)}")
    if kind == "poset":
        poset = gen.random_poset(size, rng)
    elif kind == "forest":
        poset = gen.random_forest(size, rng)
        if not isinstance(is_forest_like(poset), ForestCertificate):
            raise PosetError("gen forest drew a poset that is not forest-like")
    elif kind == "nonforest":
        poset = gen.random_nonforest(size, rng)
    else:
        raise ParseError(f"unknown generator kind '{clip(kind)}'")
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


HELP = """\
usage: amalgam COMMAND [INPUTS...] [--out PATH] [--seed N] [--max-size N]
                       [--format text|structured]

Decide whether every diagram of a finite shape admits a cocone in every
category with the amalgamation (and joint embedding) property.

commands:
  check SHAPE           decide; print the report (--format structured: the verdict)
  explain SHAPE         decide; always the prose report
  witness SHAPE         a verified cocone-free diagram over the shape
  cocone SHAPE DIAGRAM  a cocone for a diagram over an amalgamable shape
  oracle DIAGRAM        the cocone of a concrete diagram, or its collision
  validate DOCUMENT     parse and validate any document
  gen KIND [SIZE]       a seeded poset, forest or nonforest of SIZE elements
  gen diagram SHAPE     a seeded diagram over the shape

Inputs are paths, or names of bundled corpus entries.  Options may come
anywhere, as --name VALUE, --name=VALUE or an unambiguous prefix of --name;
every argument after -- is an input.

options:
  -h, --help            show this help and exit
  --out PATH            write the output document to this path
  --seed N              seed for gen (default 0)
  --max-size N          bound for generated instances (default 64)
  --format FORMAT       text | structured: verdict output style for check

exit codes: 0 positive outcome, 1 negative outcome, 2 input or validation error
"""

OPTIONS = ("--out", "--seed", "--max-size", "--format", "--help")
_NEGATIVE_NUMBER = r"-\d+$|-\d*\.\d+$"


def _option(token: str):
    """(option, value given after '=' or None) for a token that is an
    option, None for an input, and (None, None) for an unknown option.

    As with argparse, a token is an input unless it starts with '-'; '-'
    itself, a negative number, and an unknown option holding a space are
    inputs too.  A long option may be any unambiguous prefix of its name.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token[1] == "-":
        name, eq, value = token.partition("=")
        matches = [o for o in OPTIONS if o.startswith(name)]
        if len(matches) == 1:
            return matches[0], value if eq else None
    elif token[1] == "h":  # -h, or -h with a value it does not take
        return ("--help", None) if token == "-h" else (None, None)
    else:
        import re  # reached only by a short option other than -h

        if re.match(_NEGATIVE_NUMBER, token):
            return None
    return None if " " in token else (None, None)


def parse_args(argv) -> RunConfig | None:
    """The run an argument list asks for: ``COMMAND [INPUTS...]`` with the
    options anywhere, or None when it asks for help.  Raises ParseError
    naming the first argument at fault."""
    inputs = []
    out, seed, max_size, fmt = None, 0, 64, "text"
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            inputs.extend(tokens)
            break
        option = _option(token)
        if option is None:
            inputs.append(token)
            continue
        name, value = option
        if name is None:
            raise ParseError(f"unrecognized option '{clip(token)}'")
        if name == "--help":
            if value is not None:
                raise ParseError(f"{clip(token)}: --help takes no value")
            return None
        if value is None:
            value = next(tokens, "--")
            if value == "--" or _option(value) is not None:
                raise ParseError(f"{name} expects a value")
        if name == "--out":
            out = value
        elif name == "--format":
            if value not in ("text", "structured"):
                raise ParseError(f"--format must be text or structured, got '{clip(value)}'")
            fmt = value
        else:
            try:
                number = int(value)
            except ValueError:
                raise ParseError(f"{name} expects an integer, got '{clip(value)}'") from None
            if name == "--seed":
                seed = number
            else:
                max_size = number
    if not inputs:
        raise ParseError(f"missing COMMAND: one of {', '.join(sorted(HANDLERS))}")
    command = inputs[0]
    if command not in HANDLERS:
        raise ParseError(
            f"unknown command '{clip(command)}': one of {', '.join(sorted(HANDLERS))}"
        )
    if max_size <= 0:
        raise ParseError("--max-size must be positive")
    return RunConfig(command, tuple(inputs[1:]), out, seed, max_size, fmt)


def main(argv=None) -> int:
    """Run one command; returns its exit code.  The cyclic collector is
    paused while it runs and left as it was found: a command builds one
    graph of objects without cycles, which reference counting frees, and
    the collector would only walk its survivors again and again."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
        if config is None:
            sys.stdout.write(HELP)
            return 0
        handler, arity = HANDLERS[config.command]
        if arity is not None and len(config.inputs) != arity:
            raise ParseError(
                f"{config.command} expects {arity} input argument(s)"
            )
        if config.command == "gen" and not config.inputs:
            raise ParseError("gen expects a kind: poset | forest | nonforest | diagram")
        return handler(config)
    except OSError as exc:
        print(f"error: {serialize.clip_paths(exc)}", file=sys.stderr)
        return 2
    except (ParseError, CategoryError, PosetError, DiagramError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
