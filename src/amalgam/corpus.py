"""Access to the bundled corpus of example shapes and diagrams."""

from __future__ import annotations

import os

from .poset import clip

# The corpus ships as files in the package's own directory.
_ROOT = os.path.join(os.path.dirname(__file__), "corpus")


def _entry(name: str) -> str:
    entry = os.path.join(_ROOT, f"{name}.json")
    if not os.path.isfile(entry):
        raise FileNotFoundError(f"no corpus entry named '{name}'")
    return entry


def resolve(ref: str) -> str:
    """Interpret a CLI argument as a filesystem path or a corpus name.

    Only a bare name (no path separator, no ``.json`` suffix) may name a
    corpus entry, so a missing file is never swapped for a bundled one.
    A file argument is returned as given, and a corpus name resolved with
    ``os.path``; pathlib is met only by a path that names no file as given.
    """
    if os.path.isfile(ref):
        return ref
    if os.path.basename(ref) != ref:
        from pathlib import Path

        p = Path(ref)
        if p.is_file():  # named with a trailing '/' or '/.', which pathlib drops
            return str(p)
    elif not ref.endswith(".json"):
        try:
            return _entry(ref)
        except FileNotFoundError:
            pass
    raise FileNotFoundError(f"no such file or corpus entry: {clip(ref)}")
