"""Access to the bundled corpus of example shapes and diagrams."""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path


def _root():
    return resources.files(__package__) / "corpus"


def names() -> list[str]:
    return sorted(
        p.name[: -len(".json")]
        for p in _root().iterdir()
        if p.name.endswith(".json")
    )


def path(name: str) -> Path:
    entry = _root() / f"{name}.json"
    if not entry.is_file():
        raise FileNotFoundError(f"no corpus entry named '{name}'")
    return Path(str(entry))


def resolve(ref: str) -> str:
    """Interpret a CLI argument as a filesystem path or a corpus name.

    Only a bare name (no path separator, no ``.json`` suffix) may name a
    corpus entry, so a missing file is never swapped for a bundled one.
    A file argument is returned as given; pathlib is met only off that path.
    """
    if os.path.isfile(ref):
        return ref
    p = Path(ref)
    if p.is_file():  # named with a trailing '/' or '/.', which pathlib drops
        return str(p)
    if p.name == ref and p.suffix != ".json":
        try:
            return str(path(ref))
        except FileNotFoundError:
            pass
    raise FileNotFoundError(f"no such file or corpus entry: {ref}")
