"""Plain-text cone files.

Line oriented: `#` starts a comment, blank lines are skipped.  The first
payload line is `dim <d>`; optional `name <word>` and `char <p>` lines may
follow; every remaining line is one generator given as d integers.
Generators are rows of the file even though the library treats them as
column vectors.  A dimension above MAX_DIMENSION is refused as a resource
limit before any cone is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactmath import Vec, vec
from .semigroup import ResourceLimitError

# the largest dimension a cone file may declare; every fixture and corpus cone
# has dimension 2 to 5, and a bare `dim d` line alone builds a cone over 2d
# constraints, so an unbounded d stalls every command that reads the file
MAX_DIMENSION = 32


class ConeFileError(ValueError):
    """Malformed cone file; the message carries the offending line number."""


@dataclass(frozen=True)
class ConeFile:
    dim: int
    generators: tuple[Vec, ...]
    name: Optional[str] = None
    characteristic: Optional[int] = None


def parse_cone_file(text: str) -> ConeFile:
    dim: Optional[int] = None
    name: Optional[str] = None
    char: Optional[int] = None
    gens: list[Vec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if dim is None:
            if parts[0] != "dim" or len(parts) != 2:
                raise ConeFileError(f"line {lineno}: expected 'dim <d>' first")
            try:
                dim = int(parts[1])
            except ValueError:
                raise ConeFileError(f"line {lineno}: dimension is not an integer") from None
            if dim <= 0:
                raise ConeFileError(f"line {lineno}: dimension must be positive")
            if dim > MAX_DIMENSION:
                raise ResourceLimitError(
                    f"line {lineno}: dimension {dim} is more than {MAX_DIMENSION}, "
                    "the largest a cone file may declare"
                )
            continue
        if not gens and parts[0] == "name" and len(parts) == 2:
            if name is not None:
                raise ConeFileError(f"line {lineno}: duplicate name line")
            name = parts[1]
            continue
        if not gens and parts[0] == "char" and len(parts) == 2:
            if char is not None:
                raise ConeFileError(f"line {lineno}: duplicate char line")
            try:
                char = int(parts[1])
            except ValueError:
                raise ConeFileError(f"line {lineno}: characteristic is not an integer") from None
            continue
        try:
            g = vec(int(p) for p in parts)
        except ValueError:
            raise ConeFileError(f"line {lineno}: expected {dim} integers") from None
        if len(g) != dim:
            raise ConeFileError(f"line {lineno}: expected {dim} integers, got {len(g)}")
        gens.append(g)
    if dim is None:
        raise ConeFileError("line 1: empty cone file")
    return ConeFile(dim=dim, generators=tuple(gens), name=name, characteristic=char)


def render_cone_file(cf: ConeFile) -> str:
    lines = [f"dim {cf.dim}"]
    if cf.name is not None:
        lines.append(f"name {cf.name}")
    if cf.characteristic is not None:
        lines.append(f"char {cf.characteristic}")
    for g in cf.generators:
        lines.append(" ".join(str(e) for e in g))
    return "\n".join(lines) + "\n"
