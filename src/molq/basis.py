"""The plain-text basis format: parse it, and load a shipped basis or a file.

A basis file is one block per contracted s function: a line
`ELEMENT <symbol> <n_prims>` followed by n lines `<exponent> <coefficient>`.
`#` starts a comment. This module owns the format as integrals_io owns
FCIDUMP; integrals.assign_basis places a BasisSet's functions on a
molecule. It needs no numpy, so loading a basis costs only the standard
library.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .errors import ParseError, UsageError

# Shipped basis parses kept by load_basis, least recently used evicted first
_BASIS_CAPACITY = 4


@dataclass(frozen=True)
class BasisSet:
    """Per-element (exponents, coefficients) shell parameters, read-only:
    load_basis hands one parse to every caller."""

    name: str
    shells: Mapping   # symbol -> ((exponents, coefficients), ...), all tuples


def parse_basis(text, name="user"):
    """Parse the plain-text basis format.

    One block per contracted function: a line `ELEMENT <symbol> <n_prims>`
    followed by n lines `<exponent> <coefficient>`. `#` starts a comment.
    Multiple blocks for one element accumulate (e.g. Li 1s + 2s).
    """
    shells: dict[str, list] = {}
    lines = text.splitlines()
    i = 0

    def strip(line):
        return line.split("#", 1)[0].strip()

    n_lines = len(lines)
    while i < n_lines:
        head = strip(lines[i])
        i += 1
        if not head:
            continue
        parts = head.split()
        if parts[0].upper() != "ELEMENT" or len(parts) != 3:
            raise ParseError(f"expected 'ELEMENT <symbol> <n>', got {head!r}", line=i)
        symbol = parts[1]
        try:
            n_prim = int(parts[2])
        except ValueError:
            raise ParseError(f"bad primitive count {parts[2]!r}", line=i) from None
        if n_prim < 1:
            raise ParseError("primitive count must be >= 1", line=i)
        exps, coefs = [], []
        while len(exps) < n_prim and i < n_lines:
            row = strip(lines[i])
            i += 1
            if not row:
                continue
            fields = row.split()
            if len(fields) != 2:
                raise ParseError(f"expected '<exponent> <coefficient>', got {row!r}", line=i)
            try:
                exponent, coefficient = float(fields[0]), float(fields[1])
            except ValueError:
                raise ParseError(f"bad numeric literal in {row!r}", line=i) from None
            if not (math.isfinite(exponent) and exponent > 0.0):
                raise ParseError(f"exponent must be finite and > 0, got {row!r}", line=i)
            if not math.isfinite(coefficient):
                raise ParseError(f"coefficient must be finite, got {row!r}", line=i)
            exps.append(exponent)
            coefs.append(coefficient)
        if len(exps) < n_prim:
            raise ParseError(f"block for {symbol} ends before {n_prim} primitives", line=i)
        shells.setdefault(symbol, []).append((tuple(exps), tuple(coefs)))
    return BasisSet(name, MappingProxyType({s: tuple(v) for s, v in shells.items()}))


def _shipped(key):
    return resources.files(__package__) / "data" / f"{key}.basis"


@functools.lru_cache(maxsize=_BASIS_CAPACITY)
def _read_basis(key: str) -> BasisSet:
    """The parse of the shipped basis key, package data that never changes."""
    return parse_basis(_shipped(key).read_text(), name=key)


def load_basis(name_or_path) -> BasisSet:
    """Load a basis by shipped name (e.g. 'sto-3g') or from a file path.

    A scan asks for its basis at every point, so a shipped basis is parsed
    once and its parse kept; a file is read at every call."""
    key = str(name_or_path).lower()
    if _shipped(key).is_file():
        return _read_basis(key)
    path = Path(name_or_path)
    if path.is_file():
        return parse_basis(path.read_text(), name=path.stem)
    raise UsageError(f"unknown basis {name_or_path!r} (not shipped, not a file)")
