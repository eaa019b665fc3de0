"""Read/write molecular-orbital integrals (FCIDUMP) and raw AO integrals.

FCIDUMP data lines are `<value> i j k l` with 1-based indices: `i j 0 0`
stores the one-body h_ij, `0 0 0 0` the core energy, anything else the
chemist-notation two-body (ij|kl). Each stored value is fanned out to its
full 8-fold symmetry orbit on read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, UsageError
from .integrals import AOIntegrals, _eri_orbit, _eri_quartets

# drop integrals below this when writing; also the round-trip fidelity bound
WRITE_THRESHOLD = 1e-14


@dataclass
class MOIntegrals:
    """Spatial-orbital integrals: h_pq, (pq|rs), core energy, electron count."""

    n_orbitals: int
    n_electrons: int
    h: np.ndarray
    g: np.ndarray
    e_core: float = 0.0

    def validate(self, tol=1e-12):
        n = self.n_orbitals
        if self.h.shape != (n, n) or self.g.shape != (n, n, n, n):
            raise UsageError("integral array shapes do not match n_orbitals")
        if self.n_electrons > 2 * n:
            raise UsageError("more electrons than spin orbitals")
        if np.max(np.abs(self.h - self.h.T)) > tol:
            raise UsageError("one-body integrals not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(self.g - self.g.transpose(perm))) > tol:
                raise UsageError("two-body integrals break 8-fold symmetry")
        return self

    def copy(self):
        return replace(self, h=self.h.copy(), g=self.g.copy())


def _parse_header(lines):
    """Extract NORB/NELEC from the &FCI ... &END (or /) namelist header."""
    header_text = []
    consumed = 0
    for lineno, line in lines:
        header_text.append(line)
        consumed += 1
        if "&END" in line.upper() or line.strip().endswith("/"):
            break
    else:
        raise ParseError("FCIDUMP header never terminated with &END or /", line=1)
    blob = " ".join(header_text)
    if not blob.lstrip().upper().startswith("&FCI"):
        raise ParseError("FCIDUMP must begin with &FCI", line=1)

    def field(key):
        m = re.search(rf"{key}\s*=\s*([-+0-9]+)", blob, re.IGNORECASE)
        if not m:
            raise ParseError(f"FCIDUMP header missing {key}", line=1)
        return int(m.group(1))

    return field("NORB"), field("NELEC"), consumed


def parse_fcidump(text: str) -> MOIntegrals:
    """Parse FCIDUMP text into MOIntegrals (0-based in memory)."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1)]
    norb, nelec, consumed = _parse_header(lines)
    if norb < 1:
        raise ParseError("NORB must be >= 1", line=1)

    h = np.zeros((norb, norb))
    g = np.zeros((norb, norb, norb, norb))
    e_core = 0.0

    for lineno, raw in lines[consumed:]:
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(f"expected '<value> i j k l', got {line!r}", line=lineno)
        try:
            value = float(parts[0])
            i, j, k, l = (int(x) for x in parts[1:])
        except ValueError:
            raise ParseError(f"malformed numeric literal in {line!r}", line=lineno) from None
        for name, idx in zip("ijkl", (i, j, k, l)):
            if idx < 0 or idx > norb:
                raise ParseError(f"index {name}={idx} out of range 0..{norb}", line=lineno)
        if i == j == k == l == 0:
            e_core = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ParseError(f"one-body line with a zero index: {line!r}", line=lineno)
            h[i - 1, j - 1] = value
            h[j - 1, i - 1] = value
        else:
            if 0 in (i, j, k, l):
                raise ParseError(f"two-body line with a zero index: {line!r}", line=lineno)
            for idx in _eri_orbit(i - 1, j - 1, k - 1, l - 1):
                g[idx] = value

    return MOIntegrals(norb, nelec, h, g, e_core).validate()


def write_fcidump(mo: MOIntegrals, ms2: int = 0) -> str:
    """Serialize MOIntegrals as FCIDUMP text.

    One line per unique symmetry-orbit representative (largest index first),
    17 significant digits, magnitudes below 1e-14 omitted.
    """
    n = mo.n_orbitals
    out = [f"&FCI NORB={n},NELEC={mo.n_electrons},MS2={ms2},", "&END"]

    def fmt(value, i, j, k, l):
        return f"{value:.17g} {i} {j} {k} {l}"

    for p, q, r, s in _eri_quartets(n):
        v = mo.g[p, q, r, s]
        if abs(v) >= WRITE_THRESHOLD:
            out.append(fmt(v, p + 1, q + 1, r + 1, s + 1))
    for p in range(n):
        for q in range(p + 1):
            if abs(mo.h[p, q]) >= WRITE_THRESHOLD:
                out.append(fmt(mo.h[p, q], p + 1, q + 1, 0, 0))
    out.append(fmt(mo.e_core, 0, 0, 0, 0))
    return "\n".join(out) + "\n"


_AO_SECTIONS = ("OVERLAP", "CORE", "ERI", "ENUC", "NELEC")


def read_ao_file(text: str) -> AOIntegrals:
    """Parse the native AO format: `NAO <n>` then SECTION blocks with
    1-based `<value> <indices...>` entries; symmetry completed like FCIDUMP."""
    lines = [(i, ln.split("#", 1)[0].strip()) for i, ln in enumerate(text.splitlines(), 1)]
    lines = [(i, ln) for i, ln in lines if ln]
    if not lines:
        raise ParseError("empty AO file", line=1)
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0].upper() != "NAO":
        raise ParseError(f"expected 'NAO <n>', got {head!r}", line=lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad basis size {parts[1]!r}", line=lineno) from None
    if n < 1:
        raise ParseError("NAO must be >= 1", line=lineno)

    S = np.zeros((n, n))
    H = np.zeros((n, n))
    eri = np.zeros((n, n, n, n))
    e_nuc = 0.0
    nelec = 0
    section = None

    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0].upper() == "SECTION":
            if len(parts) != 2 or parts[1].upper() not in _AO_SECTIONS:
                raise ParseError(f"unknown section in {line!r}", line=lineno)
            section = parts[1].upper()
            continue
        if section is None:
            raise ParseError("data line before any SECTION", line=lineno)
        try:
            value = float(parts[0])
            idx = [int(x) for x in parts[1:]]
        except ValueError:
            raise ParseError(f"malformed numeric literal in {line!r}", line=lineno) from None
        if any(i < 1 or i > n for i in idx):
            raise ParseError(f"index out of range 1..{n} in {line!r}", line=lineno)
        if section in ("OVERLAP", "CORE"):
            if len(idx) != 2:
                raise ParseError("matrix entries need 2 indices", line=lineno)
            m = S if section == "OVERLAP" else H
            m[idx[0] - 1, idx[1] - 1] = value
            m[idx[1] - 1, idx[0] - 1] = value
        elif section == "ERI":
            if len(idx) != 4:
                raise ParseError("ERI entries need 4 indices", line=lineno)
            for t in _eri_orbit(*(i - 1 for i in idx)):
                eri[t] = value
        elif section == "ENUC":
            if idx:
                raise ParseError("ENUC entry takes no indices", line=lineno)
            e_nuc = value
        else:  # NELEC
            if idx:
                raise ParseError("NELEC entry takes no indices", line=lineno)
            nelec = int(value)

    return AOIntegrals(n, S, H, eri, e_nuc, nelec)


def write_ao_file(ao: AOIntegrals) -> str:
    """Serialize AOIntegrals in the native AO format (round-trips exactly)."""
    n = ao.n_ao
    out = [f"NAO {n}", "SECTION OVERLAP"]
    for p in range(n):
        for q in range(p + 1):
            if abs(ao.overlap[p, q]) >= WRITE_THRESHOLD:
                out.append(f"{ao.overlap[p, q]:.17g} {p + 1} {q + 1}")
    out.append("SECTION CORE")
    for p in range(n):
        for q in range(p + 1):
            if abs(ao.core_hamiltonian[p, q]) >= WRITE_THRESHOLD:
                out.append(f"{ao.core_hamiltonian[p, q]:.17g} {p + 1} {q + 1}")
    out.append("SECTION ERI")
    for p, q, r, s in _eri_quartets(n):
        v = ao.eri[p, q, r, s]
        if abs(v) >= WRITE_THRESHOLD:
            out.append(f"{v:.17g} {p + 1} {q + 1} {r + 1} {s + 1}")
    out.append("SECTION ENUC")
    out.append(f"{ao.e_nuclear:.17g}")
    out.append("SECTION NELEC")
    out.append(f"{ao.n_electrons}")
    return "\n".join(out) + "\n"
