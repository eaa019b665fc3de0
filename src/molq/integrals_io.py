"""Read/write molecular-orbital integrals (FCIDUMP) and raw AO integrals.

Both formats store a symmetric matrix as its lower triangle, and a
chemist-notation ERI tensor (ij|kl), which has 8-fold symmetry, as one
symmetric matrix over orbital pairs j <= i numbered by `pair_index`: each
line `<value> p q r s` is the pair-matrix entry of row (p, q) and column
(r, s), 1-based. Writers emit the lower triangle in row order (q <= p,
s <= r, (r, s) <= (p, q)); readers set an entry and its mirror, last line
winning, and gather the tensor from the pair matrix once at the end.

FCIDUMP data lines are `<value> i j k l`: `i j 0 0` is the one-body h_ij,
`0 0 0 0` the core energy, anything else the two-body (ij|kl). The AO file
is `NAO <n>` and then SECTION blocks of `<value> <indices...>` lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ResourceError, UsageError
from .integrals import AOIntegrals, pair_index

# drop integrals below this when writing; also the round-trip fidelity bound
WRITE_THRESHOLD = 1e-14
# the most bytes (8 n^4) of the ERI tensor a reader allocates: the tensor and
# MOIntegrals.validate's two temporaries of its size must fit in memory.
# 1 GiB allows n <= 107.
ERI_BYTES_LIMIT = 2**30


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
        if not 0 <= self.n_electrons <= 2 * n:
            raise UsageError(f"electron count {self.n_electrons} outside 0..{2 * n}, "
                             f"the spin orbitals of {n} orbitals")
        if np.max(np.abs(self.h - self.h.T)) > tol:
            raise UsageError("one-body integrals not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(self.g - self.g.transpose(perm))) > tol:
                raise UsageError("two-body integrals break 8-fold symmetry")
        return self

    def copy(self):
        return replace(self, h=self.h.copy(), g=self.g.copy())


def _check_eri_size(n):
    """ResourceError before any allocation if n orbitals' ERIs pass ERI_BYTES_LIMIT."""
    if 8 * n**4 > ERI_BYTES_LIMIT:
        raise ResourceError(
            f"{n} orbitals need {8 * n**4 / 2**30:.3g} GiB of two-body integrals, "
            f"more than the {ERI_BYTES_LIMIT / 2**30:g} GiB limit"
        )


def _data_line(line, lineno, n, lowest):
    """The value and int indices of a data line `<value> <index>...`, each
    index in lowest..n."""
    parts = line.split()
    try:
        value = float(parts[0])
        idx = [int(x) for x in parts[1:]]
    except ValueError:
        raise ParseError(f"malformed numeric literal in {line!r}", line=lineno) from None
    for i in idx:
        if not lowest <= i <= n:
            raise ParseError(f"index {i} out of range {lowest}..{n} in {line!r}", line=lineno)
    return value, idx


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
        m = re.search(rf"{key}\s*=\s*([^,\s&/]*)", blob, re.IGNORECASE)
        if not m:
            raise ParseError(f"FCIDUMP header missing {key}", line=1)
        if not re.fullmatch("[-+]?[0-9]+", m.group(1)):
            raise ParseError(f"FCIDUMP header {key}={m.group(1)!r} is not an integer", line=1)
        return int(m.group(1))

    return field("NORB"), field("NELEC"), consumed


def parse_fcidump(text: str) -> MOIntegrals:
    """Parse FCIDUMP text into MOIntegrals (0-based in memory)."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1)]
    norb, nelec, consumed = _parse_header(lines)
    if norb < 1:
        raise ParseError("NORB must be >= 1", line=1)
    _check_eri_size(norb)

    index = pair_index(norb)
    pair = index.tolist()
    h = np.zeros((norb, norb))
    pairs = np.zeros((norb * (norb + 1) // 2,) * 2)
    e_core = 0.0

    for lineno, raw in lines[consumed:]:
        line = raw.strip()
        if not line:
            continue
        value, idx = _data_line(line, lineno, norb, 0)
        if len(idx) != 4:
            raise ParseError(f"expected '<value> i j k l', got {line!r}", line=lineno)
        i, j, k, l = idx
        if i == j == k == l == 0:
            e_core = value
        elif k == l == 0:
            if i == 0 or j == 0:
                raise ParseError(f"one-body line with a zero index: {line!r}", line=lineno)
            h[i - 1, j - 1] = h[j - 1, i - 1] = value
        else:
            if 0 in idx:
                raise ParseError(f"two-body line with a zero index: {line!r}", line=lineno)
            x, y = pair[i - 1][j - 1], pair[k - 1][l - 1]
            pairs[x, y] = pairs[y, x] = value

    g = pairs[index[:, :, None, None], index]
    return MOIntegrals(norb, nelec, h, g, e_core).validate()


def _lower_triangle(m, labels, suffix=""):
    """`<value> <row label> <col label><suffix>` for each lower-triangle
    entry of the symmetric matrix m, in row order, at or above
    WRITE_THRESHOLD in magnitude, to 17 significant digits."""
    return [
        f"{value:.17g} {labels[r]} {labels[c]}{suffix}"
        for r, row in enumerate(m.tolist())
        for c, value in enumerate(row[: r + 1])
        if abs(value) >= WRITE_THRESHOLD
    ]


def _eri_lines(g):
    """The lower triangle of g's pair matrix, rows and columns labelled
    `p q`; np.tril_indices lists the pairs in pair_index order."""
    p, q = np.tril_indices(len(g))
    labels = [f"{a} {b}" for a, b in zip((p + 1).tolist(), (q + 1).tolist())]
    return _lower_triangle(g[p[:, None], q[:, None], p, q], labels)


def write_fcidump(mo: MOIntegrals, ms2: int = 0) -> str:
    """Serialize MOIntegrals as FCIDUMP text: the ERI pair matrix, then h
    (`i j 0 0`), then the core energy (`0 0 0 0`)."""
    return "\n".join([
        f"&FCI NORB={mo.n_orbitals},NELEC={mo.n_electrons},MS2={ms2},", "&END",
        *_eri_lines(mo.g),
        *_lower_triangle(mo.h, range(1, mo.n_orbitals + 1), " 0 0"),
        f"{mo.e_core:.17g} 0 0 0 0",
    ]) + "\n"


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
    _check_eri_size(n)

    index = pair_index(n)
    pair = index.tolist()
    S = np.zeros((n, n))
    H = np.zeros((n, n))
    pairs = np.zeros((n * (n + 1) // 2,) * 2)
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
        value, idx = _data_line(line, lineno, n, 1)
        if section in ("OVERLAP", "CORE"):
            if len(idx) != 2:
                raise ParseError("matrix entries need 2 indices", line=lineno)
            m = S if section == "OVERLAP" else H
            m[idx[0] - 1, idx[1] - 1] = m[idx[1] - 1, idx[0] - 1] = value
        elif section == "ERI":
            if len(idx) != 4:
                raise ParseError("ERI entries need 4 indices", line=lineno)
            i, j, k, l = idx
            x, y = pair[i - 1][j - 1], pair[k - 1][l - 1]
            pairs[x, y] = pairs[y, x] = value
        elif section == "ENUC":
            if idx:
                raise ParseError("ENUC entry takes no indices", line=lineno)
            e_nuc = value
        else:  # NELEC
            if idx:
                raise ParseError("NELEC entry takes no indices", line=lineno)
            nelec = int(value)

    eri = pairs[index[:, :, None, None], index]
    return AOIntegrals(n, S, H, eri, e_nuc, nelec)


def write_ao_file(ao: AOIntegrals) -> str:
    """Serialize AOIntegrals in the native AO format (round-trips exactly)."""
    labels = range(1, ao.n_ao + 1)
    return "\n".join([
        f"NAO {ao.n_ao}",
        "SECTION OVERLAP", *_lower_triangle(ao.overlap, labels),
        "SECTION CORE", *_lower_triangle(ao.core_hamiltonian, labels),
        "SECTION ERI", *_eri_lines(ao.eri),
        "SECTION ENUC", f"{ao.e_nuclear:.17g}",
        "SECTION NELEC", f"{ao.n_electrons}",
    ]) + "\n"
