"""Read and write molecular-orbital integrals (FCIDUMP); write raw AO integrals.

Both formats store a symmetric matrix as its lower triangle, and a
chemist-notation ERI tensor (ij|kl), which has 8-fold symmetry, as one
symmetric matrix over orbital pairs j <= i numbered by `pair_index`: each
line `<value> p q r s` is the pair-matrix entry of row (p, q) and column
(r, s), 1-based. Writers emit the lower triangle in row order (q <= p,
s <= r, (r, s) <= (p, q)); the FCIDUMP reader sets an entry and its
mirror, last line winning, and gathers the tensor from the pair matrix once
at the end.

FCIDUMP data lines are `<value> i j k l`: `i j 0 0` is the one-body h_ij,
`0 0 0 0` the core energy, anything else the two-body (ij|kl). The AO file
is `NAO <n>` and then SECTION blocks of `<value> <indices...>` lines.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ResourceError, UsageError
from .integrals import AOIntegrals, pair_index

# drop integrals below this when writing; also the round-trip fidelity bound
WRITE_THRESHOLD = 1e-14
# the most bytes (8 n^4) of the ERI tensor parse_fcidump allocates, checked
# before it allocates that tensor and the pair matrix it is gathered from (a
# quarter of its size). 1 GiB allows n <= 107.
ERI_BYTES_LIMIT = 2**30


@dataclass
class MOIntegrals:
    """Spatial-orbital integrals: h_pq, (pq|rs), core energy, electron count."""

    n_orbitals: int
    n_electrons: int
    h: np.ndarray
    g: np.ndarray
    e_core: float = 0.0

    def validate(self):
        """Shapes and electron count. parse_fcidump makes h and g symmetric
        by construction: it sets an entry and its mirror in h and in the ERI
        pair matrix, and gathers g from that matrix."""
        n = self.n_orbitals
        if self.h.shape != (n, n) or self.g.shape != (n, n, n, n):
            raise UsageError("integral array shapes do not match n_orbitals")
        if not 0 <= self.n_electrons <= 2 * n:
            raise UsageError(f"electron count {self.n_electrons} outside 0..{2 * n}, "
                             f"the spin orbitals of {n} orbitals")
        return self

    def copy(self):
        return replace(self, h=self.h.copy(), g=self.g.copy())


def closed_shell_pairs(n_electrons: int, n_orbitals: int) -> int:
    """N/2, the doubly occupied orbitals of every closed-shell method's
    determinant; UsageError unless N is even and 0 <= N <= 2n."""
    if n_electrons % 2 or not 0 <= n_electrons <= 2 * n_orbitals:
        raise UsageError(f"closed-shell methods need an even electron count in "
                         f"0..{2 * n_orbitals} for {n_orbitals} orbitals, got {n_electrons}")
    return n_electrons // 2


def _check_eri_size(n):
    """ResourceError before any allocation if n orbitals' ERIs pass ERI_BYTES_LIMIT."""
    if 8 * n**4 > ERI_BYTES_LIMIT:
        raise ResourceError(
            f"{n} orbitals need {8 * n**4 / 2**30:.3g} GiB of two-body integrals, "
            f"more than the {ERI_BYTES_LIMIT / 2**30:g} GiB limit"
        )


def _data_line(line, lineno, n):
    """The finite value and the four int indices, each in 0..n, of a data
    line `<value> i j k l`."""
    parts = line.split()
    if len(parts) != 5:
        raise ParseError(f"expected '<value> i j k l', got {line!r}", line=lineno)
    try:
        value = float(parts[0])
        idx = [int(x) for x in parts[1:]]
    except ValueError:
        raise ParseError(f"malformed numeric literal in {line!r}", line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite integral in {line!r}", line=lineno)
    for i in idx:
        if not 0 <= i <= n:
            raise ParseError(f"index {i} out of range 0..{n} in {line!r}", line=lineno)
    return value, idx


def _parse_header(lines):
    """NORB and NELEC, with MS2 checked, from the &FCI ... &END (or /) header."""
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

    def field(key, default=None):
        m = re.search(rf"{key}\s*=\s*([^,\s&/]*)", blob, re.IGNORECASE)
        if not m and default is not None:
            return default
        if not m:
            raise ParseError(f"FCIDUMP header missing {key}", line=1)
        if not re.fullmatch("[-+]?[0-9]+", m.group(1)):
            raise ParseError(f"FCIDUMP header {key}={m.group(1)!r} is not an integer", line=1)
        return int(m.group(1))

    norb, nelec, ms2 = field("NORB"), field("NELEC"), field("MS2", default=0)
    if ms2 not in (0, nelec % 2):
        raise ParseError(f"FCIDUMP header MS2={ms2} with NELEC={nelec}: molq computes "
                         "only the lowest-spin block (MS2 0, or 1 for odd NELEC)", line=1)
    return norb, nelec, consumed


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
        value, idx = _data_line(line, lineno, norb)
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


def write_fcidump(mo: MOIntegrals) -> str:
    """Serialize MOIntegrals as FCIDUMP text: a closed-shell header
    (MS2=0), the ERI pair matrix, then h (`i j 0 0`), then the core energy
    (`0 0 0 0`)."""
    return "\n".join([
        f"&FCI NORB={mo.n_orbitals},NELEC={mo.n_electrons},MS2=0,", "&END",
        *_eri_lines(mo.g),
        *_lower_triangle(mo.h, range(1, mo.n_orbitals + 1), " 0 0"),
        f"{mo.e_core:.17g} 0 0 0 0",
    ]) + "\n"


def write_ao_file(ao: AOIntegrals) -> str:
    """Serialize AOIntegrals in the native AO format, each value to 17
    significant digits, so the text holds every value exactly."""
    labels = range(1, ao.n_ao + 1)
    return "\n".join([
        f"NAO {ao.n_ao}",
        "SECTION OVERLAP", *_lower_triangle(ao.overlap, labels),
        "SECTION CORE", *_lower_triangle(ao.core_hamiltonian, labels),
        "SECTION ERI", *_eri_lines(ao.eri),
        "SECTION ENUC", f"{ao.e_nuclear:.17g}",
        "SECTION NELEC", f"{ao.n_electrons}",
    ]) + "\n"
