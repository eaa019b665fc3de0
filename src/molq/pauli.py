"""Pauli-string algebra and the Jordan-Wigner transform.

A Pauli string is two integer bit masks in symplectic form: bit q of `x`
is set where qubit q carries X or Y, bit q of `z` where it carries Z or Y.
With Y = i X Z, a string is P = i^|x&z| X^x Z^z, so a product is an XOR of
the masks and its phase follows from popcounts. Jordan-Wigner maps ladder
operators to strings with Z parity chains:

    a+_p -> 1/2 (X_p - i Y_p) Z_{p-1} ... Z_0
    a_p  -> 1/2 (X_p + i Y_p) Z_{p-1} ... Z_0

A PauliSum is stored as three columns: int64 masks `x` and `z` and its
`coefficients`, the one form JW, the simulator, the exact path, QWC
grouping (one PauliSum per group), sampling and the text format all read;
PauliTerms are only built when `terms` is read. A string acts as
P|b> = pauli_phase(b) |b ^ x>, whose (-1)^|b&z| part is `pauli_signs`.
`pauli_multiply` is the product rule on one pair of terms. The transform
applies the same rule to the columns of a FermionOperator: its rows are
grouped by factor count and each group is expanded in one array pass per
factor. Equal strings are then merged on the key x << 32 | z, summing
coefficients in the order the scalar fold would produce them, and sorted
by (weight, pattern); `canonicalize` is that same merge. The int64 key
bounds the transform and the merge to MAX_QUBITS; the int64 masks bound a
PauliSum to MASK_QUBITS.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ResourceError, UsageError
from .fermion import FermionOperator, _coefficient_column, _format_coefficients

COEFF_DROP = 1e-12

_LETTERS = "IXZY"           # indexed by x_bit + 2 * z_bit
_LETTER_BYTES = np.frombuffer(_LETTERS.encode(), dtype="S1")
_PHASES = (1, 1j, -1, -1j)  # i^k
_PHASE_VALUES = np.array(_PHASES, dtype=complex)
_SORT_CODE = np.array([0, 1, 3, 2])  # x_bit + 2 * z_bit -> rank of I, X, Z, Y in "IXYZ"

# Largest register any molq consumer of a PauliSum accepts; it also keeps
# the merge key x << 32 | z inside int64.
MAX_QUBITS = 24
# Largest register a PauliSum holds: its masks are int64
MASK_QUBITS = 62


def _letters(x: int, z: int) -> dict:
    """{qubit: letter} of the string with masks (x, z), ascending."""
    return {
        q: _LETTERS[(x >> q & 1) | (z >> q & 1) << 1]
        for q in range((x | z).bit_length())
        if (x | z) >> q & 1
    }


@dataclass(init=False)
class PauliTerm:
    """coefficient * Pauli string (identity on qubits outside the masks).

    Built from a {qubit: letter} map, or from the masks with x= and z=.
    """

    coefficient: complex
    x: int
    z: int

    def __init__(self, coefficient, letters=None, *, x=0, z=0):
        self.coefficient = coefficient
        for qubit, letter in (letters or {}).items():
            if letter not in ("X", "Y", "Z"):
                raise UsageError(f"bad Pauli letter {letter!r} on qubit {qubit}")
            if qubit < 0:
                raise UsageError(f"negative qubit index {qubit}")
            if letter != "Z":
                x |= 1 << qubit
            if letter != "X":
                z |= 1 << qubit
        self.x, self.z = x, z

    @property
    def letters(self) -> dict:
        """{qubit: letter} over the non-identity qubits, ascending."""
        return _letters(self.x, self.z)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def pattern_key(self):
        return tuple(self.letters.items())

    def pattern(self, n_qubits: int) -> str:
        letters = self.letters
        return "".join(letters.get(q, "I") for q in range(n_qubits))


@dataclass(init=False, eq=False)
class PauliSum:
    """Sum of Pauli strings on n_qubits, held as the columns x, z and
    coefficients. Built from PauliTerms or from the columns."""

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coefficients: np.ndarray

    def __init__(self, n_qubits, terms=(), *, x=None, z=None, coefficients=None):
        if n_qubits > MASK_QUBITS:
            raise ResourceError(f"{n_qubits} qubits exceed the {MASK_QUBITS}-qubit int64 masks")
        if coefficients is None:
            terms = list(terms)
            x, z = [t.x for t in terms], [t.z for t in terms]
            coefficients = [t.coefficient for t in terms]
        self.n_qubits = n_qubits
        try:
            self.x, self.z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
        except OverflowError:
            raise UsageError(f"a Pauli mask reaches past qubit {n_qubits - 1}") from None
        self.coefficients = _coefficient_column(coefficients)
        if not self.x.ndim == 1 or not self.x.shape == self.z.shape == self.coefficients.shape:
            raise UsageError("x, z and coefficients must be columns of one length")
        if np.any((self.x | self.z) >> n_qubits):
            raise UsageError(f"a Pauli mask reaches past qubit {n_qubits - 1}")

    @property
    def terms(self) -> list:
        """The terms as PauliTerms with Python int masks and Python
        float/complex coefficients, built afresh from the columns."""
        return [
            PauliTerm(c, x=xi, z=zi)
            for xi, zi, c in zip(self.x.tolist(), self.z.tolist(), self.coefficients.tolist())
        ]


def pauli_multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Product of two terms: XOR of the masks times an exact phase i^k.

    Writing each factor as i^|x&z| X^x Z^z, moving Z^{z_a} past X^{x_b}
    costs (-1)^|z_a&x_b|, and the product's own Y count is divided out.
    """
    x, z = a.x ^ b.x, a.z ^ b.z
    k = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        + 2 * (a.z & b.x).bit_count()
        - (x & z).bit_count()
    )
    return PauliTerm(a.coefficient * b.coefficient * _PHASES[k % 4], x=x, z=z)


def pauli_signs(idx: np.ndarray, z) -> np.ndarray:
    """(-1)^|b&z| for each basis index b in idx; a column of z masks gives
    one row of signs per mask."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)


def pauli_phase(idx: np.ndarray, x: int, z: int) -> np.ndarray:
    """<b ^ x|P|b> for each basis index b in idx: i^|x&z| (-1)^|b&z|."""
    return (1j) ** (x & z).bit_count() * pauli_signs(idx, z)


def _merge_sorted(n_qubits: int, x, z, coeffs) -> tuple:
    """Merge equal strings, drop |c| < 1e-12, sort by (weight, pattern).

    x, z are int64 mask arrays and coeffs their coefficients, in the order
    the terms were produced. np.add.at sums each string's coefficients in
    that order, starting from 0, so a merged coefficient is the same
    floating-point sum as a left-to-right fold. Returns the sorted arrays.
    """
    keys, inverse = np.unique(x << 32 | z, return_inverse=True)
    merged = np.zeros(len(keys), dtype=coeffs.dtype)
    np.add.at(merged, inverse, coeffs)
    keep = np.abs(merged) >= COEFF_DROP
    keys, merged = keys[keep], merged[keep]
    x, z = keys >> 32, keys & 0xFFFFFFFF
    # the pattern string compares qubit 0 first, letter by letter, I < X < Y < Z
    qubits = np.arange(n_qubits)
    codes = _SORT_CODE[(x[:, None] >> qubits & 1) + 2 * (z[:, None] >> qubits & 1)]
    order = np.lexsort((*codes.T[::-1], np.bitwise_count(x | z)))
    return x[order], z[order], merged[order]


def canonicalize(s: PauliSum) -> PauliSum:
    """Merge equal patterns, drop |c| < 1e-12, sort by (weight, pattern)."""
    if s.n_qubits > MAX_QUBITS:
        raise ResourceError(f"{s.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit guard")
    x, z, c = _merge_sorted(s.n_qubits, s.x, s.z, s.coefficients)
    return PauliSum(s.n_qubits, x=x, z=z, coefficients=c)


def _expand(codes, coefficients) -> tuple:
    """JW images of equal-length ladder products, 2^k strings per product.

    codes is the (products, k) array of their factor codes (see `fermion`).
    Every factor a+_p / a_p is the two strings 1/2 X_p Z_<p and
    -+i/2 Y_p Z_<p; the partial products are multiplied by them in turn, so
    each product's strings come out in the order of the scalar fold
    `[pauli_multiply(a, e) for a in partial for e in ladder]`.
    """
    # arrays are (strings so far, products): the long axis last
    x = np.zeros((1, len(codes)), dtype=np.int64)
    z = np.zeros_like(x)
    c = coefficients.astype(complex)[None]
    for code in codes.T:
        bit = 1 << (code >> 1)
        ex = np.stack([bit, bit])[None]
        ez = np.stack([bit - 1, (bit - 1) | bit])[None]
        ec = np.stack([np.full(len(bit), 0.5 + 0j), np.where(code & 1, 0.5j, -0.5j)])[None]
        ax, az = x[:, None], z[:, None]
        x, z = ax ^ ex, az ^ ez
        # pauli_multiply's i^k, with -|x&z| written as +3|x&z| (mod 4)
        k = (
            np.bitwise_count(ax & az)
            + np.bitwise_count(ex & ez)
            + 2 * np.bitwise_count(az & ex)
            + 3 * np.bitwise_count(x & z)
        )
        c = c[:, None] * ec * _PHASE_VALUES[k & 3]
        x, z, c = (a.reshape(-1, a.shape[-1]) for a in (x, z, c))
    return x.T.ravel(), z.T.ravel(), c.T.ravel()


def jordan_wigner(op: FermionOperator) -> PauliSum:
    """Map a FermionOperator to a canonicalized PauliSum.

    The constant offset becomes the identity-term coefficient. When the
    image is real up to 1e-12 (always the case for Hermitian input) the
    imaginary parts are truncated. Rows are expanded in one array pass
    per factor count, then put back in input order for the merge.
    """
    if op.n_modes > MAX_QUBITS:
        raise ResourceError(f"{op.n_modes} modes exceed the {MAX_QUBITS}-qubit guard")
    factors, coefficients = op.factors, op.coefficients
    if op.constant != 0.0:  # a leading 0-factor row: the identity string comes first
        factors = np.vstack([np.full((1, factors.shape[1]), -1), factors])
        coefficients = np.concatenate([[op.constant], coefficients])
    counts = (factors >= 0).sum(axis=1)
    if not len(counts):
        return PauliSum(op.n_modes)
    parts = []  # (producing row per string, x, z, coefficients)
    for count in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == count)
        strings = _expand(factors[rows, :count], coefficients[rows])
        parts.append((np.repeat(rows, 2**count), *strings))
    owner, x, z, c = (np.concatenate(column) for column in zip(*parts))
    order = np.argsort(owner, kind="stable")
    x, z, c = _merge_sorted(op.n_modes, x[order], z[order], c[order])
    if np.all(np.abs(c.imag) <= 1e-12):
        c = c.real
    return PauliSum(op.n_modes, x=x, z=z, coefficients=c)


def qwc_group(s: PauliSum) -> list:
    """Greedy first-fit grouping of terms into qubit-wise-commuting sets.

    Two strings fit together iff on every qubit their letters agree or at
    least one is identity; a term joins the first group whose union masks
    it fits. Returns one PauliSum per group, its terms in input order.
    """
    rows, unions = [], []   # per group: its term rows and its union masks (x, z)
    for row, (x, z) in enumerate(zip(s.x.tolist(), s.z.tolist())):
        for k, (ux, uz) in enumerate(unions):
            if ((ux ^ x) | (uz ^ z)) & (ux | uz) & (x | z) == 0:
                rows[k].append(row)
                unions[k] = (ux | x, uz | z)
                break
        else:
            rows.append([row])
            unions.append((x, z))
    return [PauliSum(s.n_qubits, x=s.x[r], z=s.z[r], coefficients=s.coefficients[r]) for r in rows]


def group_measurement_basis(group: PauliSum) -> dict:
    """{qubit: letter} of a QWC group's union masks: its shared measurement basis."""
    if len(qwc_group(group)) > 1:
        raise UsageError("terms do not qubit-wise commute")
    return _letters(int(np.bitwise_or.reduce(group.x)), int(np.bitwise_or.reduce(group.z)))


def serialize_pauli(s: PauliSum) -> str:
    """One `<coeff> <pattern>` line per term, qubit 0 leftmost in the pattern."""
    qubits = np.arange(max(s.n_qubits, 1))
    letters = _LETTER_BYTES[(s.x[:, None] >> qubits & 1) + 2 * (s.z[:, None] >> qubits & 1)]
    patterns = letters.view(f"S{len(qubits)}").ravel().astype(str).tolist()
    return "".join(map("{} {}\n".format, _format_coefficients(s.coefficients), patterns))


_PAULI_LINE = re.compile(r"^\s*(?P<coeff>\S+)\s+(?P<pattern>[IXYZ]+)\s*$")


def parse_pauli(text: str) -> PauliSum:
    """Inverse of serialize_pauli; n_qubits is the pattern length, which
    every line must share."""
    coefficients, patterns = [], []
    n_qubits = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _PAULI_LINE.match(line)
        if m is None:
            raise ParseError(f"malformed Pauli line: {line!r}", line=lineno)
        try:
            coeff = complex(m.group("coeff"))
        except ValueError:
            raise ParseError(f"bad coefficient {m.group('coeff')!r}", line=lineno)
        if abs(coeff.imag) <= 1e-12:
            coeff = coeff.real
        pattern = m.group("pattern")
        n_qubits = n_qubits or len(pattern)
        if len(pattern) != n_qubits:
            raise ParseError(
                f"{len(pattern)}-qubit pattern after {n_qubits}-qubit ones", line=lineno
            )
        coefficients.append(coeff)
        patterns.append(pattern)
    if n_qubits > MASK_QUBITS:  # before the weights 1 << q overflow int64
        raise ResourceError(f"{n_qubits} qubits exceed the {MASK_QUBITS}-qubit int64 masks")
    # each letter's code x_bit + 2 * z_bit: its index in serialize_pauli's table
    letters = np.frombuffer("".join(patterns).encode(), dtype="S1").reshape(-1, 1)
    codes = np.argmax(letters == _LETTER_BYTES, axis=1).reshape(len(patterns), n_qubits)
    weights = 1 << np.arange(n_qubits, dtype=np.int64)
    return PauliSum(n_qubits, x=(codes & 1) @ weights, z=(codes >> 1) @ weights,
                    coefficients=coefficients)
