"""Pauli-string algebra and the Jordan-Wigner transform.

A Pauli string is two integer bit masks in symplectic form: bit q of `x`
is set where qubit q carries X or Y, bit q of `z` where it carries Z or Y.
With Y = i X Z, a string is P = i^|x&z| X^x Z^z, so a product is an XOR of
the masks and its phase follows from popcounts. Jordan-Wigner maps ladder
operators to strings with Z parity chains:

    a+_p -> 1/2 (X_p - i Y_p) Z_{p-1} ... Z_0
    a_p  -> 1/2 (X_p + i Y_p) Z_{p-1} ... Z_0
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError, UsageError
from .fermion import ANNIHILATION, CREATION, FermionOperator, _format_coefficient

COEFF_DROP = 1e-12

_LETTERS = "IXZY"           # indexed by x_bit + 2 * z_bit
_PHASES = (1, 1j, -1, -1j)  # i^k


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
        support = self.x | self.z
        return {
            q: _LETTERS[(self.x >> q & 1) | (self.z >> q & 1) << 1]
            for q in range(support.bit_length())
            if support >> q & 1
        }

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def pattern_key(self):
        return tuple(self.letters.items())

    def pattern(self, n_qubits: int) -> str:
        letters = self.letters
        return "".join(letters.get(q, "I") for q in range(n_qubits))


@dataclass
class PauliSum:
    n_qubits: int
    terms: list = field(default_factory=list)

    def __post_init__(self):
        for term in self.terms:
            support = term.x | term.z
            if support >> self.n_qubits:
                raise UsageError(
                    f"qubit {support.bit_length() - 1} outside 0..{self.n_qubits - 1}"
                )


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


def canonicalize(s: PauliSum) -> PauliSum:
    """Merge equal patterns, drop |c| < 1e-12, sort by (weight, pattern)."""
    merged = {}
    for term in s.terms:
        key = (term.x, term.z)
        merged[key] = merged.get(key, 0.0) + term.coefficient
    terms = [
        PauliTerm(coeff, x=x, z=z)
        for (x, z), coeff in merged.items()
        if abs(coeff) >= COEFF_DROP
    ]
    terms.sort(key=lambda t: (t.weight, t.pattern(s.n_qubits)))
    return PauliSum(n_qubits=s.n_qubits, terms=terms)


def _ladder_strings(mode: int, kind: str) -> list:
    """The two Pauli terms of a JW-mapped ladder operator on `mode`."""
    bit, chain = 1 << mode, (1 << mode) - 1
    sign = -0.5j if kind == CREATION else 0.5j
    return [PauliTerm(0.5, x=bit, z=chain), PauliTerm(sign, x=bit, z=chain | bit)]


def jordan_wigner(op: FermionOperator) -> PauliSum:
    """Map a FermionOperator to a canonicalized PauliSum.

    The constant offset becomes the identity-term coefficient. When the
    image is real up to 1e-12 (always the case for Hermitian input) the
    imaginary parts are truncated.
    """
    terms = []
    if op.constant != 0.0:
        terms.append(PauliTerm(complex(op.constant)))
    for fterm in op.terms:
        partial = [PauliTerm(complex(fterm.coefficient))]
        for mode, kind in fterm.factors:
            expansion = _ladder_strings(mode, kind)
            partial = [pauli_multiply(p, e) for p in partial for e in expansion]
        terms.extend(partial)
    result = canonicalize(PauliSum(n_qubits=op.n_modes, terms=terms))
    if all(abs(t.coefficient.imag) <= 1e-12 for t in result.terms):
        for t in result.terms:
            t.coefficient = t.coefficient.real
    return result


def _qubitwise_commute(a: PauliTerm, b: PauliTerm) -> bool:
    """True iff the letters agree on every qubit where both act."""
    return (((a.x ^ b.x) | (a.z ^ b.z)) & (a.x | a.z) & (b.x | b.z)) == 0


def qwc_group(s: PauliSum) -> list:
    """Greedy first-fit grouping of terms into qubit-wise-commuting sets.

    Two terms fit together iff on every qubit their letters agree or at
    least one is identity. Returns a list of term lists covering the input.
    """
    groups = []
    bases = []  # per group, a term holding the union of its members' masks
    for term in s.terms:
        for group, basis in zip(groups, bases):
            if _qubitwise_commute(basis, term):
                group.append(term)
                basis.x |= term.x
                basis.z |= term.z
                break
        else:
            groups.append([term])
            bases.append(PauliTerm(1.0, x=term.x, z=term.z))
    return groups


def group_measurement_basis(group: list) -> dict:
    """Union letter map of a QWC group: the shared measurement basis."""
    basis = PauliTerm(1.0)
    for term in group:
        if not _qubitwise_commute(basis, term):
            raise UsageError("terms do not qubit-wise commute")
        basis.x |= term.x
        basis.z |= term.z
    return basis.letters


def serialize_pauli(s: PauliSum) -> str:
    """One `<coeff> <pattern>` line per term, qubit 0 leftmost in the pattern."""
    lines = [
        f"{_format_coefficient(t.coefficient)} {t.pattern(s.n_qubits) or 'I' * max(s.n_qubits, 1)}"
        for t in s.terms
    ]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


_PAULI_LINE = re.compile(r"^\s*(?P<coeff>\S+)\s+(?P<pattern>[IXYZ]+)\s*$")


def parse_pauli(text: str) -> PauliSum:
    """Inverse of serialize_pauli; n_qubits is the pattern length."""
    terms = []
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
        n_qubits = max(n_qubits, len(pattern))
        letters = {q: c for q, c in enumerate(pattern) if c != "I"}
        terms.append(PauliTerm(coeff, letters))
    return PauliSum(n_qubits=n_qubits, terms=terms)
