"""Second-quantized electronic Hamiltonians over spin orbitals.

Spin orbitals use BLOCKED ordering: alpha spins occupy modes 0..n-1 and beta
spins occupy modes n..2n-1 for n spatial orbitals, so spin orbital P is
spatial orbital P % n with spin P // n. The Hamiltonian built here is

    H = e_core + sum_PQ h_PQ a+_P a_Q
               + 1/2 sum_PQRS <PQ|RS> a+_P a+_Q a_S a_R

with physicist-notation <PQ|RS> = (PR|QS), nonzero only when P,R and Q,S
carry the same spin. build_fermionic_hamiltonian forms h_PQ and
1/2 <PQ|RS> as (2n)^2 and (2n)^4 spin-orbital arrays indexed [P, Q] and
[P, Q, S, R], zeroes the spin-forbidden entries and those whose operator is
identically zero (P = Q or S = R), and emits one term per remaining entry
in C order. That order is the serialized order (factor count, then the
(mode, kind) sequence with "+" before "-"), so the built list needs no sort.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UsageError
from .integrals_io import MOIntegrals

CREATION = "+"
ANNIHILATION = "-"

DROP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class FermionTerm:
    """A weighted product of ladder operators, e.g. 0.5 * a+_0 a+_2 a_3 a_1.

    factors is an ordered tuple of (mode, kind) with kind one of
    CREATION ("+") or ANNIHILATION ("-").
    """

    coefficient: complex
    factors: tuple

    def adjoint(self) -> "FermionTerm":
        flipped = tuple(
            (mode, ANNIHILATION if kind == CREATION else CREATION)
            for mode, kind in reversed(self.factors)
        )
        return FermionTerm(np.conjugate(self.coefficient), flipped)


@dataclass
class FermionOperator:
    """A sum of FermionTerms plus a real constant offset (houses E_core)."""

    n_modes: int
    terms: list = field(default_factory=list)
    constant: float = 0.0

    def __post_init__(self):
        for term in self.terms:
            for mode, kind in term.factors:
                if not 0 <= mode < self.n_modes:
                    raise UsageError(f"mode {mode} outside 0..{self.n_modes - 1}")
                if kind not in (CREATION, ANNIHILATION):
                    raise UsageError(f"unknown ladder kind {kind!r}")


def is_hermitian(op: FermionOperator, tol: float = 1e-12) -> bool:
    """True when every term's adjoint appears with the conjugate coefficient."""
    table = {}
    for term in op.terms:
        table[term.factors] = table.get(term.factors, 0.0) + term.coefficient
    for factors, coeff in table.items():
        adj = FermionTerm(coeff, factors).adjoint()
        if abs(table.get(adj.factors, 0.0) - adj.coefficient) > tol:
            return False
    return True


def build_fermionic_hamiltonian(mo: MOIntegrals) -> FermionOperator:
    """Expand MO integrals into ladder-operator terms over 2n spin orbitals.

    Coefficients below DROP_TOLERANCE are dropped, as are two-body index
    combinations with a repeated creation or annihilation mode (Pauli
    exclusion makes those terms the zero operator). Terms come out in
    serialized order.
    """
    n = mo.n_orbitals
    orb = np.tile(np.arange(n), 2)
    spin = np.repeat([0, 1], n)
    same = spin[:, None] == spin
    distinct = ~np.eye(2 * n, dtype=bool)
    one = np.where(same, mo.h[np.ix_(orb, orb)], 0.0)
    # two[P, Q, S, R] = <PQ|RS> / 2 = (PR|QS) / 2: electron 1 on P, R and
    # electron 2 on Q, S keep their spins
    two = 0.5 * mo.g[np.ix_(orb, orb, orb, orb)].transpose(0, 2, 3, 1)
    mask = (same[:, None, None, :] & same[None, :, :, None]
            & distinct[:, :, None, None] & distinct[None, None, :, :])
    two = np.where(mask, two, 0.0)
    # not (|c| < tol) rather than |c| >= tol, so a NaN integral is kept
    keep = ~(np.abs(one) < DROP_TOLERANCE)
    terms = [
        FermionTerm(c, ((p, CREATION), (q, ANNIHILATION)))
        for (p, q), c in zip(np.argwhere(keep).tolist(), one[keep].tolist())
    ]
    keep = ~(np.abs(two) < DROP_TOLERANCE)
    terms += [
        FermionTerm(c, ((p, CREATION), (q, CREATION), (s, ANNIHILATION), (r, ANNIHILATION)))
        for (p, q, s, r), c in zip(np.argwhere(keep).tolist(), two[keep].tolist())
    ]
    return FermionOperator(n_modes=2 * n, terms=terms, constant=float(mo.e_core))


def freeze_core(mo: MOIntegrals, n_frozen: int) -> MOIntegrals:
    """Fold the lowest n_frozen doubly occupied spatial orbitals into e_core.

    The frozen orbitals' mean field is absorbed into the one-body integrals
    of the remaining active space:

        e_core += sum_i [2 h_ii + sum_j (2 (ii|jj) - (ij|ji))]
        h'_pq   = h_pq + sum_i [2 (pq|ii) - (pi|iq)]

    with i, j running over frozen orbitals and p, q over active ones.
    """
    if mo.n_electrons % 2 != 0:
        raise UsageError("freeze_core requires a closed-shell electron count")
    if not 0 <= n_frozen <= mo.n_electrons // 2:
        raise UsageError(
            f"cannot freeze {n_frozen} orbitals with {mo.n_electrons} electrons"
        )
    if n_frozen > mo.n_orbitals:
        raise UsageError("more frozen orbitals than orbitals")
    f = n_frozen
    h, g = mo.h, mo.g
    e_core = mo.e_core
    for i in range(f):
        e_core += 2.0 * h[i, i]
        for j in range(f):
            e_core += 2.0 * g[i, i, j, j] - g[i, j, j, i]
    h_active = h[f:, f:].copy()
    for i in range(f):
        h_active += 2.0 * g[f:, f:, i, i] - g[f:, i, i, f:]
    return MOIntegrals(
        n_orbitals=mo.n_orbitals - f,
        n_electrons=mo.n_electrons - 2 * f,
        h=h_active,
        g=g[f:, f:, f:, f:].copy(),
        e_core=float(e_core),
    )


def _format_coefficient(c) -> str:
    c = complex(c)
    if abs(c.imag) <= 1e-12:
        return repr(c.real)
    return repr(c)


def serialize_terms(op: FermionOperator, limit: int | None = None) -> str:
    """Render terms one per line as `<coefficient> * ( +_p -_q ... )`.

    Terms are ordered by factor count, then by (mode, kind) sequence with
    "+" before "-"; the constant offset is not emitted. limit caps the
    number of lines.
    """
    lines = []
    for term in sorted(op.terms, key=lambda t: (len(t.factors), t.factors))[:limit]:
        factors = " ".join(f"{kind}_{mode}" for mode, kind in term.factors)
        lines.append(f"{_format_coefficient(term.coefficient)} * ( {factors} )")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


_TERM_LINE = re.compile(r"^\s*(?P<coeff>\S+)\s*\*\s*\(\s*(?P<factors>[^()]*?)\s*\)\s*$")
_FACTOR = re.compile(r"^([+-])_(\d+)$")


def parse_terms(text: str, n_modes: int | None = None, constant: float = 0.0) -> FermionOperator:
    """Inverse of serialize_terms. Infers n_modes from the largest index
    seen when not given explicitly."""
    terms = []
    max_mode = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _TERM_LINE.match(line)
        if m is None:
            raise ParseError(f"malformed term: {line!r}", line=lineno)
        try:
            coeff = complex(m.group("coeff"))
        except ValueError:
            raise ParseError(f"bad coefficient {m.group('coeff')!r}", line=lineno)
        if abs(coeff.imag) <= 1e-12:
            coeff = coeff.real
        factors = []
        for token in m.group("factors").split():
            fm = _FACTOR.match(token)
            if fm is None:
                raise ParseError(f"bad ladder factor {token!r}", line=lineno)
            mode = int(fm.group(2))
            kind = CREATION if fm.group(1) == "+" else ANNIHILATION
            factors.append((mode, kind))
            max_mode = max(max_mode, mode)
        if not factors:
            raise ParseError("term without ladder factors", line=lineno)
        terms.append(FermionTerm(coeff, tuple(factors)))
    if n_modes is None:
        n_modes = max_mode + 1 if max_mode >= 0 else 0
    return FermionOperator(n_modes=n_modes, terms=terms, constant=constant)
