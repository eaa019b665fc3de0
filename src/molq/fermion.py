"""Second-quantized electronic Hamiltonians over spin orbitals.

Spin orbitals use BLOCKED ordering: alpha spins occupy modes 0..n-1 and beta
spins occupy modes n..2n-1 for n spatial orbitals. The Hamiltonian built here
is

    H = e_core + sum_pq h_pq a+_p a_q
               + 1/2 sum_pqrs <pq|rs> a+_p a+_q a_s a_r

with physicist-notation <pq|rs> = (pr|qs) and spin deltas between p,r and
between q,s. Terms whose operator is identically zero (repeated creation or
annihilation mode) are not emitted.
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

_KIND_RANK = {CREATION: 0, ANNIHILATION: 1}


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

    def sort_key(self):
        flat = []
        for mode, kind in self.factors:
            flat.append(mode)
            flat.append(_KIND_RANK[kind])
        return (len(self.factors), tuple(flat))


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
    exclusion makes those terms the zero operator).
    """
    n = mo.n_orbitals
    terms = []
    for p in range(n):
        for q in range(n):
            c = float(mo.h[p, q])
            if abs(c) < DROP_TOLERANCE:
                continue
            for spin in (0, n):
                terms.append(
                    FermionTerm(c, ((p + spin, CREATION), (q + spin, ANNIHILATION)))
                )
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    # <pq|rs> = (pr|qs); electron 1 carries spin sigma on p,r
                    # and electron 2 carries spin tau on q,s.
                    c = 0.5 * float(mo.g[p, r, q, s])
                    if abs(c) < DROP_TOLERANCE:
                        continue
                    for sigma in (0, n):
                        for tau in (0, n):
                            pi, qi = p + sigma, q + tau
                            si, ri = s + tau, r + sigma
                            if pi == qi or si == ri:
                                continue
                            terms.append(
                                FermionTerm(
                                    c,
                                    (
                                        (pi, CREATION),
                                        (qi, CREATION),
                                        (si, ANNIHILATION),
                                        (ri, ANNIHILATION),
                                    ),
                                )
                            )
    terms.sort(key=FermionTerm.sort_key)
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

    Terms are ordered by (factor count, then mode/kind sequence); the
    constant offset is not emitted. limit caps the number of lines.
    """
    lines = []
    for term in sorted(op.terms, key=FermionTerm.sort_key)[:limit]:
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
