"""Second-quantized electronic Hamiltonians over spin orbitals.

Spin orbitals use BLOCKED ordering: alpha spins occupy modes 0..n-1 and beta
spins occupy modes n..2n-1 for n spatial orbitals, so spin orbital P is
spatial orbital P % n with spin P // n. The Hamiltonian built here is

    H = e_core + sum_PQ h_PQ a+_P a_Q
               + 1/2 sum_PQRS <PQ|RS> a+_P a+_Q a_S a_R

with physicist-notation <PQ|RS> = (PR|QS), nonzero only when P,R and Q,S
carry the same spin.

A FermionOperator is stored as two columns: its coefficients, and its
factors as an int64 (n_terms, width) array with one code per ladder
factor, 2*mode for a+_mode and 2*mode + 1 for a_mode, each row padded with
-1 after its last factor. Code order is the serialized (mode, kind) order,
"+" before "-", so serialize_terms sorts the rows with one np.lexsort over
(factor count, codes). FermionTerms are only built when `terms` is read.

build_fermionic_hamiltonian forms h_PQ and 1/2 <PQ|RS> as (2n)^2 and (2n)^4
spin-orbital arrays indexed [P, Q] and [P, Q, S, R], zeroes the
spin-forbidden entries and those whose operator is identically zero (P = Q
or S = R), and emits the codes of the remaining entries, 2 * index + kind,
in C order: already the serialized order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UsageError
from .integrals_io import MOIntegrals, closed_shell_pairs
from .scf import hf_reference_energy

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


_KINDS = (CREATION, ANNIHILATION)  # indexed by code & 1


def _coefficient_column(values) -> np.ndarray:
    """float64, or complex128 if any value is complex."""
    return np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)


def _code(mode, kind, n_modes: int) -> int:
    """2*mode + (kind == ANNIHILATION), checked before encoding: mode -1
    would otherwise read as the -1 padding."""
    if kind not in _KINDS or not 0 <= mode < n_modes:
        raise UsageError(f"bad ladder factor ({mode}, {kind!r}) for modes 0..{n_modes - 1}")
    return 2 * mode + (kind == ANNIHILATION)


@dataclass(init=False, eq=False)
class FermionOperator:
    """A sum of ladder-operator products plus a real constant offset
    (houses E_core), held as the columns `coefficients` and `factors` (see
    the module docstring). Built from FermionTerms or from the columns."""

    n_modes: int
    coefficients: np.ndarray
    factors: np.ndarray
    constant: float

    def __init__(self, n_modes, terms=(), constant=0.0, *, coefficients=None, factors=None):
        if coefficients is None:
            terms = list(terms)
            coefficients = [term.coefficient for term in terms]
            rows = [[_code(mode, kind, n_modes) for mode, kind in t.factors] for t in terms]
            width = max(map(len, rows), default=0)
            factors = [row + [-1] * (width - len(row)) for row in rows]
            factors = np.array(factors, dtype=np.int64).reshape(len(rows), width)
        self.n_modes, self.constant = n_modes, constant
        self.coefficients = _coefficient_column(coefficients)
        self.factors = np.asarray(factors, dtype=np.int64)
        if self.factors.ndim != 2 or len(self.factors) != len(self.coefficients):
            raise UsageError("factors must hold one row per coefficient")
        valid = (self.factors >= 0) & (self.factors < 2 * n_modes)
        if np.any(~valid & (self.factors != -1)) or np.any(valid[:, 1:] > valid[:, :-1]):
            raise UsageError(f"factor codes must lie in 0..{2 * n_modes - 1}, padded after with -1")

    @property
    def terms(self) -> list:
        """The terms as FermionTerms, built afresh from the columns."""
        return [
            FermionTerm(c, tuple((code >> 1, _KINDS[code & 1]) for code in row if code >= 0))
            for c, row in zip(self.coefficients.tolist(), self.factors.tolist())
        ]


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
    keep_one, keep_two = ~(np.abs(one) < DROP_TOLERANCE), ~(np.abs(two) < DROP_TOLERANCE)
    factors = np.concatenate([  # a+_P a_Q, then a+_P a+_Q a_S a_R
        np.pad(2 * np.argwhere(keep_one) + [0, 1], ((0, 0), (0, 2)), constant_values=-1),
        2 * np.argwhere(keep_two) + [0, 0, 1, 1],
    ])
    return FermionOperator(
        2 * n, constant=float(mo.e_core), factors=factors,
        coefficients=np.concatenate([one[keep_one], two[keep_two]]),
    )


def freeze_core(mo: MOIntegrals, n_frozen: int) -> MOIntegrals:
    """Fold the lowest n_frozen doubly occupied spatial orbitals into e_core.

    The frozen orbitals' mean field is absorbed into the one-body integrals
    of the remaining active space:

        e_core += sum_i [2 h_ii + sum_j (2 (ii|jj) - (ij|ji))]
        h'_pq   = h_pq + sum_i [2 (pq|ii) - (pi|iq)]

    with i, j running over frozen orbitals and p, q over active ones. The
    new e_core is the reference energy of the frozen orbitals alone.
    """
    if not 0 <= n_frozen <= closed_shell_pairs(mo.n_electrons, mo.n_orbitals):
        raise UsageError(
            f"cannot freeze {n_frozen} orbitals with {mo.n_electrons} electrons"
        )
    f = n_frozen
    h, g = mo.h, mo.g
    h_active = h[f:, f:].copy()
    for i in range(f):
        h_active += 2.0 * g[f:, f:, i, i] - g[f:, i, i, f:]
    return MOIntegrals(
        n_orbitals=mo.n_orbitals - f,
        n_electrons=mo.n_electrons - 2 * f,
        h=h_active,
        g=g[f:, f:, f:, f:].copy(),
        e_core=hf_reference_energy(replace(mo, n_electrons=2 * f)),
    )


def _format_coefficients(column: np.ndarray) -> list:
    """repr of each coefficient of a column, a complex one as its real part
    when |imag| <= 1e-12."""
    if not np.iscomplexobj(column):
        return list(map(repr, column.tolist()))
    return [repr(c.real) if abs(c.imag) <= 1e-12 else repr(c) for c in column.tolist()]


def serialize_terms(op: FermionOperator, limit: int | None = None) -> str:
    """Render terms one per line as `<coefficient> * ( +_p -_q ... )`.

    Terms are ordered by factor count, then by (mode, kind) sequence with
    "+" before "-"; the constant offset is not emitted. limit caps the
    number of lines.
    """
    counts = (op.factors >= 0).sum(axis=1)
    order = np.lexsort((*op.factors.T[::-1], counts))[:limit]
    tokens = [f"{_KINDS[code & 1]}_{code >> 1}" for code in range(2 * op.n_modes)]
    tokens = np.array(tokens, dtype=object)
    rows, counts = op.factors[order], counts[order]
    factors = []   # rows come sorted by factor count, so each count is one run
    for count in sorted(set(counts.tolist())):
        factors += map(" ".join, tokens[rows[counts == count, :count]].tolist())
    coefficients = _format_coefficients(op.coefficients[order])
    return "".join(map("{} * ( {} )\n".format, coefficients, factors))
