"""Exact ground-state energies.

"Exact" means the ground state in the molecule's own electron-number
sector. Two independent paths compute it: dense diagonalization of a qubit
PauliSum restricted to the (ceil(N/2), floor(N/2)) determinant block, and
a determinant-basis FCI oracle built directly from the MO integrals via
Slater-Condon rules (never touching the fermion/qubit pipeline). Their
agreement is the main correctness check of the whole package. The dense
guard bounds the dimension diagonalized: at most 2**DENSE_MAX_QUBITS.

pauli_operator (a sparse matrix of a PauliSum on any sorted basis) and
sector_basis (the states of one determinant block) are shared with the
UCCSD block of `vqe`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ResourceError, UsageError
from .integrals_io import MOIntegrals
from .pauli import PauliSum
from .statevector import MAX_QUBITS, Statevector, pauli_signs

if TYPE_CHECKING:
    import scipy.sparse

DENSE_MAX_QUBITS = 14
FCI_MAX_ORBITALS = 6


@dataclass
class SpectrumResult:
    ground_energy: float
    ground_vector: Statevector | None
    n_qubits: int


def pauli_operator(s: PauliSum, basis: np.ndarray | None = None) -> scipy.sparse.csr_array:
    """Sparse matrix of a PauliSum over `basis`, a sorted int64 array of
    basis states: entry (row, col) is <basis[row]|H|basis[col]>. The
    default is the whole 2^n space in little-endian order.

    A string with masks (x, z) maps |b> to pauli_phase(b) |b ^ x>. The
    terms sharing one flip mask x fill the same entries: rows of the
    states b ^ x that lie in the basis (the rest are dropped), each
    entry the sum of the terms' coefficient * pauli_phase(b).
    """
    import scipy.sparse   # here, so `import molq` loads no scipy

    if basis is None:
        basis = np.arange(2**s.n_qubits, dtype=np.int64)
    dim = len(basis)
    rows, cols, values = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0, complex)]
    by_flip = {}
    for term in s.terms:
        by_flip.setdefault(term.x, []).append(term)
    for x, terms in by_flip.items():
        targets = basis ^ x
        found = np.minimum(np.searchsorted(basis, targets), dim - 1)
        hit = basis[found] == targets
        coefficients = np.array(
            [complex(t.coefficient) * 1j ** (x & t.z).bit_count() for t in terms]
        )
        z = np.array([t.z for t in terms], dtype=np.int64)[:, None]
        rows.append(found[hit])
        cols.append(np.flatnonzero(hit))
        values.append(coefficients @ pauli_signs(basis[hit], z))
    return scipy.sparse.csr_array(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


def pauli_matrix(s: PauliSum, basis: np.ndarray | None = None) -> np.ndarray:
    """Dense form of pauli_operator(s, basis)."""
    return pauli_operator(s, basis).toarray()


def sector_basis(n_qubits: int, n_electrons: int) -> np.ndarray:
    """Sorted basis states of the N-electron determinant block: ceil(N/2)
    electrons on the alpha qubits 0..n-1 and floor(N/2) on the beta qubits
    n..2n-1 (blocked spin ordering, n = n_qubits / 2)."""
    if n_qubits % 2 or not 0 <= n_electrons <= n_qubits:
        raise UsageError(
            f"no {n_electrons}-electron sector on {n_qubits} spin orbitals"
        )
    n_orbitals = n_qubits // 2
    n_beta = n_electrons // 2

    def masks(k):
        combos = itertools.combinations(range(n_orbitals), k)
        return np.array([sum(1 << p for p in occ) for occ in combos], dtype=np.int64)

    alpha = masks(n_electrons - n_beta)
    return np.sort(((masks(n_beta) << n_orbitals)[:, None] | alpha).ravel())


def dense_ground_energy(h: PauliSum, n_electrons: int | None = None) -> SpectrumResult:
    """Minimal eigenvalue of the materialized Hermitian matrix.

    With n_electrons, only the (ceil(N/2), floor(N/2)) determinant block
    is built and diagonalized: for a spin-free, number-conserving
    Hamiltonian that block holds the N-electron ground state, whatever the
    parity of N. Without it, the whole Fock space is diagonalized and the
    lowest state of any electron count is returned. The ground vector is
    returned on the full 2^n basis either way.
    """
    if h.n_qubits > MAX_QUBITS:
        raise ResourceError(
            f"{h.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit statevector guard"
        )
    if n_electrons is None:
        dim = 2**h.n_qubits
    else:
        basis = sector_basis(h.n_qubits, n_electrons)
        dim = len(basis)
    if dim > 2**DENSE_MAX_QUBITS:
        raise ResourceError(
            f"dimension {dim} exceeds the {DENSE_MAX_QUBITS}-qubit dense guard"
        )
    if n_electrons is None:
        basis = np.arange(dim, dtype=np.int64)
    mat = pauli_matrix(h, basis)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise UsageError("PauliSum is not Hermitian")
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    amplitudes = np.zeros(2**h.n_qubits, dtype=complex)
    amplitudes[basis] = eigenvectors[:, 0]
    return SpectrumResult(
        ground_energy=float(eigenvalues[0]),
        ground_vector=Statevector(h.n_qubits, amplitudes),
        n_qubits=h.n_qubits,
    )


def _parity_below(mask: int, orbital: int) -> int:
    return bin(mask & ((1 << orbital) - 1)).count("1") & 1


def _single_phase(det: int, hole: int, particle: int) -> int:
    sign = _parity_below(det, hole)
    det ^= 1 << hole
    sign ^= _parity_below(det, particle)
    return -1 if sign else 1


def _double_phase(det: int, holes, particles) -> int:
    """Phase of a+_{p1} a+_{p2} a_{h2} a_{h1} |det> with holes=(h1,h2),
    particles=(p1,p2)."""
    sign = 0
    m = det
    for hole in holes:
        sign ^= _parity_below(m, hole)
        m ^= 1 << hole
    for particle in reversed(particles):
        sign ^= _parity_below(m, particle)
        m |= 1 << particle
    return -1 if sign else 1


def fci_determinant_oracle(mo: MOIntegrals) -> float:
    """Lowest eigenvalue over all (n_alpha = n_beta = n_e/2) determinants
    plus e_core, assembled from h, g with Slater-Condon rules.

    Spin orbital P < n is spatial P with alpha spin; P >= n is spatial P-n
    with beta spin (blocked ordering, matching the rest of the package).
    """
    n = mo.n_orbitals
    if n > FCI_MAX_ORBITALS:
        raise ResourceError(
            f"{n} orbitals exceeds the {FCI_MAX_ORBITALS}-orbital FCI guard"
        )
    if mo.n_electrons % 2 != 0:
        raise UsageError("FCI oracle covers closed-shell electron counts only")
    n_pair = mo.n_electrons // 2
    if n_pair > n:
        raise UsageError("more electron pairs than orbitals")

    h, g = mo.h, mo.g

    def spatial_spin(p):
        return (p, 0) if p < n else (p - n, 1)

    def h1(p, q):
        (ps, pspin), (qs, qspin) = spatial_spin(p), spatial_spin(q)
        return h[ps, qs] if pspin == qspin else 0.0

    def coulomb(p, q, r, s):
        # <pq|rs> = (pr|qs) with spin deltas between p,r and q,s
        (ps, pspin), (qs, qspin) = spatial_spin(p), spatial_spin(q)
        (rs_, rspin), (ss, sspin) = spatial_spin(r), spatial_spin(s)
        if pspin != rspin or qspin != sspin:
            return 0.0
        return g[ps, rs_, qs, ss]

    def anti(p, q, r, s):
        return coulomb(p, q, r, s) - coulomb(p, q, s, r)

    dets = []
    for alpha in itertools.combinations(range(n), n_pair):
        for beta in itertools.combinations(range(n), n_pair):
            mask = 0
            for a in alpha:
                mask |= 1 << a
            for b in beta:
                mask |= 1 << (b + n)
            dets.append(mask)

    def occupied(mask):
        return [p for p in range(2 * n) if mask >> p & 1]

    size = len(dets)
    mat = np.zeros((size, size))
    for col, d1 in enumerate(dets):
        occ1 = occupied(d1)
        for row, d2 in enumerate(dets):
            if row < col:
                continue  # fill lower triangle, mirror afterwards
            diff = d1 ^ d2
            n_diff = bin(diff).count("1")
            if n_diff == 0:
                value = sum(h1(p, p) for p in occ1)
                value += 0.5 * sum(
                    anti(p, q, p, q) for p in occ1 for q in occ1
                )
            elif n_diff == 2:
                hole = (d1 & diff).bit_length() - 1
                particle = (d2 & diff).bit_length() - 1
                common = occupied(d1 & d2)
                value = h1(particle, hole) + sum(
                    anti(particle, q, hole, q) for q in common
                )
                value *= _single_phase(d1, hole, particle)
            elif n_diff == 4:
                holes = occupied(d1 & diff)
                particles = occupied(d2 & diff)
                value = _double_phase(d1, holes, particles) * anti(
                    particles[0], particles[1], holes[0], holes[1]
                )
            else:
                continue
            mat[row, col] = value
            mat[col, row] = value
    eigenvalues = np.linalg.eigvalsh(mat)
    return float(eigenvalues[0] + mo.e_core)
