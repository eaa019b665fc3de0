"""Restricted Hartree-Fock: Roothaan-Hall iterations with DIIS acceleration.

Closed-shell only: `closed_shell_pairs` gives the N/2 occupied orbitals
and refuses any other electron count. The Fock matrix is
F = Hcore + J - K/2 with J_pq = sum_rs D_rs (pq|rs),
K_pq = sum_rs D_rs (pr|qs), and the total energy is E = 1/2 Tr[D (Hcore + F)] + E_nn. Each iteration diagonalizes Pulay's
DIIS extrapolation over the last DIIS_CAPACITY (Fock, error) pairs, for at
most MAX_ITERATIONS iterations. scf_solve keeps the Gram matrix of their
errors, sum(e_i * e_j), across iterations: each new error adds one row,
as many entries as the history holds, and when the oldest pair leaves,
its row and column leave with it. A singular DIIS system retries on the
trailing block of that matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import LinearDependenceError, UsageError
from .integrals import AOIntegrals
from .integrals_io import MOIntegrals, closed_shell_pairs

S_EIGENVALUE_FLOOR = 1e-10
ENERGY_TOL = 1e-10      # |dE| threshold, Hartree
ERROR_TOL = 1e-8        # max |FDS - SDF| in the orthonormal basis
DIIS_CAPACITY = 8       # (Fock, error) pairs kept for extrapolation
MAX_ITERATIONS = 200


@dataclass
class SCFResult:
    mo_coefficients: np.ndarray   # columns are MOs, C^T S C = I
    orbital_energies: np.ndarray  # ascending, Hartree
    e_hf: float
    iterations: int
    converged: bool


def diis_extrapolate(history, gram) -> np.ndarray:
    """Pulay-extrapolated Fock matrix sum_i c_i F_i with sum c_i = 1, from a
    sequence of (Fock, error) pairs, oldest first, and the Gram matrix of
    their errors, gram[i, j] = sum(e_i * e_j).

    Solves the least-squares system with the Lagrange normalization row;
    a singular system drops the oldest entry, whose Gram matrix is the
    trailing block of this one, and retries.
    """
    if len(history) == 0:
        raise UsageError("DIIS extrapolation needs at least one Fock matrix")
    focks = [f for f, _ in history]
    m = len(focks)
    B = np.empty((m + 1, m + 1))
    B[:m, :m] = gram
    B[-1, :] = -1.0
    B[:, -1] = -1.0
    B[-1, -1] = 0.0
    rhs = np.zeros(m + 1)
    rhs[-1] = -1.0
    # the system of the entries from start on is the trailing block of B
    for start in range(m - 1):
        try:
            coeffs = np.linalg.solve(B[start:, start:], rhs[start:])[:-1]
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(coeffs)):
            return sum(c * f for c, f in zip(coeffs, focks[start:]))
    return focks[-1].copy()


def _gram_row(history, error) -> np.ndarray:
    """sum(e_i * error) for the error e_i of each (Fock, error) pair."""
    return np.array([np.sum(e * error) for _, e in history])


def _orthogonalizer(S):
    w, U = np.linalg.eigh(S)
    if w[0] <= S_EIGENVALUE_FLOOR:
        raise LinearDependenceError(
            f"overlap matrix not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return U @ np.diag(w**-0.5) @ U.T


def scf_solve(ao: AOIntegrals, log=None) -> SCFResult:
    """Iterate the closed-shell SCF to self-consistency.

    Starts from the core-Hamiltonian guess. Convergence requires both
    |dE| <= ENERGY_TOL and max|error| <= ERROR_TOL; MAX_ITERATIONS without
    both returns converged=False with the last iterate retained.
    """
    n_occ = closed_shell_pairs(ao.n_electrons, ao.n_ao)
    X = _orthogonalizer(ao.overlap)
    H = ao.core_hamiltonian
    S = ao.overlap
    g = ao.eri

    def diagonalize(F):
        eps, Cp = np.linalg.eigh(X.T @ F @ X)
        return X @ Cp, eps

    C, eps = diagonalize(H)
    D = 2.0 * C[:, :n_occ] @ C[:, :n_occ].T

    history = deque(maxlen=DIIS_CAPACITY)   # F and error are new arrays each iteration
    gram = np.empty((DIIS_CAPACITY, DIIS_CAPACITY))   # of the errors in history
    e_old = 0.0
    e_hf = 0.0
    converged = False
    iterations = 0

    for k in range(1, MAX_ITERATIONS + 1):
        iterations = k
        J = np.einsum("pqrs,rs->pq", g, D)
        K = np.einsum("prqs,rs->pq", g, D)
        F = H + J - 0.5 * K
        e_hf = 0.5 * np.sum(D * (H + F)) + ao.e_nuclear

        error = X.T @ (F @ D @ S - S @ D @ F) @ X
        err_norm = np.max(np.abs(error))
        de = e_hf - e_old
        if log is not None:
            log.write(f"iter {k} E={e_hf:.12f} dE={de:.3e} err={err_norm:.3e}\n")
        if k > 1 and abs(de) <= ENERGY_TOL and err_norm <= ERROR_TOL:
            converged = True
            break
        e_old = e_hf

        if len(history) == DIIS_CAPACITY:   # the oldest pair leaves
            gram[:-1, :-1] = gram[1:, 1:]
        history.append((F, error))
        m = len(history)
        gram[m - 1, :m] = gram[:m, m - 1] = _gram_row(history, error)
        C, eps = diagonalize(diis_extrapolate(history, gram[:m, :m]))
        D = 2.0 * C[:, :n_occ] @ C[:, :n_occ].T

    return SCFResult(
        mo_coefficients=C,
        orbital_energies=eps,
        e_hf=float(e_hf),
        iterations=iterations,
        converged=converged,
    )


def ao_to_mo(ao: AOIntegrals, c: np.ndarray) -> MOIntegrals:
    """Transform AO integrals to the MO basis given S-orthonormal columns c.

    The two-body transform contracts one index at a time (n^5, not n^8).
    """
    if c.shape != (ao.n_ao, ao.n_ao):
        raise UsageError(f"coefficient matrix must be {ao.n_ao}x{ao.n_ao}")
    h = c.T @ ao.core_hamiltonian @ c
    t = np.einsum("pqrs,pi->qrsi", ao.eri, c)
    t = np.einsum("qrsi,qj->rsij", t, c)
    t = np.einsum("rsij,rk->sijk", t, c)
    g = np.einsum("sijk,sl->ijkl", t, c)
    return MOIntegrals(
        n_orbitals=ao.n_ao,
        n_electrons=ao.n_electrons,
        h=h,
        g=g,
        e_core=ao.e_nuclear,
    )


def hf_reference_energy(mo: MOIntegrals) -> float:
    """Energy of the closed-shell reference determinant in the MO basis:
    e_core + sum_i 2 h_ii + sum_ij [2 (ii|jj) - (ij|ji)] over occupied i, j."""
    occ = range(closed_shell_pairs(mo.n_electrons, mo.n_orbitals))
    e = mo.e_core
    for i in occ:
        e += 2.0 * mo.h[i, i]
        for j in occ:
            e += 2.0 * mo.g[i, i, j, j] - mo.g[i, j, j, i]
    return float(e)
