"""Restricted Hartree-Fock: Roothaan-Hall iterations with DIIS acceleration.

Closed-shell only. The Fock matrix is F = Hcore + J - K/2 with
J_pq = sum_rs D_rs (pq|rs), K_pq = sum_rs D_rs (pr|qs), and the total energy
is E = 1/2 Tr[D (Hcore + F)] + E_nn. Each iteration diagonalizes Pulay's
DIIS extrapolation over the last DIIS_CAPACITY (Fock, error) pairs, for at
most MAX_ITERATIONS iterations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import LinearDependenceError, UsageError
from .integrals import AOIntegrals
from .integrals_io import MOIntegrals

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


def diis_extrapolate(history) -> np.ndarray:
    """Pulay-extrapolated Fock matrix sum_i c_i F_i with sum c_i = 1, from a
    sequence of (Fock, error) pairs, oldest first.

    Solves the least-squares system with the Lagrange normalization row;
    a singular system drops the oldest entry and retries.
    """
    if len(history) == 0:
        raise UsageError("DIIS extrapolation needs at least one Fock matrix")
    entries = list(history)
    while True:
        m = len(entries)
        if m == 1:
            return entries[0][0].copy()
        B = np.empty((m + 1, m + 1))
        B[-1, :] = -1.0
        B[:, -1] = -1.0
        B[-1, -1] = 0.0
        for i in range(m):
            for j in range(i, m):
                B[i, j] = B[j, i] = np.sum(entries[i][1] * entries[j][1])
        rhs = np.zeros(m + 1)
        rhs[-1] = -1.0
        try:
            coeffs = np.linalg.solve(B, rhs)[:m]
        except np.linalg.LinAlgError:
            entries = entries[1:]
            continue
        if not np.all(np.isfinite(coeffs)):
            entries = entries[1:]
            continue
        return sum(c * f for c, (f, _) in zip(coeffs, entries))


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
    n = ao.n_ao
    if ao.n_electrons % 2 != 0:
        raise UsageError("restricted HF needs an even electron count")
    if ao.n_electrons > 2 * n:
        raise UsageError("more electrons than the basis can hold")
    n_occ = ao.n_electrons // 2

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

        history.append((F, error))
        C, eps = diagonalize(diis_extrapolate(history))
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
    if mo.n_electrons % 2 != 0:
        raise UsageError("reference determinant requires an even electron count")
    occ = range(mo.n_electrons // 2)
    e = mo.e_core
    for i in occ:
        e += 2.0 * mo.h[i, i]
        for j in occ:
            e += 2.0 * mo.g[i, i, j, j] - mo.g[i, j, j, i]
    return float(e)
