"""Shared fixtures: small molecule pipelines reused across test modules."""

import functools

import numpy as np
import pytest

from molq import (
    Atom,
    Geometry,
    ao_to_mo,
    assign_basis,
    build_ao_integrals,
    build_fermionic_hamiltonian,
    jordan_wigner,
    load_basis,
    scf_solve,
)


@pytest.fixture(scope="session")
def sto3g():
    return load_basis("sto-3g")


def h2_geometry_bohr(r):
    """H2 along z with the bond length given directly in Bohr."""
    return Geometry(
        (Atom("H", 1, (0.0, 0.0, 0.0)), Atom("H", 1, (0.0, 0.0, r))), charge=0
    )


def pipeline(geometry, basis):
    """geometry -> (ao, scf, mo) through integrals and SCF."""
    ao = build_ao_integrals(geometry, assign_basis(geometry, basis))
    scf = scf_solve(ao)
    assert scf.converged
    return ao, scf, ao_to_mo(ao, scf.mo_coefficients)


@pytest.fixture(scope="session")
def h2_equilibrium(sto3g):
    """H2 / STO-3G at 0.7354 Angstrom: ao, scf, mo."""
    geom = Geometry.from_angstrom([("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 0.7354))])
    return pipeline(geom, sto3g)


@pytest.fixture(scope="session")
def h2_14bohr(sto3g):
    """H2 / STO-3G at 1.4 Bohr: ao, scf, mo."""
    return pipeline(h2_geometry_bohr(1.4), sto3g)


@pytest.fixture(scope="session")
def h2_hamiltonian(h2_equilibrium):
    """Mapped qubit Hamiltonian for H2 at 0.7354 Angstrom."""
    _, _, mo = h2_equilibrium
    return jordan_wigner(build_fermionic_hamiltonian(mo))


@pytest.fixture(scope="session")
def lih_h2_hamiltonian(sto3g):
    """Mapped qubit Hamiltonian for the LiH...H2 chain, 10 qubits."""
    geom = Geometry.from_angstrom(
        [("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 2.6)), ("H", (0, 0, 3.34))]
    )
    _, _, mo = pipeline(geom, sto3g)
    return jordan_wigner(build_fermionic_hamiltonian(mo))


@pytest.fixture(scope="session")
def hydrogen_chain(sto3g):
    """(n_atoms, spacing in Angstrom) -> the mapped qubit Hamiltonian of
    linear H_n / STO-3G, each built once per test run."""
    @functools.cache
    def build(n_atoms, spacing):
        geom = Geometry.from_angstrom([("H", (0.0, 0.0, spacing * k)) for k in range(n_atoms)])
        return jordan_wigner(build_fermionic_hamiltonian(pipeline(geom, sto3g)[2]))

    return build


@pytest.fixture(scope="session")
def h2_stretched(sto3g):
    """H2 / STO-3G at 2.0 Angstrom (stretched): ao, scf, mo."""
    geom = Geometry.from_angstrom([("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 2.0))])
    return pipeline(geom, sto3g)


def random_mo_integrals(rng, n, n_e, scale=1.0):
    """Random symmetric h and 8-fold-symmetric g for property tests."""
    from molq.integrals_io import MOIntegrals

    h = rng.standard_normal((n, n)) * scale
    h = 0.5 * (h + h.T)
    g = rng.standard_normal((n, n, n, n)) * scale
    for perm in (
        (1, 0, 2, 3),
        (0, 1, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
        (2, 3, 1, 0),
        (1, 0, 3, 2),
        (3, 2, 0, 1),
    ):
        g = g + g.transpose(perm)
    g /= 8.0
    return symmetric(MOIntegrals(n, n_e, h, g, e_core=float(rng.standard_normal())))


def symmetric(mo, tol=1e-12):
    """mo.validate(), after asserting h is symmetric and g 8-fold symmetric
    to tol: three generating permutations."""
    assert np.max(np.abs(mo.h - mo.h.T)) <= tol
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        assert np.max(np.abs(mo.g - mo.g.transpose(perm))) <= tol
    return mo.validate()


def with_number_penalty(mo, lam):
    """Add lam * (N_hat - n_e)^2 through integral shifts.

    g[p,p,q,q] += 2 lam gives lam (N^2 - N); h[p,p] += lam (1 - 2 n_e)
    restores the N term and adds -2 lam n_e N; e_core += lam n_e^2 finishes
    the square. The penalty vanishes identically on the n_e-electron sector
    and pushes every other particle-number sector up by at least lam.
    """
    out = mo.copy()
    n, ne = mo.n_orbitals, mo.n_electrons
    for p in range(n):
        for q in range(n):
            out.g[p, p, q, q] += 2.0 * lam
        out.h[p, p] += lam * (1.0 - 2.0 * ne)
    out.e_core += lam * ne * ne
    return symmetric(out)


def penalty_strength(mo):
    return 10.0 * (np.abs(mo.h).sum() + np.abs(mo.g).sum() + abs(mo.e_core) + 1.0)
