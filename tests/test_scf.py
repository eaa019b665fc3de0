"""Restricted Hartree-Fock: Roothaan-Hall with DIIS, the AO->MO transform,
and the closed-shell reference energy formula."""

import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

import molq.scf
from molq import (
    Geometry,
    LinearDependenceError,
    UsageError,
    ao_to_mo,
    assign_basis,
    build_ao_integrals,
    diis_extrapolate,
    hf_reference_energy,
    scf_solve,
)
from molq.integrals import AOIntegrals
from molq.integrals_io import MOIntegrals
from conftest import h2_geometry_bohr


# ------------------------------------------------------------------- scf_solve
def test_h2_equilibrium_energy(h2_equilibrium):
    _, scf, _ = h2_equilibrium
    assert abs(scf.e_hf - (-1.117)) <= 0.001
    assert_allclose(scf.e_hf, -1.1169814467789592, rtol=0, atol=1e-10)


def test_h2_14bohr_energy(h2_14bohr):
    _, scf, _ = h2_14bohr
    assert_allclose(scf.e_hf, -1.1167143251757685, rtol=0, atol=1e-10)


def test_orthonormal_orbitals(h2_equilibrium):
    ao, scf, _ = h2_equilibrium
    c = scf.mo_coefficients
    assert_allclose(c.T @ ao.overlap @ c, np.eye(2), rtol=0, atol=1e-10)


def test_zeroed_eri_collapses_to_orbital_energy_sum(h2_equilibrium):
    ao, _, _ = h2_equilibrium
    bare = AOIntegrals(
        n_ao=ao.n_ao,
        overlap=ao.overlap,
        core_hamiltonian=ao.core_hamiltonian,
        eri=np.zeros_like(ao.eri),
        e_nuclear=ao.e_nuclear,
        n_electrons=ao.n_electrons,
    )
    scf = scf_solve(bare)
    occ = scf.orbital_energies[: ao.n_electrons // 2]
    assert abs(scf.e_hf - (2.0 * occ.sum() + ao.e_nuclear)) <= 1e-10


def test_helium_atom_converges_fast(sto3g):
    geom = Geometry.from_angstrom([("He", (0, 0, 0))])
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    scf = scf_solve(ao)
    assert scf.converged and scf.iterations <= 3
    c = scf.mo_coefficients
    assert_allclose(c.T @ ao.overlap @ c, np.eye(1), rtol=0, atol=1e-12)


def test_heh_cation_converges(sto3g):
    geom = Geometry.from_angstrom([("He", (0, 0, 0)), ("H", (0, 0, 1.0))], charge=1)
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    scf = scf_solve(ao)
    assert scf.converged
    assert scf.e_hf < -2.0  # bound well below separated He + proton mean field


def test_odd_electron_count_rejected(sto3g):
    geom = Geometry.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))], charge=1)
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    with pytest.raises(UsageError):
        scf_solve(ao)


def test_near_degenerate_overlap_rejected(sto3g):
    geom = h2_geometry_bohr(1e-7)
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    with pytest.raises(LinearDependenceError):
        scf_solve(ao)


def test_iteration_log_format(sto3g):
    geom = Geometry.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.9))])
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    stream = io.StringIO()
    scf_solve(ao, log=stream)
    lines = stream.getvalue().splitlines()
    assert lines, "log stream stayed empty"
    for k, line in enumerate(lines, start=1):
        assert line.startswith(f"iter {k} E=")
        assert " dE=" in line and " err=" in line


def test_energy_monotone_after_diis_settles(h2_stretched):
    # final energy never above the first iterate for these well-behaved cases
    _, scf, _ = h2_stretched
    assert scf.converged


def test_max_iterations_respected(sto3g, monkeypatch):
    geom = Geometry.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.9))])
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    monkeypatch.setattr(molq.scf, "MAX_ITERATIONS", 1)
    scf = scf_solve(ao)
    assert not scf.converged and scf.iterations == 1


# ------------------------------------------------------------ diis_extrapolate
def fresh_gram(history):
    """The errors' Gram matrix formed whole, entry by entry, as DIIS did
    before scf_solve kept it: sum(e_i * e_j) for i <= j, mirrored."""
    m = len(history)
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = np.sum(history[i][1] * history[j][1])
    return gram


def test_diis_refuses_an_empty_history():
    with pytest.raises(UsageError, match="at least one Fock matrix"):
        diis_extrapolate([], np.zeros((0, 0)))


def test_diis_single_entry_identity():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3, 3))
    hist = [(f, rng.standard_normal((3, 3)))]
    assert_allclose(diis_extrapolate(hist, fresh_gram(hist)), f, rtol=0, atol=0)


def test_diis_identical_entries_identity():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((3, 3))
    e = rng.standard_normal((3, 3))
    hist = [(f, e), (f, e)]
    assert_allclose(diis_extrapolate(hist, fresh_gram(hist)), f, rtol=0, atol=1e-10)


def test_diis_coefficients_sum_to_one():
    rng = np.random.default_rng(2)
    f1, f2 = rng.standard_normal((2, 3, 3))
    e1, e2 = rng.standard_normal((2, 3, 3))
    hist = [(f1, e1), (f2, e2)]
    out = diis_extrapolate(hist, fresh_gram(hist))
    # out = c1 f1 + c2 f2 with c1 + c2 = 1 means out - f2 is parallel to f1 - f2
    d = (f1 - f2).ravel()
    c1 = float((out - f2).ravel() @ d) / float(d @ d)
    assert_allclose(out, c1 * f1 + (1 - c1) * f2, rtol=0, atol=1e-10)


def record_diis(monkeypatch):
    """Check, at every extrapolation of the scf_solve calls that follow,
    that the kept Gram matrix is the fresh one bit for bit, and that every
    system solved (the retries after a singular one too) borders the fresh
    Gram matrix of the trailing entries. Returns the history lengths and
    the count of singular systems."""
    seen = {"lengths": [], "singular": 0, "history": None}
    extrapolate, solve = molq.scf.diis_extrapolate, np.linalg.solve

    def checked_extrapolate(history, gram):
        seen["lengths"].append(len(history))
        seen["history"] = list(history)
        np.testing.assert_array_equal(gram, fresh_gram(seen["history"]))
        return extrapolate(history, gram)

    def checked_solve(b, rhs):
        m = len(b) - 1
        np.testing.assert_array_equal(b[:m, :m], fresh_gram(seen["history"][-m:]))
        try:
            return solve(b, rhs)
        except np.linalg.LinAlgError:
            seen["singular"] += 1
            raise

    monkeypatch.setattr(molq.scf, "diis_extrapolate", checked_extrapolate)
    monkeypatch.setattr(np.linalg, "solve", checked_solve)
    return seen


def test_kept_gram_is_the_fresh_one_as_the_history_wraps(sto3g, monkeypatch):
    geom = Geometry.from_angstrom([("He", (0, 0, 0)), ("H", (0, 0, 0.9))], charge=1)
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    seen = record_diis(monkeypatch)
    scf = scf_solve(ao)
    assert scf.converged and scf.iterations == 12
    capacity = molq.scf.DIIS_CAPACITY
    assert seen["lengths"] == [min(k, capacity) for k in range(1, 12)]   # wraps 3 times


def test_kept_gram_is_the_fresh_one_across_a_singular_drop(sto3g, monkeypatch):
    # HeH+ at 1.2 Angstrom meets one singular DIIS system on its way
    geom = Geometry.from_angstrom([("He", (0, 0, 0)), ("H", (0, 0, 1.2))], charge=1)
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    seen = record_diis(monkeypatch)
    assert scf_solve(ao).converged
    assert seen["singular"] == 1


def test_diis_retry_drops_the_oldest_entry():
    rng = np.random.default_rng(3)
    f0, f1, f2 = rng.standard_normal((3, 3, 3))
    e, e2 = rng.standard_normal((2, 3, 3))
    hist = [(f0, e), (f1, e), (f2, e2)]   # two equal errors: a singular system
    trailing = hist[1:]
    np.testing.assert_array_equal(
        diis_extrapolate(hist, fresh_gram(hist)), diis_extrapolate(trailing, fresh_gram(trailing))
    )


# ----------------------------------------------------------------- ao_to_mo
def test_identity_transform_is_identity():
    rng = np.random.default_rng(4)
    n = 3
    h = rng.standard_normal((n, n))
    h = h + h.T
    g = rng.standard_normal((n, n, n, n))
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        g = g + g.transpose(perm)
    ao = AOIntegrals(n, np.eye(n), h, g, e_nuclear=0.25, n_electrons=2)
    mo = ao_to_mo(ao, np.eye(n))
    assert_allclose(mo.h, h, rtol=0, atol=1e-14)
    assert_allclose(mo.g, g, rtol=0, atol=1e-14)
    assert mo.e_core == 0.25


def test_transform_refuses_a_coefficient_matrix_of_another_shape():
    ao = AOIntegrals(2, np.eye(2), np.eye(2), np.zeros((2, 2, 2, 2)), e_nuclear=0.0, n_electrons=2)
    with pytest.raises(UsageError, match="must be 2x2"):
        ao_to_mo(ao, np.eye(3))


def test_transform_preserves_eightfold_symmetry():
    rng = np.random.default_rng(5)
    n = 3
    h = rng.standard_normal((n, n))
    h = h + h.T
    g = rng.standard_normal((n, n, n, n))
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        g = g + g.transpose(perm)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ao = AOIntegrals(n, np.eye(n), h, g, e_nuclear=0.0, n_electrons=2)
    mo = ao_to_mo(ao, q)
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        assert_allclose(mo.g, mo.g.transpose(perm), rtol=0, atol=1e-10)


def test_h2_mo_core_element(h2_14bohr):
    _, _, mo = h2_14bohr
    assert abs(mo.h[0, 0] - (-1.2528)) <= 0.002
    assert_allclose(mo.h[0, 0], -1.2527970626081895, rtol=0, atol=1e-10)


# ------------------------------------------------------- hf_reference_energy
def test_reference_energy_matches_scf(h2_equilibrium):
    _, scf, mo = h2_equilibrium
    assert abs(hf_reference_energy(mo) - scf.e_hf) < 1e-10


def test_reference_energy_matches_scf_stretched(h2_stretched):
    _, scf, mo = h2_stretched
    assert abs(hf_reference_energy(mo) - scf.e_hf) < 1e-10


def test_reference_energy_refuses_more_electrons_than_spin_orbitals():
    # 6 electrons in 2 orbitals once read past the end of h
    mo = MOIntegrals(2, 6, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
    with pytest.raises(UsageError, match="in 0..4 for 2 orbitals, got 6"):
        hf_reference_energy(mo)
