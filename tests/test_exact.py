"""Dense diagonalization and the determinant-basis FCI oracle."""

import numpy as np
import pytest

from molq import (
    build_fermionic_hamiltonian,
    dense_ground_energy,
    fci_determinant_oracle,
    jordan_wigner,
    pauli_matrix,
)
from molq.errors import ResourceError, UsageError
from molq.exact import DENSE_MAX_QUBITS
from molq.integrals_io import MOIntegrals
from molq.pauli import PauliSum, PauliTerm
from molq.statevector import Statevector, expectation

from conftest import penalty_strength, random_mo_integrals, with_number_penalty

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def single(n, letters, coefficient=1.0):
    return PauliSum(n, (PauliTerm(coefficient, letters),))


# ---------------------------------------------------------------------------
# pauli_matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "letter,expected", [("X", X), ("Y", Y), ("Z", Z)], ids=["X", "Y", "Z"]
)
def test_pauli_matrix_single_qubit(letter, expected):
    assert np.allclose(pauli_matrix(single(1, {0: letter})), expected)


def test_pauli_matrix_identity_term():
    mat = pauli_matrix(single(2, {}, 2.5))
    assert np.allclose(mat, 2.5 * np.eye(4))


def test_pauli_matrix_qubit_zero_is_least_significant():
    # Z on qubit 0 of two qubits: diagonal (+1, -1, +1, -1) in index order.
    mat = pauli_matrix(single(2, {0: "Z"}))
    assert np.allclose(np.diag(mat), [1, -1, 1, -1])
    mat = pauli_matrix(single(2, {1: "Z"}))
    assert np.allclose(np.diag(mat), [1, 1, -1, -1])


def test_pauli_matrix_two_qubit_kron():
    # X on qubit 0, Y on qubit 1 -> kron(Y, X) with qubit 0 least significant.
    mat = pauli_matrix(single(2, {0: "X", 1: "Y"}))
    assert np.allclose(mat, np.kron(Y, X))
    # Y-containing strings on up to 5 qubits, written qubit 0 leftmost.
    mats = {"I": I2, "X": X, "Y": Y, "Z": Z}
    for pattern in ("YY", "ZYX", "YIZY", "XYZIY", "YYYYY"):
        letters = {q: c for q, c in enumerate(pattern) if c != "I"}
        want = np.array([[0.5j]])
        for c in pattern:
            want = np.kron(mats[c], want)
        assert np.allclose(pauli_matrix(single(len(pattern), letters, 0.5j)), want)


def test_pauli_matrix_sums_terms():
    s = PauliSum(1, (PauliTerm(0.5, {0: "X"}), PauliTerm(-2.0, {0: "Z"})))
    assert np.allclose(pauli_matrix(s), 0.5 * X - 2.0 * Z)


def test_pauli_matrix_on_a_basis_is_the_submatrix():
    s = PauliSum(
        3,
        (
            PauliTerm(0.5, {0: "X", 1: "Y"}),
            PauliTerm(-0.25, {1: "X", 2: "X"}),
            PauliTerm(0.75, {0: "Z", 2: "Y"}),
            PauliTerm(1.5, {}),
        ),
    )
    basis = np.array([1, 2, 4, 7], dtype=np.int64)
    full = pauli_matrix(s)
    assert np.array_equal(pauli_matrix(s, basis), full[np.ix_(basis, basis)])


# ---------------------------------------------------------------------------
# dense_ground_energy
# ---------------------------------------------------------------------------


def test_dense_ground_energy_single_z():
    result = dense_ground_energy(single(1, {0: "Z"}))
    assert result.ground_energy == pytest.approx(-1.0, abs=1e-12)


def test_dense_ground_energy_single_x():
    result = dense_ground_energy(single(1, {0: "X"}))
    assert result.ground_energy == pytest.approx(-1.0, abs=1e-12)


def test_dense_ground_vector_is_eigenvector(h2_hamiltonian):
    result = dense_ground_energy(h2_hamiltonian)
    assert isinstance(result.ground_vector, Statevector)
    assert result.n_qubits == h2_hamiltonian.n_qubits
    energy = expectation(result.ground_vector, h2_hamiltonian)
    assert energy == pytest.approx(result.ground_energy, abs=1e-10)


def test_dense_ground_energy_h2(h2_hamiltonian):
    result = dense_ground_energy(h2_hamiltonian)
    assert result.ground_energy == pytest.approx(-1.1373058080797822, abs=1e-9)
    assert abs(result.ground_energy - (-1.1373)) <= 0.0010


def test_dense_rejects_non_hermitian():
    s = PauliSum(1, (PauliTerm(1.0j, {0: "Z"}),))
    with pytest.raises(UsageError):
        dense_ground_energy(s)


def test_dense_qubit_guard():
    s = single(DENSE_MAX_QUBITS + 1, {0: "Z"})
    with pytest.raises(ResourceError):
        dense_ground_energy(s)


def test_dense_guard_bounds_the_sector_dimension():
    """16 qubits is beyond the full-space guard, but its (1, 1) block of 64
    states is not. H = sum_q (q + 1) Z_q is lowest with the alpha electron
    on qubit 7 and the beta electron on qubit 15: 136 - 2 (8 + 16) = 88."""
    n = 16
    s = PauliSum(n, tuple(PauliTerm(q + 1.0, {q: "Z"}) for q in range(n)))
    with pytest.raises(ResourceError):
        dense_ground_energy(s)
    result = dense_ground_energy(s, n_electrons=2)
    assert result.ground_energy == pytest.approx(88.0, abs=1e-12)
    ground = np.flatnonzero(np.abs(result.ground_vector.amplitudes) > 1e-12)
    assert ground.tolist() == [(1 << 7) | (1 << 15)]
    # The block is small, but the ground vector is embedded in 2^n states.
    with pytest.raises(ResourceError):
        dense_ground_energy(single(26, {0: "Z"}), n_electrons=2)


@pytest.mark.parametrize("n_qubits,n_electrons", [(3, 1), (4, 5), (4, -1)])
def test_dense_rejects_impossible_sector(n_qubits, n_electrons):
    with pytest.raises(UsageError):
        dense_ground_energy(single(n_qubits, {0: "Z"}), n_electrons)


def _in_sector(n_qubits, n_electrons):
    """Mask over the 2^n basis of the (ceil(N/2), floor(N/2)) block."""
    n = n_qubits // 2
    idx = np.arange(2**n_qubits, dtype=np.int64)
    n_alpha = np.bitwise_count(idx & ((1 << n) - 1))
    n_beta = np.bitwise_count(idx >> n)
    return (n_alpha == n_electrons - n_electrons // 2) & (n_beta == n_electrons // 2)


@pytest.mark.parametrize("n,n_e", [(2, 2), (3, 2), (2, 4), (3, 4)])
def test_dense_sector_matches_fci_without_penalty(n, n_e):
    """The sector block holds the N-electron ground state by itself: no
    number penalty is needed for dense and FCI to agree."""
    rng = np.random.default_rng(100 * n + n_e)
    for _ in range(3):
        mo = random_mo_integrals(rng, n, n_e, scale=0.5)
        h = jordan_wigner(build_fermionic_hamiltonian(mo))
        result = dense_ground_energy(h, n_e)
        assert result.ground_energy == pytest.approx(
            fci_determinant_oracle(mo), abs=1e-9
        )
        amplitudes = result.ground_vector.amplitudes
        assert result.ground_vector.norm == pytest.approx(1.0, abs=1e-12)
        assert np.all(amplitudes[~_in_sector(2 * n, n_e)] == 0)
        assert expectation(result.ground_vector, h) == pytest.approx(
            result.ground_energy, abs=1e-10
        )


def test_dense_sector_odd_electrons_matches_penalized_full_space():
    """N = 3 is beyond the closed-shell oracle; the (2, 1) block must give
    the same energy as the whole Fock space with a number penalty."""
    rng = np.random.default_rng(11)
    for _ in range(3):
        mo = random_mo_integrals(rng, 3, 3, scale=0.5)
        h = jordan_wigner(build_fermionic_hamiltonian(mo))
        penalized = with_number_penalty(mo, penalty_strength(mo))
        reference = dense_ground_energy(
            jordan_wigner(build_fermionic_hamiltonian(penalized))
        ).ground_energy
        result = dense_ground_energy(h, 3)
        assert result.ground_energy == pytest.approx(reference, abs=1e-9)
        assert np.all(result.ground_vector.amplitudes[~_in_sector(6, 3)] == 0)
        assert expectation(result.ground_vector, h) == pytest.approx(
            result.ground_energy, abs=1e-10
        )


# ---------------------------------------------------------------------------
# fci_determinant_oracle
# ---------------------------------------------------------------------------


def test_fci_zero_integrals_returns_core():
    mo = MOIntegrals(2, 2, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), e_core=-3.25)
    assert fci_determinant_oracle(mo) == pytest.approx(-3.25, abs=1e-14)


def test_fci_h2_equilibrium(h2_equilibrium):
    _, _, mo = h2_equilibrium
    energy = fci_determinant_oracle(mo)
    assert energy == pytest.approx(-1.1373058080797822, abs=1e-9)


def test_fci_matches_dense_h2(h2_equilibrium, h2_hamiltonian):
    _, _, mo = h2_equilibrium
    assert fci_determinant_oracle(mo) == pytest.approx(
        dense_ground_energy(h2_hamiltonian).ground_energy, abs=1e-9
    )


def test_fci_below_hf(h2_equilibrium):
    _, scf, mo = h2_equilibrium
    assert fci_determinant_oracle(mo) < scf.e_hf


def test_fci_matches_dense_random_integrals():
    """Random Hermitian integrals: oracle == dense qubit ground energy.

    The qubit spectrum spans all particle-number sectors while the oracle
    fixes n_e, so a number penalty pins the dense ground state to the same
    sector before comparing.
    """
    rng = np.random.default_rng(7)
    for trial in range(6):
        n = 2 if trial % 2 == 0 else 3
        n_e = 2
        mo = random_mo_integrals(rng, n, n_e, scale=0.5)
        reference = fci_determinant_oracle(mo)
        penalized = with_number_penalty(mo, penalty_strength(mo))
        dense = dense_ground_energy(
            jordan_wigner(build_fermionic_hamiltonian(penalized))
        ).ground_energy
        assert dense == pytest.approx(reference, abs=1e-9)


def test_fci_orbital_guard():
    n = 7
    mo = MOIntegrals(n, 2, np.zeros((n, n)), np.zeros((n, n, n, n)), e_core=0.0)
    with pytest.raises(ResourceError):
        fci_determinant_oracle(mo)


def test_fci_rejects_odd_electrons():
    mo = MOIntegrals(2, 3, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), e_core=0.0)
    with pytest.raises(UsageError):
        fci_determinant_oracle(mo)


def test_fci_rejects_overfull():
    mo = MOIntegrals(2, 6, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), e_core=0.0)
    with pytest.raises(UsageError):
        fci_determinant_oracle(mo)
