"""Little-endian statevector simulator: gate algebra, expectation values,
and shot sampling."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from molq import (
    Circuit,
    PauliSum,
    PauliTerm,
    ResourceError,
    UsageError,
    expectation,
    run_circuit,
    sample_expectation,
)
from molq.statevector import MAX_QUBITS, Statevector


def state(circ, theta=None):
    return run_circuit(circ, theta)


# ------------------------------------------------------------------ gates
def test_initial_state_is_all_zeros():
    psi = state(Circuit(2))
    assert_allclose(psi.amplitudes, [1, 0, 0, 0], rtol=0, atol=0)


def test_x_on_qubit0_of_two():
    psi = state(Circuit(2).x(0))
    assert psi.amplitudes[1] == 1.0  # |01> with qubit 0 set


def test_x_on_qubit1_of_two():
    psi = state(Circuit(2).x(1))
    assert psi.amplitudes[2] == 1.0


def test_ry_pi_flips():
    psi = state(Circuit(1).ry(0, angle=math.pi))
    assert abs(psi.amplitudes[1] - 1.0) < 1e-12
    assert abs(psi.amplitudes[0]) < 1e-12


def test_cnot_after_x():
    psi = state(Circuit(2).x(0).cnot(0, 1))
    assert psi.amplitudes[3] == 1.0  # |11>


def test_cnot_control_zero_is_identity():
    psi = state(Circuit(2).cnot(0, 1))
    assert psi.amplitudes[0] == 1.0


def test_cz_phase_only_on_11():
    psi = state(Circuit(2).x(0).x(1).cz(0, 1))
    assert psi.amplitudes[3] == -1.0


def test_rz_is_diagonal_phase():
    psi = state(Circuit(1).x(0).rz(0, angle=math.pi / 2))
    assert_allclose(psi.amplitudes[1], np.exp(0.25j * math.pi), rtol=0, atol=1e-12)


def test_parameterized_slot_and_scale():
    # effective angle = angle + scale * theta[slot]
    psi_direct = state(Circuit(1).ry(0, angle=1.2))
    psi_slot = state(Circuit(1).ry(0, slot=0, angle=0.2, scale=2.0), [0.5])
    assert_allclose(psi_slot.amplitudes, psi_direct.amplitudes, rtol=0, atol=1e-12)


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        c = Circuit(n)
        for _ in range(12):
            kind = rng.integers(0, 4)
            q = int(rng.integers(0, n))
            if kind == 0:
                c.x(q)
            elif kind == 1:
                c.ry(q, angle=float(rng.uniform(-3, 3)))
            elif kind == 2:
                c.rz(q, angle=float(rng.uniform(-3, 3)))
            elif n > 1:
                r = int(rng.integers(0, n - 1))
                c.cnot(r, r + 1)
        psi = state(c)
        assert abs(psi.norm - 1.0) <= 1e-10


def test_qubit_guard():
    with pytest.raises(ResourceError):
        run_circuit(Circuit(MAX_QUBITS + 1), [])


def test_parameter_count_checked():
    c = Circuit(1).ry(0, slot=0)
    with pytest.raises(UsageError):
        run_circuit(c, [])
    with pytest.raises(UsageError):
        run_circuit(c, [0.1, 0.2])


def test_slot_density_validated():
    c = Circuit(1).ry(0, slot=3)  # slots 0..2 unused
    with pytest.raises(UsageError):
        run_circuit(c, [0.0, 0.0, 0.0, 0.0])


# ------------------------------------------------------------- expectation
def test_z_on_zero_state():
    psi = state(Circuit(1))
    assert expectation(psi, PauliSum(1, (PauliTerm(1.0, {0: "Z"}),))) == 1.0


def test_x_on_plus_state():
    psi = state(Circuit(1).ry(0, angle=math.pi / 2))
    h = PauliSum(1, (PauliTerm(1.0, {0: "X"}),))
    assert abs(expectation(psi, h) - 1.0) < 1e-12


def test_y_expectation():
    # RY(pi/2)|0> then RZ(pi/2) rotates +x onto +y
    psi = state(Circuit(1).ry(0, angle=math.pi / 2).rz(0, angle=math.pi / 2))
    h = PauliSum(1, (PauliTerm(1.0, {0: "Y"}),))
    assert abs(expectation(psi, h) - 1.0) < 1e-12


def test_expectation_matches_dense_matrix(h2_hamiltonian):
    rng = np.random.default_rng(2)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    psi = Statevector(4, amps)
    from molq import pauli_matrix

    dense = pauli_matrix(h2_hamiltonian)
    want = (amps.conj() @ dense @ amps).real
    assert abs(expectation(psi, h2_hamiltonian) - want) < 1e-10
    # Y-containing strings on up to 5 qubits against their kron matrices.
    from test_pauli import term_matrix

    amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    amps /= np.linalg.norm(amps)
    for letters in ({0: "Y"}, {1: "Y", 3: "Y"}, {0: "X", 2: "Y", 4: "Z"},
                    {0: "Y", 1: "Z", 2: "X", 3: "Y", 4: "Y"}):
        term = PauliTerm(0.7, letters)
        want = (amps.conj() @ term_matrix(term, 5) @ amps).real
        assert abs(expectation(Statevector(5, amps), PauliSum(5, (term,))) - want) < 1e-12


def test_qubit_count_mismatch_rejected():
    psi = state(Circuit(2))
    with pytest.raises(UsageError):
        expectation(psi, PauliSum(3, (PauliTerm(1.0, {0: "Z"}),)))


def test_y_expectation_on_complex_state():
    psi = Statevector(1, np.array([1.0, 1.0j]) / math.sqrt(2))
    h = PauliSum(1, (PauliTerm(1.0, {0: "Y"}),))
    assert abs(expectation(psi, h) - 1.0) < 1e-12


# ------------------------------------------------------ sample_expectation
def test_sampling_z_on_zero_exact():
    psi = state(Circuit(1))
    h = PauliSum(1, (PauliTerm(1.0, {0: "Z"}),))
    for shots in (1, 7, 100):
        assert sample_expectation(psi, h, shots=shots, seed=0) == 1.0


def test_sampling_deterministic(h2_hamiltonian):
    psi = state(Circuit(4).x(0).x(2))
    a = sample_expectation(psi, h2_hamiltonian, shots=5000, seed=42)
    b = sample_expectation(psi, h2_hamiltonian, shots=5000, seed=42)
    assert a == b


def test_sampling_within_three_sigma(h2_hamiltonian):
    theta = np.linspace(0.3, 1.1, 8)
    from molq import hardware_efficient_ansatz

    ansatz = hardware_efficient_ansatz(4, 1)
    psi = state(ansatz.circuit, theta)
    exact = expectation(psi, h2_hamiltonian)
    shots = 100_000
    from molq import qwc_group

    bound = sum(
        sum(abs(t.coefficient) for t in g) ** 2 for g in qwc_group(h2_hamiltonian)
    )
    sigma = math.sqrt(bound / shots)
    errs = [
        abs(sample_expectation(psi, h2_hamiltonian, shots=shots, seed=s) - exact)
        for s in range(8)
    ]
    assert max(errs) <= 3.0 * sigma


def test_sampling_error_shrinks_with_shots(h2_hamiltonian):
    psi = state(Circuit(4).x(0).x(2))
    exact = expectation(psi, h2_hamiltonian)
    seeds = range(10)

    def mean_err(shots):
        return np.mean(
            [abs(sample_expectation(psi, h2_hamiltonian, shots=shots, seed=s) - exact) for s in seeds]
        )

    assert mean_err(1_000_000) < mean_err(10_000) / 3.0


def test_sampling_shot_validation(h2_hamiltonian):
    psi = state(Circuit(4))
    with pytest.raises(UsageError):
        sample_expectation(psi, h2_hamiltonian, shots=0, seed=0)
