"""Little-endian statevector simulator: gate algebra, expectation values,
and shot sampling."""

import math
from functools import reduce

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
from molq.statevector import MAX_QUBITS, Gate
from test_pauli import I2, X, term_matrix


def state(circ, theta=None):
    return run_circuit(circ, theta)


# ------------------------------------------------------------------ gates
def test_initial_state_is_all_zeros():
    psi = state(Circuit(2))
    assert_allclose(psi, [1, 0, 0, 0], rtol=0, atol=0)


def test_x_on_qubit0_of_two():
    psi = state(Circuit(2).x(0))
    assert psi[1] == 1.0  # |01> with qubit 0 set


def test_x_on_qubit1_of_two():
    psi = state(Circuit(2).x(1))
    assert psi[2] == 1.0


def test_ry_pi_flips():
    psi = state(Circuit(1).ry(0, angle=math.pi))
    assert abs(psi[1] - 1.0) < 1e-12
    assert abs(psi[0]) < 1e-12


def test_cnot_after_x():
    psi = state(Circuit(2).x(0).cnot(0, 1))
    assert psi[3] == 1.0  # |11>


def test_cnot_control_zero_is_identity():
    psi = state(Circuit(2).cnot(0, 1))
    assert psi[0] == 1.0


def test_cz_phase_only_on_11():
    psi = state(Circuit(2).x(0).x(1).cz(0, 1))
    assert psi[3] == -1.0


def test_rz_is_diagonal_phase():
    psi = state(Circuit(1).x(0).rz(0, angle=math.pi / 2))
    assert_allclose(psi[1], np.exp(0.25j * math.pi), rtol=0, atol=1e-12)


def test_parameterized_slot_and_scale():
    # effective angle = angle + scale * theta[slot]
    psi_direct = state(Circuit(1).ry(0, angle=1.2))
    psi_slot = state(Circuit(1).ry(0, slot=0, angle=0.2, scale=2.0), [0.5])
    assert_allclose(psi_slot, psi_direct, rtol=0, atol=1e-12)


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
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10


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


def test_negative_pauli_masks_rejected():
    # qubits (0,) yet mask -1 would flip every bit through idx ^ -1
    with pytest.raises(UsageError, match="masks"):
        run_circuit(Circuit(2).pauli_rot(-1, 0, angle=math.pi))
    with pytest.raises(UsageError, match="masks"):
        run_circuit(Circuit(2, [Gate("pauli_rot", (0,), x=1, z=-2)]))
    with pytest.raises(UsageError, match="masks"):
        run_circuit(Circuit(2, [Gate("pauli_rot", (0,), x=4)]))


def test_gate_arity_checked():
    for gate in (Gate("cnot", (0,)), Gate("cz", (0, 1, 2)), Gate("ry", (0, 1)),
                 Gate("x", ())):
        with pytest.raises(UsageError, match="needs"):
            run_circuit(Circuit(3, [gate]))


def test_non_integer_qubit_index_rejected():
    for gate in (Gate("x", (0.5,)), Gate("cnot", (0, 1.0)), Gate("ry", (True,))):
        with pytest.raises(UsageError, match="not an integer"):
            run_circuit(Circuit(2, [gate]))


@pytest.mark.parametrize("gate, match", [
    (Gate("x", (2,)), "qubit 2 outside 0..1"),
    (Gate("cnot", (1, 1)), "cnot needs two distinct qubits"),
], ids=["outside", "repeated"])
def test_qubit_outside_the_register_or_repeated_rejected(gate, match):
    with pytest.raises(UsageError, match=match):
        run_circuit(Circuit(2, [gate]))


def test_unknown_gate_kind_rejected():
    with pytest.raises(UsageError, match="unknown gate kind"):
        run_circuit(Circuit(1, [Gate("h", (0,))]))


_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def kron_on(n, ops):
    """Kronecker product of one 2x2 factor per qubit, qubit 0 the last."""
    return reduce(np.kron, [ops.get(q, I2) for q in reversed(range(n))], np.eye(1))


def gate_matrix(gate, n, theta):
    t = gate.effective_angle(theta)
    c, s = math.cos(0.5 * t), math.sin(0.5 * t)
    if gate.kind == "x":
        return kron_on(n, {gate.qubits[0]: X})
    if gate.kind == "ry":
        return kron_on(n, {gate.qubits[0]: np.array([[c, -s], [s, c]])})
    if gate.kind == "rz":
        return kron_on(n, {gate.qubits[0]: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])})
    if gate.kind == "cnot":
        control, target = gate.qubits
        return kron_on(n, {control: _P0}) + kron_on(n, {control: _P1, target: X})
    if gate.kind == "cz":
        a, b = gate.qubits
        return kron_on(n, {}) - 2.0 * kron_on(n, {a: _P1, b: _P1})
    return c * kron_on(n, {}) - 1j * s * term_matrix(PauliTerm(1.0, x=gate.x, z=gate.z), n)


def test_gates_match_kron_reference():
    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(200):
        n = int(rng.integers(1, 6))
        c = Circuit(n)
        for _ in range(int(rng.integers(1, 16))):
            kind = int(rng.integers(0, 6))
            q = int(rng.integers(0, n))
            angle = float(rng.uniform(-4, 4))
            slot = c.parameter_count if rng.random() < 0.5 else None
            if kind == 0:
                c.x(q)
            elif kind == 1:
                c.ry(q, slot=slot, angle=angle, scale=1.5)
            elif kind == 2:
                c.rz(q, slot=slot, angle=angle, scale=-0.5)
            elif kind in (3, 4) and n > 1:
                a, b = (int(v) for v in rng.choice(n, 2, replace=False))
                (c.cnot if kind == 3 else c.cz)(a, b)
                seen.add(("cnot" if kind == 3 else "cz", a < b))
            elif kind == 5:
                x, z = (int(v) for v in rng.integers(0, 2**n, 2))
                c.pauli_rot(x, z, slot=slot, angle=angle, scale=0.75)
                if (x | z).bit_count() > 1 and x & z:
                    seen.add(("pauli_rot", "multi-qubit with Y"))
        theta = rng.uniform(-3, 3, c.parameter_count)
        want = np.zeros(2**n, dtype=complex)
        want[0] = 1.0
        for gate in c.gates:
            want = gate_matrix(gate, n, theta) @ want
        assert_allclose(run_circuit(c, theta), want, rtol=0, atol=1e-12)
    assert {("cnot", True), ("cnot", False), ("cz", True), ("cz", False),
            ("pauli_rot", "multi-qubit with Y")} <= seen


def test_run_circuit_returns_the_amplitude_array():
    for n in (1, 3):
        psi = run_circuit(Circuit(n).x(0))
        assert isinstance(psi, np.ndarray)
        assert psi.shape == (2**n,) and psi.dtype == complex


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
    psi = amps
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
        assert abs(expectation(amps, PauliSum(5, (term,))) - want) < 1e-12


def test_qubit_count_mismatch_rejected():
    psi = state(Circuit(2))
    with pytest.raises(UsageError):
        expectation(psi, PauliSum(3, (PauliTerm(1.0, {0: "Z"}),)))
    # an array is a 2-qubit state only if its shape is (4,)
    h = PauliSum(2, (PauliTerm(1.0, {0: "Z"}),))
    for shape in ((2,), (8,), (4, 1), (1, 4)):
        psi = np.zeros(shape, dtype=complex)
        psi.flat[0] = 1.0
        with pytest.raises(UsageError, match="qubit counts differ"):
            expectation(psi, h)
        with pytest.raises(UsageError, match="qubit counts differ"):
            sample_expectation(psi, h, shots=10, seed=0)


def test_a_non_hermitian_sum_has_no_expectation(monkeypatch):
    # expectation read the real part and sample_expectation the real
    # coefficients; both now refuse, before any amplitude is read or sampled
    def no_work(*args):
        raise AssertionError("read or sampled before the Hermitian check")

    psi = state(Circuit(2).ry(0, angle=0.4).cnot(0, 1))
    monkeypatch.setattr("molq.statevector.pauli_phase", no_work)
    monkeypatch.setattr("molq.statevector.qwc_group", no_work)
    h = PauliSum(2, (PauliTerm(1.0, {0: "Z"}), PauliTerm(0.3j, {0: "Y", 1: "X"})))
    with pytest.raises(UsageError, match="PauliSum is not Hermitian"):
        expectation(psi, h)
    with pytest.raises(UsageError, match="PauliSum is not Hermitian"):
        sample_expectation(psi, h, shots=100, seed=0)


def test_sampling_a_real_array_rotates_a_complex_copy():
    # a Y term takes RZ(-pi/2), which a real array could not hold
    psi = np.array([0.6, 0.0, 0.0, 0.8])
    h = PauliSum(2, (PauliTerm(1.0, {0: "Y", 1: "Y"}), PauliTerm(0.5, {0: "Z"})))
    want = sample_expectation(psi.astype(complex), h, shots=500, seed=4)
    assert sample_expectation(psi, h, shots=500, seed=4) == want
    assert psi.tolist() == [0.6, 0.0, 0.0, 0.8]


def test_y_expectation_on_complex_state():
    psi = np.array([1.0, 1.0j]) / math.sqrt(2)
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
        sum(abs(t.coefficient) for t in g.terms) ** 2 for g in qwc_group(h2_hamiltonian)
    )
    sigma = math.sqrt(bound / shots)
    errs = [
        abs(sample_expectation(psi, h2_hamiltonian, shots=shots, seed=s) - exact)
        for s in range(8)
    ]
    assert max(errs) <= 3.0 * sigma


# sample_expectation(HEA depth-1 state at theta = linspace(0.3, 1.1, P), h,
# shots=2000, seed) for seeds 0..3, as the PauliTerm grouping and a
# basis-rotation Circuit computed them: the mask path must match bit for bit
PINNED_SAMPLES = {
    "H2": [-0.01378985798334317, -0.015229342169422377,
           0.0022222814782123547, -0.003992611135844202],
    "LiH...H2": [-2.829318403268031, -2.8652219316520435,
                 -2.8434084064491087, -2.7864818465355734],
}


def test_sampling_values_are_pinned(h2_hamiltonian, lih_h2_hamiltonian):
    from molq import hardware_efficient_ansatz

    for name, h in (("H2", h2_hamiltonian), ("LiH...H2", lih_h2_hamiltonian)):
        ansatz = hardware_efficient_ansatz(h.n_qubits, 1)
        psi = state(ansatz.circuit, np.linspace(0.3, 1.1, ansatz.parameter_count))
        found = [sample_expectation(psi, h, shots=2000, seed=seed) for seed in range(4)]
        assert found == PINNED_SAMPLES[name]


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


def test_sampling_rejects_non_integer_shots(h2_hamiltonian):
    # errors.check_integer: a bool or a numpy integer is not an int
    psi = state(Circuit(4))
    for shots in (2.5, 100.0, "100", True, np.int64(100)):
        with pytest.raises(UsageError, match="shots"):
            sample_expectation(psi, h2_hamiltonian, shots, 0)


def test_sampling_rejects_a_seed_that_is_not_an_int_of_at_least_0(h2_hamiltonian):
    psi = state(Circuit(4))
    for seed in (-1, 1.5, True, np.int64(0)):
        with pytest.raises(UsageError, match="seed must be an integer >= 0"):
            sample_expectation(psi, h2_hamiltonian, 100, seed)


def test_sampling_basis_change_on_eigenstates():
    # each state is the +1 eigenstate of its string, so every shot reads +1
    half = math.pi / 2
    cases = (
        (Circuit(1).ry(0, angle=half), {0: "X"}),
        (Circuit(1).ry(0, angle=half).rz(0, angle=half), {0: "Y"}),
        (Circuit(2).ry(0, angle=half).ry(1, angle=half).rz(1, angle=half), {0: "X", 1: "Y"}),
    )
    for circ, letters in cases:
        psi = state(circ)
        h = PauliSum(circ.n_qubits, (PauliTerm(1.0, letters),))
        for seed in range(5):
            assert sample_expectation(psi, h, shots=500, seed=seed) == 1.0
