"""Ansatz construction, the parameter-shift rule, the three optimizers,
and the assembled VQE loop."""

import io
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from numpy.testing import assert_allclose

from molq import (
    Ansatz,
    Circuit,
    ComputationError,
    Geometry,
    OptimizerConfig,
    PauliSum,
    PauliTerm,
    ResourceError,
    UCCSDBlock,
    UsageError,
    build_fermionic_hamiltonian,
    dense_ground_energy,
    expectation,
    hardware_efficient_ansatz,
    hf_reference_circuit,
    jordan_wigner,
    minimize,
    parameter_shift_gradient,
    run_circuit,
    uccsd_ansatz,
    vqe_solve,
)

from conftest import pipeline
from test_pauli import term_matrix

Z0 = PauliSum(1, (PauliTerm(1.0, {0: "Z"}),))


def ry_ansatz():
    """Single RY rotation on one qubit: minimal variational family."""
    return Ansatz(Circuit(1).ry(0, slot=0), 1, "ry")


# ----------------------------------------------------- hf_reference_circuit
def test_hf_circuit_blocked_convention():
    c = hf_reference_circuit(4, 2)
    assert [(g.kind, g.qubits) for g in c.gates] == [("x", (0,)), ("x", (2,))]


def test_hf_circuit_empty_for_zero_electrons():
    assert hf_reference_circuit(4, 0).gates == []


def test_hf_circuit_state_energy(h2_equilibrium, h2_hamiltonian):
    _, scf, _ = h2_equilibrium
    psi = run_circuit(hf_reference_circuit(4, 2), None)
    assert abs(expectation(psi, h2_hamiltonian) - scf.e_hf) <= 1e-8


def test_hf_circuit_rejects_odd_or_overfull():
    with pytest.raises(UsageError):
        hf_reference_circuit(4, 3)
    with pytest.raises(UsageError):
        hf_reference_circuit(4, 6)


# ----------------------------------------------- hardware_efficient_ansatz
def test_hea_parameter_count():
    assert hardware_efficient_ansatz(4, 2).parameter_count == 12


def test_hea_zero_angles_give_reference():
    # with the HF prefix, theta = 0 reproduces the reference determinant
    ansatz = hardware_efficient_ansatz(4, 1, 2)
    psi = run_circuit(ansatz.circuit, np.zeros(ansatz.parameter_count))
    ref = run_circuit(hf_reference_circuit(4, 2), None)
    assert_allclose(np.abs(psi.amplitudes), np.abs(ref.amplitudes), rtol=0, atol=1e-12)


def test_hea_depth_zero_single_layer():
    assert hardware_efficient_ansatz(3, 0).parameter_count == 3


def test_hea_finds_correlation_at_stretched_geometry(h2_stretched):
    # at 2.0 A the restricted HF reference sits ~0.16 Ha above the true
    # ground state; a depth-1 circuit must recover at least 0.01 Ha of it
    _, scf, mo = h2_stretched
    from molq import build_fermionic_hamiltonian, jordan_wigner

    h = jordan_wigner(build_fermionic_hamiltonian(mo))
    ansatz = hardware_efficient_ansatz(4, 1)
    result = vqe_solve(h, ansatz, OptimizerConfig(method="nelder_mead", budget=2000, seed=0))
    assert result.energy <= scf.e_hf - 0.01


# ------------------------------------------------------------- uccsd_ansatz
def test_uccsd_h2_parameter_count():
    ansatz = uccsd_ansatz(4, 2)
    assert ansatz.parameter_count == 3
    assert "singles=2" in ansatz.descriptor and "doubles=1" in ansatz.descriptor


def test_uccsd_zero_angles_exact_hf():
    ansatz = uccsd_ansatz(4, 2)
    psi = run_circuit(ansatz.circuit, np.zeros(3))
    ref = run_circuit(hf_reference_circuit(4, 2), None)
    assert_allclose(psi.amplitudes, ref.amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_qubits,n_electrons,n_rotations", [(4, 2, 12), (8, 4, 144)])
def test_uccsd_matches_expm_reference(n_qubits, n_electrons, n_rotations):
    # HF X gates, then one exp(-i phi/2 P) per generator string. The strings
    # of one excitation commute, so the reference applies, excitation by
    # excitation, expm(-i/2 sum_P phi_P M_P) with M_P the kron matrix of P.
    ansatz = uccsd_ansatz(n_qubits, n_electrons)
    gates = ansatz.circuit.gates
    assert [g.kind for g in gates] == ["x"] * n_electrons + ["pauli_rot"] * n_rotations
    n_occ = n_electrons // 2
    occupied = list(range(n_occ)) + [n_qubits // 2 + q for q in range(n_occ)]
    ref = np.zeros(2**n_qubits, dtype=complex)
    ref[sum(1 << q for q in occupied)] = 1.0
    theta = np.random.default_rng(5).uniform(-np.pi, np.pi, ansatz.parameter_count)
    for slot in range(ansatz.parameter_count):
        generator = sum(
            g.scale * theta[slot] * term_matrix(PauliTerm(1.0, x=g.x, z=g.z), n_qubits)
            for g in gates[n_electrons:]
            if g.slot == slot
        )
        ref = scipy.linalg.expm(-0.5j * generator) @ ref
    psi = run_circuit(ansatz.circuit, theta)
    assert_allclose(psi.amplitudes, ref, rtol=0, atol=1e-12)


def test_uccsd_vqe_hits_exact_h2(h2_hamiltonian):
    exact = dense_ground_energy(h2_hamiltonian).ground_energy
    result = vqe_solve(h2_hamiltonian, uccsd_ansatz(4, 2))
    assert abs(result.energy - exact) <= 1e-6


def test_uccsd_preserves_particle_number(h2_hamiltonian):
    # N = sum_p (1 - Z_p)/2 stays 2 for random parameters
    n_op = PauliSum(
        4, tuple(PauliTerm(-0.5, {q: "Z"}) for q in range(4)) + (PauliTerm(2.0, {}),)
    )
    ansatz = uccsd_ansatz(4, 2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        psi = run_circuit(ansatz.circuit, rng.uniform(-1, 1, 3))
        assert abs(expectation(psi, n_op) - 2.0) < 1e-10


# -------------------------------------------------- parameter_shift_gradient
def test_gradient_of_unused_parameter_is_zero():
    # second slot rotates a qubit the Hamiltonian never touches
    circ = Circuit(2).ry(0, slot=0).ry(1, slot=1)
    ansatz = Ansatz(circ, 2, "toy")
    h = PauliSum(2, (PauliTerm(1.0, {0: "Z"}),))
    grad = parameter_shift_gradient(ansatz, h, [0.4, 0.9])
    assert abs(grad[1]) <= 1e-12
    assert abs(grad[0] + math.sin(0.4)) <= 1e-12  # d/dt cos(t)


def test_gradient_matches_finite_difference(h2_hamiltonian):
    rng = np.random.default_rng(7)
    for ansatz in (uccsd_ansatz(4, 2), hardware_efficient_ansatz(4, 1, 2)):
        theta = rng.uniform(-1.0, 1.0, ansatz.parameter_count)
        grad = parameter_shift_gradient(ansatz, h2_hamiltonian, theta)
        for k in range(ansatz.parameter_count):
            e = np.zeros_like(theta)
            e[k] = 1e-4
            fd = (
                expectation(run_circuit(ansatz.circuit, theta + e), h2_hamiltonian)
                - expectation(run_circuit(ansatz.circuit, theta - e), h2_hamiltonian)
            ) / 2e-4
            assert abs(grad[k] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_gradient_small_at_converged_optimum(h2_hamiltonian):
    ansatz = uccsd_ansatz(4, 2)
    result = vqe_solve(h2_hamiltonian, ansatz)
    assert result.converged
    grad = parameter_shift_gradient(ansatz, h2_hamiltonian, result.parameters)
    assert np.max(np.abs(grad)) <= 1e-4


# --------------------------------------------------------------- UCCSDBlock
@pytest.fixture(scope="module")
def h4_hamiltonian(sto3g):
    """Linear H4 / STO-3G at 0.9 Angstrom spacing: 8 qubits, 4 electrons."""
    geom = Geometry.from_angstrom([("H", (0.0, 0.0, 0.9 * k)) for k in range(4)])
    _, _, mo = pipeline(geom, sto3g)
    return jordan_wigner(build_fermionic_hamiltonian(mo))


def random_hermitian_sum(n_qubits, n_terms, rng):
    """Real-coefficient strings with random (x, z) masks: Hermitian, and
    its X/Y letters move electrons between sectors."""
    masks = rng.integers(0, 2**n_qubits, size=(n_terms, 2))
    return PauliSum(n_qubits, tuple(
        PauliTerm(float(rng.standard_normal()), x=int(x), z=int(z)) for x, z in masks
    ))


@pytest.mark.parametrize("system", ["H2", "H4", "random-4q"])
def test_block_energy_matches_circuit(system, h2_hamiltonian, h4_hamiltonian):
    # The UCCSD state has no amplitude outside its block, so the block
    # energy equals the full-space one even for an H that changes N.
    rng = np.random.default_rng(17)
    h, n_electrons = {
        "H2": (h2_hamiltonian, 2),
        "H4": (h4_hamiltonian, 4),
        "random-4q": (random_hermitian_sum(4, 30, rng), 2),
    }[system]
    ansatz = uccsd_ansatz(h.n_qubits, n_electrons)
    block = UCCSDBlock(h, ansatz)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
        full = expectation(run_circuit(ansatz.circuit, theta), h)
        assert abs(block.energy(theta) - full) <= 1e-12


@pytest.mark.parametrize("system", ["H2", "H4"])
def test_adjoint_gradient_matches_parameter_shift(system, h2_hamiltonian, h4_hamiltonian):
    h, n_electrons = {"H2": (h2_hamiltonian, 2), "H4": (h4_hamiltonian, 4)}[system]
    ansatz = uccsd_ansatz(h.n_qubits, n_electrons)
    theta = np.random.default_rng(23).uniform(-np.pi, np.pi, ansatz.parameter_count)
    adjoint = UCCSDBlock(h, ansatz).gradient(theta)
    assert_allclose(adjoint, parameter_shift_gradient(ansatz, h, theta), rtol=0, atol=1e-10)


def test_block_keeps_the_circuit_checks(h2_hamiltonian):
    ansatz = uccsd_ansatz(4, 2)
    block = UCCSDBlock(h2_hamiltonian, ansatz)
    for call in (block.energy, block.gradient):
        with pytest.raises(UsageError):
            call(np.zeros(2))
    with pytest.raises(UsageError):
        UCCSDBlock(PauliSum(6, ()), ansatz)
    with pytest.raises(ResourceError, match="26 modes"):
        uccsd_ansatz(26, 2)  # its generators' JW images are refused first
    big = Ansatz(Circuit(26), 1, "uccsd", generators=(PauliSum(26, ()),), n_electrons=2)
    with pytest.raises(ResourceError):
        vqe_solve(PauliSum(26, (PauliTerm(1.0, {0: "Z"}),)), big)
    # a Hermitian H must give a real energy
    block.h = block.h + 1j * scipy.sparse.eye_array(block.h.shape[0])
    with pytest.raises(ComputationError):
        block.energy(np.zeros(3))


def test_gradient_descent_charges_adjoint_gradients(h2_hamiltonian):
    # each supplied gradient costs 2 * P evaluations against the budget
    config = OptimizerConfig(method="gradient_descent", budget=1000, gd_step=0.5)
    result = vqe_solve(h2_hamiltonian, uccsd_ansatz(4, 2), config)
    assert result.converged
    assert result.evaluations == len(result.history) * (1 + 2 * 3)
    exact = dense_ground_energy(h2_hamiltonian, 2).ground_energy
    assert exact - 1e-9 <= result.energy <= exact + 1e-6


# ------------------------------------------------------------------ minimize
def test_nelder_mead_1d_quadratic():
    result = minimize(lambda t: (t[0] - 1.0) ** 2, [0.0])
    assert abs(result.parameters[0] - 1.0) <= 1e-6
    assert result.converged


def test_nelder_mead_rosenbrock():
    def rosen(t):
        return (1 - t[0]) ** 2 + 100.0 * (t[1] - t[0] ** 2) ** 2

    result = minimize(rosen, [-1.2, 1.0], OptimizerConfig(method="nelder_mead", budget=2000))
    assert result.value <= 1e-6
    assert result.evaluations <= 2000


def test_spsa_deterministic_sequence():
    calls_a, calls_b = [], []

    def make(f_calls):
        def f(t):
            f_calls.append(tuple(t))
            return float(np.sum(t**2))

        return f

    config = OptimizerConfig(method="spsa", budget=60, seed=9)
    ra = minimize(make(calls_a), [0.5, -0.3], config)
    rb = minimize(make(calls_b), [0.5, -0.3], config)
    assert calls_a == calls_b
    assert_allclose(ra.parameters, rb.parameters, rtol=0, atol=0)
    assert ra.value == rb.value


def test_spsa_descends_on_quadratic():
    result = minimize(
        lambda t: float(np.sum((t - 1.0) ** 2)),
        [0.0, 0.0],
        OptimizerConfig(method="spsa", budget=800, seed=2),
    )
    assert result.value < 0.5  # started at 2.0


def test_gradient_descent_quadratic():
    result = minimize(
        lambda t: float(np.sum((t - 2.0) ** 2)),
        [0.0, 0.0],
        OptimizerConfig(method="gradient_descent", budget=4000),
    )
    assert result.converged
    assert_allclose(result.parameters, 2.0, rtol=0, atol=1e-4)


def test_budget_respected():
    for method in ("nelder_mead", "spsa", "gradient_descent"):
        count = [0]

        def f(t):
            count[0] += 1
            return float(np.sum(t**2))

        result = minimize(f, [3.0, -1.0], OptimizerConfig(method=method, budget=50))
        assert count[0] <= 50
        assert result.evaluations == count[0]


@pytest.mark.parametrize("method", ["nelder_mead", "spsa", "gradient_descent"])
@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_rejected(method, budget):
    count = [0]

    def f(t):
        count[0] += 1
        return float(np.sum(t**2))

    with pytest.raises(UsageError, match="budget"):
        minimize(f, [3.0, -1.0], OptimizerConfig(method=method, budget=budget))
    assert count[0] == 0


def test_best_seen_value_reported():
    # the reported value must be the best evaluation, not the last one
    def f(t):
        return float(np.sum(t**2))

    result = minimize(f, [2.0], OptimizerConfig(method="spsa", budget=100, seed=4))
    assert result.value <= f(np.asarray([2.0]))


def test_unknown_method_rejected():
    with pytest.raises(UsageError):
        minimize(lambda t: 0.0, [0.0], OptimizerConfig(method="bfgs"))


def test_result_unpacks_as_triple():
    theta, value, evals = minimize(lambda t: (t[0] - 1) ** 2, [0.0])
    assert abs(theta[0] - 1.0) <= 1e-6 and value <= 1e-10 and evals > 0


# ----------------------------------------------------------------- vqe_solve
def test_vqe_single_qubit_z():
    result = vqe_solve(Z0, ry_ansatz())
    assert abs(result.energy - (-1.0)) <= 1e-6


def test_vqe_identity_hamiltonian_single_evaluation():
    h = PauliSum(1, (PauliTerm(2.5, {}),))
    result = vqe_solve(h, Ansatz(Circuit(1), 0, "empty"))
    assert result.energy == 2.5
    assert result.evaluations == 1
    assert result.converged


def test_vqe_h2_chemical_accuracy(h2_hamiltonian):
    exact = dense_ground_energy(h2_hamiltonian).ground_energy
    result = vqe_solve(h2_hamiltonian, uccsd_ansatz(4, 2))
    assert abs(result.energy - exact) <= 1.6e-3


def test_vqe_variational_bound(h2_hamiltonian):
    exact = dense_ground_energy(h2_hamiltonian).ground_energy
    for method in ("nelder_mead", "spsa", "gradient_descent"):
        result = vqe_solve(
            h2_hamiltonian,
            uccsd_ansatz(4, 2),
            OptimizerConfig(method=method, budget=600, seed=1),
        )
        assert result.energy >= exact - 1e-9


def test_vqe_history_is_best_so_far(h2_hamiltonian):
    result = vqe_solve(h2_hamiltonian, uccsd_ansatz(4, 2))
    hist = result.history
    assert len(hist) == result.evaluations
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))
    assert hist[-1] == result.energy


def test_vqe_deterministic(h2_hamiltonian):
    config = OptimizerConfig(method="spsa", budget=300, seed=11)
    a = vqe_solve(h2_hamiltonian, uccsd_ansatz(4, 2), config)
    b = vqe_solve(h2_hamiltonian, uccsd_ansatz(4, 2), config)
    assert a.energy == b.energy
    assert_allclose(a.parameters, b.parameters, rtol=0, atol=0)
    assert a.history == b.history


def test_vqe_log_format(h2_hamiltonian):
    stream = io.StringIO()
    vqe_solve(h2_hamiltonian, uccsd_ansatz(4, 2), log=stream)
    lines = stream.getvalue().splitlines()
    assert lines
    for k, line in enumerate(lines, start=1):
        assert line.startswith(f"eval {k} E=")


def test_vqe_qubit_mismatch_rejected(h2_hamiltonian):
    with pytest.raises(UsageError):
        vqe_solve(h2_hamiltonian, ry_ansatz())
