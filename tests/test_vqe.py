"""Ansatz construction, the parameter-shift rule, the three optimizers,
and the assembled VQE loop."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
from numpy.testing import assert_allclose, assert_array_equal

import molq.vqe
from molq import (
    Ansatz,
    Circuit,
    ComputationError,
    FermionOperator,
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
    z2_symmetries,
)
from molq.exact import compile_operator, sector_basis

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
    with pytest.raises(UsageError, match="even qubit count"):
        hf_reference_circuit(3, 2)


# ----------------------------------------------- hardware_efficient_ansatz
def test_hea_parameter_count():
    assert hardware_efficient_ansatz(4, 2).parameter_count == 12


def test_hea_zero_angles_give_reference():
    # with the HF prefix, theta = 0 reproduces the reference determinant
    ansatz = hardware_efficient_ansatz(4, 1, 2)
    psi = run_circuit(ansatz.circuit, np.zeros(ansatz.parameter_count))
    ref = run_circuit(hf_reference_circuit(4, 2), None)
    assert_allclose(np.abs(psi), np.abs(ref), rtol=0, atol=1e-12)


def test_hea_depth_zero_single_layer():
    assert hardware_efficient_ansatz(3, 0).parameter_count == 3


@pytest.mark.parametrize("depth", [-1, True, 2.5, "1", None], ids=repr)
def test_hea_depth_takes_the_one_integer_rule(depth):
    with pytest.raises(UsageError, match="depth must be an integer >= 0"):
        hardware_efficient_ansatz(2, depth)


@pytest.mark.parametrize("n_atoms, length, depth", [
    (2, 0.7354, 1), (2, 0.7354, 2), (2, 1.6, 1), (2, 1.6, 2), (2, 2.5, 1), (2, 2.5, 2),
    (4, 0.9, 1),
])
def test_hf_prefixed_hea_gradient_vanishes_at_zero(sto3g, n_atoms, length, depth):
    # at theta = 0 each RY derivative flips one bit of the HF determinant,
    # a state of another electron count that H does not couple to it
    geom = Geometry.from_angstrom([("H", (0.0, 0.0, length * k)) for k in range(n_atoms)])
    _, _, mo = pipeline(geom, sto3g)
    h = jordan_wigner(build_fermionic_hamiltonian(mo))
    ansatz = hardware_efficient_ansatz(h.n_qubits, depth, mo.n_electrons)
    grad = parameter_shift_gradient(ansatz, h, np.zeros(ansatz.parameter_count))
    assert np.max(np.abs(grad)) <= 1e-12


def test_hea_finds_correlation_at_stretched_geometry(h2_stretched):
    # at 2.0 A the restricted HF reference sits ~0.16 Ha above the true
    # ground state; a depth-1 circuit must recover at least 0.01 Ha of it
    _, scf, mo = h2_stretched
    from molq import build_fermionic_hamiltonian, jordan_wigner

    h = jordan_wigner(build_fermionic_hamiltonian(mo))
    ansatz = hardware_efficient_ansatz(4, 1)
    result = vqe_solve(h, ansatz, OptimizerConfig(method="nelder_mead", budget=2000, seed=0))
    assert result.energy <= scf.e_hf - 0.01


def test_vqe_solve_checks_a_declared_hea_electron_count(sto3g):
    geom = Geometry.from_angstrom([("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.8))])
    _, _, mo = pipeline(geom, sto3g)
    h = jordan_wigner(build_fermionic_hamiltonian(mo))
    config = OptimizerConfig(method="nelder_mead", budget=2000, seed=0)
    declared = hardware_efficient_ansatz(4, 2, 2)
    assert declared.n_electrons == 2
    with pytest.raises(ComputationError, match=r"HEA state left the 2-electron sector"):
        vqe_solve(h, declared, config)
    # without a count there is no HF prefix and nothing to check against
    undeclared = hardware_efficient_ansatz(4, 2)
    assert undeclared.n_electrons is None
    assert vqe_solve(h, undeclared, config).evaluations > 0


# ------------------------------------------------------------- uccsd_ansatz
def test_uccsd_h2_parameter_count():
    ansatz = uccsd_ansatz(4, 2)
    assert ansatz.parameter_count == 3
    assert "singles=2" in ansatz.descriptor and "doubles=1" in ansatz.descriptor


def test_uccsd_needs_a_virtual_orbital():
    with pytest.raises(UsageError, match="an occupied and a virtual orbital"):
        uccsd_ansatz(4, 4)


def test_uccsd_zero_angles_exact_hf():
    ansatz = uccsd_ansatz(4, 2)
    psi = run_circuit(ansatz.circuit, np.zeros(3))
    ref = run_circuit(hf_reference_circuit(4, 2), None)
    assert_allclose(psi, ref, rtol=0, atol=1e-12)


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
    assert_allclose(psi, ref, rtol=0, atol=1e-12)


def reference_uccsd_ansatz(n_qubits, n_electrons):
    """UCCSD built excitation by excitation: one jordan_wigner call per
    slot on the two rows T_k and T_k^dagger."""
    n_spatial, n_occ = n_qubits // 2, n_electrons // 2
    circuit = hf_reference_circuit(n_qubits, n_electrons)
    excitations = [
        (2 * (a + spin), 2 * (i + spin) + 1)
        for spin in (0, n_spatial) for i in range(n_occ) for a in range(n_occ, n_spatial)
    ] + [
        (2 * a, 2 * (b + n_spatial), 2 * (j + n_spatial) + 1, 2 * i + 1)
        for i in range(n_occ) for j in range(n_occ)
        for a in range(n_occ, n_spatial) for b in range(n_occ, n_spatial)
    ]
    generators = []
    for slot, codes in enumerate(excitations):
        codes = np.array(codes)
        image = jordan_wigner(FermionOperator(
            n_qubits, coefficients=[1.0, -1.0], factors=np.stack([codes, codes[::-1] ^ 1])
        ))
        assert np.all(np.abs(image.coefficients.real) <= 1e-12)
        for x, z, c in zip(image.x.tolist(), image.z.tolist(), image.coefficients.tolist()):
            circuit.pauli_rot(x, z, slot=slot, scale=-2.0 * c.imag)
        generators.append(image)
    return circuit, generators


UCCSD_GRID = [(4, 2), (6, 2), (6, 4), (8, 2), (8, 4), (8, 6), (10, 4), (12, 6), (16, 8)]


@pytest.mark.parametrize("n_qubits,n_electrons", UCCSD_GRID)
def test_uccsd_matches_per_excitation_reference(n_qubits, n_electrons):
    # one transform of the whole excitation table gives, byte for byte, the
    # circuit of one transform per excitation, and generators that are
    # those transforms' images one after another
    ansatz = uccsd_ansatz(n_qubits, n_electrons)
    circuit, generators = reference_uccsd_ansatz(n_qubits, n_electrons)

    def gate_bytes(gate):
        return (gate.kind, gate.qubits, gate.slot, gate.angle.hex(), gate.scale.hex(), gate.x, gate.z)

    assert list(map(gate_bytes, ansatz.circuit.gates)) == list(map(gate_bytes, circuit.gates))
    assert ansatz.parameter_count == len(generators)
    got = ansatz.generators
    assert got.n_qubits == n_qubits
    for column in ("x", "z", "coefficients"):
        a = getattr(got, column)
        b = np.concatenate([getattr(g, column) for g in generators])
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_uccsd_circuit_is_built_once_from_its_generators():
    # the generator sum is the one copy of the slots: the circuit is built
    # from it on first read, kept, and leaves the HF prefix as it was
    ansatz = uccsd_ansatz(8, 4)
    first = ansatz.circuit
    assert ansatz.circuit is first
    assert len(first.gates) == 4 + ansatz.generators.x.size
    assert ansatz.prefix.gates == hf_reference_circuit(8, 4).gates


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


@pytest.fixture(scope="module")
def h6_hamiltonian(sto3g):
    """Linear H6 / STO-3G at 0.9 Angstrom spacing: 12 qubits, 6 electrons."""
    geom = Geometry.from_angstrom([("H", (0.0, 0.0, 0.9 * k)) for k in range(6)])
    _, _, mo = pipeline(geom, sto3g)
    return jordan_wigner(build_fermionic_hamiltonian(mo))


def per_slot_block(h, ansatz):
    """A UCCSDBlock whose gather arrays come from one compile per slot: the
    runs of one flip mask cut from the generator sum, each compiled on its
    own and scattered into its own (src, val, val * val[src])."""
    block = UCCSDBlock(h, ansatz)
    basis = sector_basis(h.n_qubits, ansatz.n_electrons)
    g = ansatz.generators
    bounds = np.flatnonzero(np.concatenate(([True], g.x[1:] != g.x[:-1], [True])))
    block.generators = []
    for s, e in zip(bounds, bounds[1:]):
        op = compile_operator(PauliSum(g.n_qubits, x=g.x[s:e], z=g.z[s:e],
                                       coefficients=g.coefficients[s:e]), basis)
        src, val = np.arange(len(basis)), np.zeros(len(basis), dtype=block.h.dtype)
        src[op.rows], val[op.rows] = op.cols, op.values
        block.generators.append((src, val, val * val[src]))
    return block


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


def test_block_keeps_one_dtype(h2_hamiltonian, h4_hamiltonian):
    # real H and generators keep the whole block real; a complex H makes
    # every array complex, so no product mixes the two
    rng = np.random.default_rng(29)
    for h, n_electrons, dtype in ((h2_hamiltonian, 2, np.float64),
                                  (h4_hamiltonian, 4, np.float64),
                                  (random_hermitian_sum(4, 30, rng), 2, np.complex128)):
        ansatz = uccsd_ansatz(h.n_qubits, n_electrons)
        block = UCCSDBlock(h, ansatz)
        theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
        arrays = [block.h, block.reference, block.state(theta)]
        arrays += [array for generator in block.generators for array in generator[1:]]
        assert {array.dtype for array in arrays} == {np.dtype(dtype)}
        assert block.gradient(theta).dtype == np.float64


@pytest.mark.parametrize("system", ["H2", "H4", "H6"])
def test_block_is_the_per_slot_compiles_bit_for_bit(system, h2_hamiltonian, h4_hamiltonian,
                                                     h6_hamiltonian):
    # one compile of the generator sum, split by flip mask, gives the
    # tables, energies and gradients of one compile per slot, bit for bit
    h, n_electrons = {"H2": (h2_hamiltonian, 2), "H4": (h4_hamiltonian, 4),
                      "H6": (h6_hamiltonian, 6)}[system]
    ansatz = uccsd_ansatz(h.n_qubits, n_electrons)
    block, reference = UCCSDBlock(h, ansatz), per_slot_block(h, ansatz)
    assert len(block.generators) == len(reference.generators) == ansatz.parameter_count
    for got, want in zip(block.generators, reference.generators):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert_array_equal(a, b)
    rng = np.random.default_rng(31)
    for _ in range(2):
        theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
        assert block.energy(theta) == reference.energy(theta)
        assert_array_equal(block.gradient(theta), reference.gradient(theta))


@pytest.mark.parametrize("system", ["H2", "H4"])
def test_adjoint_gradient_matches_parameter_shift(system, h2_hamiltonian, h4_hamiltonian):
    h, n_electrons = {"H2": (h2_hamiltonian, 2), "H4": (h4_hamiltonian, 4)}[system]
    ansatz = uccsd_ansatz(h.n_qubits, n_electrons)
    theta = np.random.default_rng(23).uniform(-np.pi, np.pi, ansatz.parameter_count)
    adjoint = UCCSDBlock(h, ansatz).gradient(theta)
    assert_allclose(adjoint, parameter_shift_gradient(ansatz, h, theta), rtol=0, atol=1e-10)


def test_block_refuses_a_flip_mask_in_two_runs(h2_hamiltonian):
    # each slot is one run of one flip mask: the first slot's strings again
    # after the last make 4 runs of 3 masks, refused even for 4 parameters
    ansatz = uccsd_ansatz(4, 2)
    g = ansatz.generators
    rows = np.concatenate([np.arange(len(g.x)), np.flatnonzero(g.x == g.x[0])])
    twice = PauliSum(4, x=g.x[rows], z=g.z[rows], coefficients=g.coefficients[rows])
    for count in (3, 4):
        with pytest.raises(UsageError, match="the generators hold 4 runs of 3 masks"):
            UCCSDBlock(h2_hamiltonian, replace(ansatz, generators=twice, parameter_count=count))


def slot_flip_masks(ansatz):
    """Each slot's flip mask: the runs of one x mask in its generators."""
    x = ansatz.generators.x
    return x[np.diff(x, prepend=-1) != 0].tolist()


@pytest.mark.parametrize("n_electrons", [4, 6])
@pytest.mark.parametrize("spacing", [0.9, 1.5])
def test_pruned_ansatz_is_the_full_one_with_its_dropped_slots_at_zero(hydrogen_chain,
                                                                      n_electrons, spacing):
    # the dropped slots leave the HF determinant's Z2 sector: with all of
    # them at 0 their gradient is 0, and the kept slots see the same energy
    # and gradient as in the full ansatz
    h = hydrogen_chain(n_electrons, spacing)
    full = uccsd_ansatz(h.n_qubits, n_electrons)
    pruned = uccsd_ansatz(h.n_qubits, n_electrons, z2_symmetries(h))
    assert (full.parameter_count, pruned.parameter_count) == {4: (24, 12), 6: (99, 49)}[n_electrons]
    kept = [slot_flip_masks(full).index(mask) for mask in slot_flip_masks(pruned)]
    assert kept == sorted(kept)   # the kept slots keep their order
    dropped = np.setdiff1d(np.arange(full.parameter_count), kept)
    full_block, pruned_block = UCCSDBlock(h, full), UCCSDBlock(h, pruned)
    rng = np.random.default_rng(37)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, pruned.parameter_count)
        padded = np.zeros(full.parameter_count)
        padded[kept] = theta
        assert abs(pruned_block.energy(theta) - full_block.energy(padded)) <= 1e-12
        gradient = full_block.gradient(padded)
        assert_allclose(pruned_block.gradient(theta), gradient[kept], rtol=0, atol=1e-12)
        assert_allclose(gradient[dropped], 0.0, rtol=0, atol=1e-12)


def test_pruned_circuit_matches_its_block(h4_hamiltonian):
    ansatz = uccsd_ansatz(8, 4, z2_symmetries(h4_hamiltonian))
    assert ansatz.descriptor == "uccsd(singles=4,doubles=8)"
    block = UCCSDBlock(h4_hamiltonian, ansatz)
    theta = np.random.default_rng(43).uniform(-np.pi, np.pi, ansatz.parameter_count)
    full_space = expectation(run_circuit(ansatz.circuit, theta), h4_hamiltonian)
    assert abs(block.energy(theta) - full_space) <= 1e-12
    assert_allclose(block.gradient(theta), parameter_shift_gradient(ansatz, h4_hamiltonian, theta),
                    rtol=0, atol=1e-10)


def test_number_parities_prune_no_slot():
    # symmetries=() keeps every slot; the number parities never prune one
    for n_qubits, n_electrons in ((4, 2), (8, 4), (12, 6)):
        full = uccsd_ansatz(n_qubits, n_electrons)
        n = n_qubits // 2
        parities = uccsd_ansatz(n_qubits, n_electrons, ((1 << n) - 1, ((1 << n) - 1) << n))
        assert parities.descriptor == full.descriptor
        for column in ("x", "z", "coefficients"):
            assert (getattr(parities.generators, column).tobytes()
                    == getattr(full.generators, column).tobytes())


def test_uccsd_with_every_slot_pruned_is_the_hf_state():
    # H = Z_0 conserves every Z_q, so no excitation is kept
    h = PauliSum(4, (PauliTerm(1.0, {0: "Z"}),))
    ansatz = uccsd_ansatz(4, 2, z2_symmetries(h))
    assert (ansatz.parameter_count, ansatz.descriptor) == (0, "uccsd(singles=0,doubles=0)")
    result = vqe_solve(h, ansatz)
    assert (result.energy, result.evaluations) == (-1.0, 1)


def test_block_keeps_the_circuit_checks(h2_hamiltonian, monkeypatch):
    ansatz = uccsd_ansatz(4, 2)
    block = UCCSDBlock(h2_hamiltonian, ansatz)
    for call in (block.energy, block.gradient):
        with pytest.raises(UsageError):
            call(np.zeros(2))
    with pytest.raises(UsageError):
        UCCSDBlock(PauliSum(6, ()), ansatz)
    # an ansatz without generators raised AttributeError after H_B was built
    def no_block(*args):
        raise AssertionError("the block was built before the generators were checked")

    with monkeypatch.context() as patch:
        patch.setattr(molq.vqe, "sector_basis", no_block)
        patch.setattr(molq.vqe, "pauli_matrix", no_block)
        with pytest.raises(UsageError, match="generators"):
            UCCSDBlock(h2_hamiltonian, hardware_efficient_ansatz(4, 1, 2))
    with pytest.raises(ResourceError, match="26 modes"):
        uccsd_ansatz(26, 2)  # its generators' JW images are refused first
    big = Ansatz(Circuit(26), 1, "uccsd", generators=PauliSum(26, ()), n_electrons=2)
    with pytest.raises(ResourceError):
        vqe_solve(PauliSum(26, (PauliTerm(1.0, {0: "Z"}),)), big)
    # a Hermitian H must give a real energy
    block.h = block.h + 1j * scipy.sparse.eye_array(block.h.shape[0])
    with pytest.raises(ComputationError):
        block.energy(np.zeros(3))


def test_a_non_hermitian_hamiltonian_has_no_vqe_energy(h2_hamiltonian, monkeypatch):
    # H2 plus 0.3i Y0 X1 X2 X3: the block read the real part of its energy,
    # yet at 0.74 Angstrom its adjoint gradient at (0.1, -0.2, 0.3) read
    # (-0.425, -0.063, 1.660), the energy's central difference (-0.191,
    # -0.063, 1.090)
    h = PauliSum(4, h2_hamiltonian.terms + [PauliTerm(0.3j, {0: "Y", 1: "X", 2: "X", 3: "X"})])
    uccsd = uccsd_ansatz(4, 2)
    gradient_descent = OptimizerConfig(method="gradient_descent", budget=50)
    for solve in (lambda: vqe_solve(h, uccsd, gradient_descent),
                  lambda: vqe_solve(h, hardware_efficient_ansatz(4, 1, 2))):
        with pytest.raises(UsageError, match="PauliSum is not Hermitian"):
            solve()

    def no_compile(*args):
        raise AssertionError("compiled before the Hermitian check")

    monkeypatch.setattr(molq.vqe, "pauli_matrix", no_compile)
    monkeypatch.setattr(molq.vqe, "compile_operator", no_compile)
    with pytest.raises(UsageError, match="PauliSum is not Hermitian"):
        UCCSDBlock(h, uccsd)


@pytest.mark.parametrize("change", ["doubled", "one-coefficient-plus-0.1"])
def test_block_refuses_a_generator_without_unit_anti_hermitian_entries(h2_hamiltonian, change):
    # exp(theta G) = 1 + sin(theta) G + (1 - cos(theta)) G^2 needs G^3 = -G:
    # the doubled generators gave -0.55900 at (0.3, -0.2, 0.4), their
    # circuit -0.55004
    ansatz = uccsd_ansatz(4, 2)
    g = ansatz.generators
    coefficients = g.coefficients.copy()
    if change == "doubled":
        coefficients *= 2.0
    else:
        coefficients[0] += 0.1
    changed = replace(ansatz, generators=PauliSum(4, x=g.x, z=g.z, coefficients=coefficients))
    with pytest.raises(UsageError, match="not anti-Hermitian with entries of modulus 1"):
        UCCSDBlock(h2_hamiltonian, changed)


def test_block_rejects_a_generator_with_two_flip_masks(h2_hamiltonian):
    # the gather form keeps one entry per row, so one flip mask per generator
    generator = PauliSum(4, (PauliTerm(1j, {0: "X"}), PauliTerm(1j, {1: "X"})))
    ansatz = Ansatz(hf_reference_circuit(4, 2), 1, "uccsd", generators=generator, n_electrons=2)
    with pytest.raises(UsageError, match="flip mask"):
        UCCSDBlock(h2_hamiltonian, ansatz)


@pytest.mark.parametrize("masks", [
    (3, 12, 3),   # three runs, but the first and third slots share a flip mask
    (3, 3, 12),   # two runs for three slots
], ids=["shared-mask", "fewer-runs"])
def test_block_needs_one_run_of_its_own_flip_mask_per_slot(h2_hamiltonian, masks):
    # more runs than slots: test_block_rejects_a_generator_with_two_flip_masks
    generators = PauliSum(4, x=masks, z=[0] * 3, coefficients=[1j] * 3)
    ansatz = Ansatz(hf_reference_circuit(4, 2), 3, "uccsd", generators=generators, n_electrons=2)
    with pytest.raises(UsageError, match="flip mask"):
        UCCSDBlock(h2_hamiltonian, ansatz)


def test_block_refuses_an_ansatz_without_an_electron_count(h2_hamiltonian, monkeypatch):
    # refused before anything is compiled, not as a TypeError from the sector
    def no_compile(*args):
        raise AssertionError("compiled before the electron count was checked")

    monkeypatch.setattr(molq.vqe, "pauli_matrix", no_compile)
    monkeypatch.setattr(molq.vqe, "compile_operator", no_compile)
    ansatz = replace(uccsd_ansatz(4, 2), n_electrons=None)
    for build in (UCCSDBlock, vqe_solve):
        with pytest.raises(UsageError, match="electron count"):
            build(h2_hamiltonian, ansatz)


def test_block_above_the_dense_guard_is_refused_first():
    # 20 qubits with 10 electrons: a (5, 5) block of 252**2 = 63 504 states.
    # The generator would be refused if it were gathered before the guard.
    generator = PauliSum(20, (PauliTerm(1j, {0: "X"}), PauliTerm(1j, {1: "X"})))
    big = Ansatz(Circuit(20), 1, "uccsd", generators=generator, n_electrons=10)
    h = PauliSum(20, (PauliTerm(1.0, {0: "Z"}),))
    for build in (UCCSDBlock, vqe_solve):
        with pytest.raises(ResourceError, match="63504 exceeds"):
            build(h, big)


def test_gradient_descent_charges_adjoint_gradients(h2_hamiltonian):
    # each supplied gradient costs 2 * P evaluations against the budget
    config = OptimizerConfig(method="gradient_descent", budget=1000)
    result = vqe_solve(h2_hamiltonian, uccsd_ansatz(4, 2), config)
    assert result.converged
    assert result.evaluations == len(result.history) * (1 + 2 * 3)
    exact = dense_ground_energy(h2_hamiltonian, 2).ground_energy
    assert exact - 1e-9 <= result.energy <= exact + 1e-6


def test_gradient_descent_on_a_circuit_ansatz_charges_parameter_shift_pairs(monkeypatch):
    # one RY on Z0 + X0: E(theta) = cos theta + sin theta, 1.0 at the start
    thetas = []

    def recorded(a, h, theta):
        thetas.append(theta.copy())
        return parameter_shift_gradient(a, h, theta)

    monkeypatch.setattr(molq.vqe, "parameter_shift_gradient", recorded)
    h = PauliSum(1, (PauliTerm(1.0, {0: "Z"}), PauliTerm(1.0, {0: "X"})))
    config = OptimizerConfig(method="gradient_descent", budget=10)
    result = vqe_solve(h, hardware_efficient_ansatz(1, 0), config)
    assert len(thetas) == len(result.history) == 3 and thetas[0] == 0.0
    assert result.evaluations == 3 * (1 + 2) <= config.budget
    assert result.energy < 1.0
    theta = result.parameters[0]
    assert result.energy == pytest.approx(math.cos(theta) + math.sin(theta), abs=1e-12)


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
        gradient=lambda t: 2.0 * (t - 2.0),
    )
    assert result.converged
    assert_allclose(result.parameters, 2.0, rtol=0, atol=1e-4)


def test_budget_respected():
    for method in ("nelder_mead", "spsa", "gradient_descent"):
        count = [0]

        def f(t):
            count[0] += 1
            return float(np.sum(t**2))

        def gradient(t):            # charged as 2 * P evaluations
            count[0] += 2 * t.size
            return 2.0 * t

        result = minimize(f, [3.0, -1.0], OptimizerConfig(method=method, budget=50),
                          gradient=gradient)
        assert count[0] <= 50
        assert result.evaluations == count[0]


def test_negative_seed_is_refused():
    for method in ("nelder_mead", "spsa", "gradient_descent"):
        for seed in (-1, 1.5, True, "1"):
            with pytest.raises(UsageError, match="seed"):
                minimize(lambda t: 0.0, [0.0], OptimizerConfig(method=method, seed=seed))


def test_budget_below_one_step_evaluates_theta0():
    # SPSA needs 2 evaluations a step, gradient descent 1 + 2 * P
    def f(t):
        return float(np.sum((t - 1.0) ** 2))

    def gradient(t):
        return 2.0 * (t - 1.0)

    for method, budget in (("spsa", 1), ("gradient_descent", 1), ("gradient_descent", 4)):
        result = minimize(f, [3.0, -1.0], OptimizerConfig(method=method, budget=budget),
                          gradient=gradient)
        assert (result.evaluations, result.value, result.converged) == (1, 8.0, False)
        assert_allclose(result.parameters, [3.0, -1.0], rtol=0, atol=0)
    # a budget that fits the first step takes it, as before
    for method, budget in (("spsa", 2), ("gradient_descent", 5)):
        result = minimize(f, [3.0, -1.0], OptimizerConfig(method=method, budget=budget),
                          gradient=gradient)
        assert result.evaluations == budget


def test_gradient_descent_without_a_gradient_is_refused():
    count = [0]

    def f(t):
        count[0] += 1
        return float(np.sum(t**2))

    with pytest.raises(UsageError, match="gradient"):
        minimize(f, [3.0, -1.0], OptimizerConfig(method="gradient_descent"))
    assert count[0] == 0


@pytest.mark.parametrize("method", ["nelder_mead", "spsa", "gradient_descent"])
@pytest.mark.parametrize("budget", [0, -5, 2.5, True, "9"])
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
    for theta0 in ([0.0], []):      # P = 1 and P = 0
        with pytest.raises(UsageError, match="bfgs"):
            minimize(lambda t: 0.0, theta0, OptimizerConfig(method="bfgs"))


def recorded(objective):
    """objective, and the list of (x, value) it appends each call to."""
    calls = []

    def f(t):
        value = float(objective(np.asarray(t, dtype=float)))
        calls.append((tuple(np.asarray(t, dtype=float).tolist()), value))
        return value

    return f, calls


def nelder_mead_objectives(h2_hamiltonian):
    """Rosenbrock from (-1.2, 1), the 3-parameter H2 UCCSD block energy and
    an 8-parameter HEA depth-1 energy, whose initial simplex has tied
    vertices, each from its start point."""
    def rosen(t):
        return (1 - t[0]) ** 2 + 100.0 * (t[1] - t[0] ** 2) ** 2

    hea = hardware_efficient_ansatz(4, 1, 2)
    return {
        "rosenbrock": (rosen, [-1.2, 1.0]),
        "h2-uccsd": (UCCSDBlock(h2_hamiltonian, uccsd_ansatz(4, 2)).energy, [0.0] * 3),
        "hea-depth-1": (lambda t: expectation(run_circuit(hea.circuit, t), h2_hamiltonian),
                        [0.0] * 8),
    }


@pytest.mark.parametrize("budget", [2000, 37, 3])
@pytest.mark.parametrize("case", ["rosenbrock", "h2-uccsd", "hea-depth-1"])
def test_nelder_mead_iterates_match_scipy(h2_hamiltonian, case, budget):
    # scipy's Nelder-Mead with the same simplex, tolerances and budget is
    # the oracle: every evaluated point and value, bit for bit
    from molq.vqe import NM_FATOL, NM_XATOL

    objective, theta0 = nelder_mead_objectives(h2_hamiltonian)[case]
    n = len(theta0)
    simplex = np.tile(theta0, (n + 1, 1))
    simplex[1:] += 0.1 * np.eye(n)
    f, expected = recorded(objective)
    res = scipy.optimize.minimize(f, theta0, method="Nelder-Mead", options={
        "initial_simplex": simplex, "fatol": NM_FATOL, "xatol": NM_XATOL,
        "maxfev": budget, "maxiter": budget,
    })
    f, seen = recorded(objective)
    result = minimize(f, theta0, OptimizerConfig(method="nelder_mead", budget=budget))
    assert seen == expected
    assert result.evaluations == len(seen) == min(res.nfev, budget)
    assert result.converged == res.success
    assert result.value == min(value for _, value in seen)
    if case == "hea-depth-1":
        vertices = [objective(row) for row in simplex]
        assert len(set(vertices)) < len(vertices)


@pytest.mark.parametrize("method", ["nelder_mead", "spsa", "gradient_descent"])
def test_non_finite_objective_fails_by_evaluation(method):
    config = OptimizerConfig(method=method, budget=200, seed=3)
    # gradient descent charges each gradient 2 * P evaluations, but the
    # message numbers the objective call that returned the value
    gradient = (lambda t: 2.0 * t) if method == "gradient_descent" else None
    with pytest.raises(ComputationError, match=r"objective evaluation 1 returned nan"):
        minimize(lambda t: math.nan, [0.5, -0.3], config, gradient=gradient)
    # a value past the first few is never taken as the best either
    count = [0]

    def f(t):
        count[0] += 1
        return -math.inf if count[0] == 5 else float(np.sum(t**2))

    with pytest.raises(ComputationError, match=r"objective evaluation 5 returned -inf"):
        minimize(f, [0.5, -0.3], config, gradient=gradient)
    assert count[0] == 5


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
