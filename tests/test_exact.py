"""The compiled block operator, dense and Lanczos diagonalization, and
the determinant-basis FCI oracle."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import molq.exact
from molq import (
    Geometry,
    ao_to_mo,
    assign_basis,
    build_ao_integrals,
    build_fermionic_hamiltonian,
    dense_ground_energy,
    fci_determinant_oracle,
    jordan_wigner,
    pauli_matrix,
    scf_solve,
    uccsd_ansatz,
)
from molq.errors import ComputationError, ResourceError, UsageError
from molq.exact import (
    DENSE_MAX_QUBITS,
    _lanczos,
    compile_operator,
    sector_basis,
)
from molq.integrals_io import MOIntegrals
from molq.pauli import _PHASE_VALUES, PauliSum, PauliTerm, is_hermitian
from molq.statevector import expectation, pauli_signs

from conftest import penalty_strength, pipeline, random_mo_integrals, with_number_penalty

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
# compile_operator against the per-flip-mask loop it replaced
# ---------------------------------------------------------------------------


def flip_mask_entries(s, basis):
    """(rows, cols, values) of s over a sorted basis, one pass per
    distinct flip mask x: the strings with that x map column b to row
    b ^ x where that lies in the basis, with value coefficient *
    pauli_phase(b) summed in term order."""
    rows, cols, values = [], [], []
    for x in np.unique(s.x).tolist():
        mine = s.x == x
        targets = basis ^ x
        found = np.minimum(np.searchsorted(basis, targets), len(basis) - 1)
        hit = basis[found] == targets
        z = s.z[mine]
        coefficients = s.coefficients[mine] * _PHASE_VALUES[np.bitwise_count(x & z) & 3]
        rows.append(found[hit])
        cols.append(np.flatnonzero(hit))
        values.append(coefficients @ pauli_signs(basis[hit], z[:, None]))
    return tuple(np.concatenate(column) for column in (rows, cols, values))


def assert_matches_flip_mask_loop(s, basis):
    op = compile_operator(s, basis)
    rows, cols, values = flip_mask_entries(s, basis)
    want, got = np.argsort(rows * len(basis) + cols), np.argsort(op.rows * len(basis) + op.cols)
    assert np.array_equal(op.rows[got], rows[want])
    assert np.array_equal(op.cols[got], cols[want])
    assert np.max(np.abs(op.values[got] - values[want]), initial=0.0) <= 1e-14
    return op


MOLECULES = {  # (atoms, charge), all STO-3G
    "H2": ([("H", (0, 0, 0)), ("H", (0, 0, 0.7354))], 0),
    "H4": ([("H", (0, 0, 0.9 * k)) for k in range(4)], 0),
    "LiH-H2": ([("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 2.6)),
                ("H", (0, 0, 3.34))], 0),
    "HeH+": ([("He", (0, 0, 0)), ("H", (0, 0, 0.9))], 1),
    "H6": ([("H", (0, 0, 0.9 * k)) for k in range(6)], 0),
}


@pytest.fixture(scope="module")
def molecules(sto3g):
    """name -> (qubit Hamiltonian, electron count, HF energy)."""
    out = {}
    for name, (atoms, charge) in MOLECULES.items():
        _, scf, mo = pipeline(Geometry.from_angstrom(atoms, charge=charge), sto3g)
        out[name] = (jordan_wigner(build_fermionic_hamiltonian(mo)), mo.n_electrons, scf.e_hf)
    return out


@pytest.mark.parametrize("name", MOLECULES)
def test_operator_matches_the_flip_mask_loop(molecules, name):
    h, n_electrons, _ = molecules[name]
    full = np.arange(2**h.n_qubits, dtype=np.int64)
    for basis in (full, sector_basis(h.n_qubits, n_electrons)):
        op = assert_matches_flip_mask_loop(h, basis)
        assert op.values.dtype == np.float64  # molecular Hamiltonians are real here


def test_operator_matches_the_flip_mask_loop_on_complex_sums():
    """Random strings with complex coefficients (not Hermitian) and with
    real ones (Hermitian, complex entries where a string has an odd Y
    count), neither number-conserving: the complex path and every flip
    mask run."""
    rng = np.random.default_rng(41)
    for n_qubits in (2, 5, 8):
        masks = rng.integers(0, 2**n_qubits, size=(60, 2))
        coefficients = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        full = np.arange(2**n_qubits, dtype=np.int64)
        for c in (coefficients, coefficients.real):
            s = PauliSum(n_qubits, x=masks[:, 0], z=masks[:, 1], coefficients=c)
            for basis in (full, np.sort(rng.choice(full, 2**n_qubits // 2, replace=False))):
                op = assert_matches_flip_mask_loop(s, basis)
                assert op.values.dtype == np.complex128
                mat = op.dense()
                assert is_hermitian(s) == (c is not coefficients)
                assert is_hermitian(s) == (np.max(np.abs(mat - mat.conj().T)) <= 1e-10)
                psi = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
                assert np.allclose(op.apply(psi), mat @ psi, rtol=0, atol=1e-12)


def test_operator_chunks_whole_flip_mask_groups(molecules, monkeypatch):
    # a chunk of a few terms splits H4 into many runs, never inside a group
    h, n_electrons, _ = molecules["H4"]
    basis = sector_basis(h.n_qubits, n_electrons)
    monkeypatch.setattr(molq.exact, "OPERATOR_CHUNK_ENTRIES", 3 * len(basis))
    assert_matches_flip_mask_loop(h, basis)


def test_operator_guard_refuses_before_building(molecules, monkeypatch):
    h, n_electrons, _ = molecules["H4"]
    basis = sector_basis(h.n_qubits, n_electrons)
    entries = len(compile_operator(h, basis).rows)

    def no_build(*args):
        raise AssertionError("an entry was built before the guard")

    monkeypatch.setattr(molq.exact, "pauli_signs", no_build)
    monkeypatch.setattr(molq.exact, "OPERATOR_MAX_BYTES", 24 * entries - 1)
    with pytest.raises(ResourceError, match=f"{entries} operator entries"):
        compile_operator(h, basis)
    with pytest.raises(ResourceError, match="operator guard"):
        dense_ground_energy(h, n_electrons)


# ---------------------------------------------------------------------------
# the plan cache of compile_operator
# ---------------------------------------------------------------------------


def clear_plans():
    molq.exact._layout.cache_clear()
    molq.exact._plan.cache_clear()


def test_operator_guard_refuses_a_cold_plan_before_building(molecules, monkeypatch):
    h, n_electrons, _ = molecules["H4"]
    basis = sector_basis(h.n_qubits, n_electrons)
    entries = len(compile_operator(h, basis).rows)
    clear_plans()

    def no_build(*args):
        raise AssertionError("an entry was built before the guard")

    monkeypatch.setattr(molq.exact, "pauli_signs", no_build)
    monkeypatch.setattr(molq.exact, "OPERATOR_MAX_BYTES", 24 * entries - 1)
    with pytest.raises(ResourceError, match=f"{entries} operator entries"):
        compile_operator(h, basis)
    assert molq.exact._plan.cache_info().currsize == 0


def assert_same_operator(got, want):
    assert got.dim == want.dim
    for a, b in ((got.rows, want.rows), (got.cols, want.cols), (got.values, want.values)):
        assert a.dtype == b.dtype
        assert_array_equal(a, b)


def operators_of(h, n_electrons):
    """(PauliSum, basis) of h on its sector and the whole space, and of
    the UCCSD generator sum on the sector."""
    sector = sector_basis(h.n_qubits, n_electrons)
    yield h, sector
    yield h, np.arange(2**h.n_qubits, dtype=np.int64)
    yield uccsd_ansatz(h.n_qubits, n_electrons).generators, sector


@pytest.mark.parametrize("name", ["H2", "H4", "LiH-H2", "HeH+"])
def test_warm_operator_is_the_cold_one_byte_for_byte(molecules, name):
    h, n_electrons, _ = molecules[name]
    rng = np.random.default_rng(8)
    for s, basis in operators_of(h, n_electrons):
        clear_plans()
        cold = compile_operator(s, basis)
        assert_same_operator(compile_operator(s, basis), cold)
        # the same strings with other coefficients (another bond length)
        # through the plan the first call built
        other = PauliSum(s.n_qubits, x=s.x, z=s.z,
                         coefficients=s.coefficients * rng.uniform(0.5, 1.5, len(s.x)))
        warm = compile_operator(other, basis)
        assert molq.exact._plan.cache_info()[:2] == (2, 1)   # (hits, misses)
        assert molq.exact._layout.cache_info().misses == 1
        clear_plans()
        assert_same_operator(warm, compile_operator(other, basis))


def test_operator_results_do_not_share_the_cached_plan(molecules):
    h, n_electrons, _ = molecules["H4"]
    basis = sector_basis(h.n_qubits, n_electrons)
    first = compile_operator(h, basis)
    layout = molq.exact._layout(h.x.tobytes(), h.z.tobytes())
    pieces = molq.exact._plan(
        h.x.tobytes(), h.z.tobytes(), basis.tobytes(), molq.exact.OPERATOR_CHUNK_ENTRIES
    )
    cached = [*layout, *(a for piece in pieces for a in piece)]
    assert not any(array.flags.writeable for array in cached)
    for column in (first.rows, first.cols, first.values):
        assert not any(np.shares_memory(column, array) for array in cached)
    want = compile_operator(h, basis)
    first.rows[:] = 0
    first.cols[:] = 0
    first.values[:] = 7.0
    assert_same_operator(compile_operator(h, basis), want)


def test_a_plan_past_the_product_cap_keeps_no_chunks(molecules, monkeypatch):
    h, n_electrons, _ = molecules["H4"]
    basis = sector_basis(h.n_qubits, n_electrons)
    want = compile_operator(h, basis)
    monkeypatch.setattr(molq.exact, "_PLAN_MAX_PRODUCTS", 100)
    clear_plans()
    assert_same_operator(compile_operator(h, basis), want)
    pieces = molq.exact._plan(
        h.x.tobytes(), h.z.tobytes(), basis.tobytes(), molq.exact.OPERATOR_CHUNK_ENTRIES
    )
    assert pieces is None


def test_plan_cache_holds_at_most_its_capacity():
    capacity = molq.exact._PLAN_CAPACITY
    clear_plans()
    basis = np.arange(2**6, dtype=np.int64)
    for n in range(1, 2 * capacity + 2):
        compile_operator(PauliSum(6, x=[n], z=[0], coefficients=[1.0]), basis)
        assert molq.exact._layout.cache_info().currsize == min(n, capacity)
        assert molq.exact._plan.cache_info().currsize == min(n, capacity)


def test_plan_cache_under_concurrent_callers():
    # more operators than the cache holds, so plans are evicted and rebuilt
    # while other threads apply them
    rng = np.random.default_rng(6)
    basis = np.sort(rng.choice(2**8, 120, replace=False)).astype(np.int64)
    sums = []
    for _ in range(2 * molq.exact._PLAN_CAPACITY + 1):
        masks = rng.integers(0, 2**8, size=(40, 2))
        sums.append(PauliSum(8, x=masks[:, 0], z=masks[:, 1],
                             coefficients=rng.standard_normal(40)))
    expected = [flip_mask_entries(s, basis) for s in sums]

    def caller(k):
        for i in range(40):
            j = (k + 3 * i) % len(sums)
            op = compile_operator(sums[j], basis)
            rows, cols, values = expected[j]
            order = np.argsort(op.rows * len(basis) + op.cols)
            want = np.argsort(rows * len(basis) + cols)
            assert np.array_equal(op.rows[order], rows[want])
            assert np.array_equal(op.cols[order], cols[want])
            assert np.max(np.abs(op.values[order] - values[want]), initial=0.0) <= 1e-12

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(caller, k) for k in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert molq.exact._layout.cache_info().currsize <= molq.exact._PLAN_CAPACITY
    assert molq.exact._plan.cache_info().currsize <= molq.exact._PLAN_CAPACITY


# ---------------------------------------------------------------------------
# Lanczos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["H4", "H6"])
def test_lanczos_matches_eigh_on_blocks(molecules, name):
    h, n_electrons, _ = molecules[name]
    op = compile_operator(h, sector_basis(h.n_qubits, n_electrons))
    energy, vector = _lanczos(op.apply, op.dim, op.values.dtype)
    assert energy == pytest.approx(np.linalg.eigvalsh(op.dense())[0], abs=1e-10)
    assert np.linalg.norm(op.apply(vector) - energy * vector) <= 1e-9


def test_lanczos_matches_eigh_on_a_random_symmetric_operator(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((700, 700))
    a = a + a.T
    energy, vector = _lanczos(lambda v: a @ v, 700, np.float64)
    assert energy == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-10)
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
    monkeypatch.setattr(molq.exact, "LANCZOS_MAX_STEPS", 5)
    with pytest.raises(ComputationError, match="did not converge in 5 steps"):
        _lanczos(lambda v: a @ v, 700, np.float64)


def test_h8_block_is_solved_by_lanczos(sto3g):
    """Linear H8 at 0.9 A: 16 qubits, a (4, 4) block of 4 900 states, past
    the dense guard and solved on its operator."""
    geometry = Geometry.from_angstrom([("H", (0, 0, 0.9 * k)) for k in range(8)])
    _, scf, mo = pipeline(geometry, sto3g)
    h = jordan_wigner(build_fermionic_hamiltonian(mo))
    basis = sector_basis(16, 8)
    assert len(basis) == 4900 > 2**DENSE_MAX_QUBITS
    result = dense_ground_energy(h, 8)
    assert_array_equal(result.basis, basis)
    assert result.ground_vector.shape == basis.shape   # on the block, and real
    assert result.ground_vector.dtype == np.float64
    amplitudes = full_space(result, 16)
    v = amplitudes[basis]
    assert np.all(amplitudes[np.setdiff1d(np.arange(2**16), basis)] == 0)
    rows, cols, values = flip_mask_entries(h, basis)
    hv = np.zeros(len(basis), dtype=complex)
    np.add.at(hv, rows, values * v[cols])
    assert np.linalg.norm(hv - result.ground_energy * v) <= 1e-8
    occupation = np.bitwise_count(np.arange(2**16)) @ np.abs(amplitudes) ** 2
    assert occupation == pytest.approx(8.0, abs=1e-10)
    assert result.ground_energy < scf.e_hf


def test_stretched_h8_block_matches_eigvalsh(sto3g):
    """Linear H8 at 2.5 A, where the lowest states of the block crowd
    together (the first gap is under 2 mHa): Lanczos past the dense guard
    still gives eigvalsh's lowest eigenvalue. The SCF does not converge
    there, but the block's spectrum is the same on any orthonormal
    orbitals, so its last iterate serves."""
    geometry = Geometry.from_angstrom([("H", (0, 0, 2.5 * k)) for k in range(8)])
    ao = build_ao_integrals(geometry, assign_basis(geometry, sto3g))
    mo = ao_to_mo(ao, scf_solve(ao).mo_coefficients)
    h = jordan_wigner(build_fermionic_hamiltonian(mo))
    eigenvalues = np.linalg.eigvalsh(compile_operator(h, sector_basis(16, 8)).dense())
    assert eigenvalues[1] - eigenvalues[0] < 2e-3
    assert dense_ground_energy(h, 8).ground_energy == pytest.approx(eigenvalues[0], abs=1e-10)


# ---------------------------------------------------------------------------
# dense_ground_energy
# ---------------------------------------------------------------------------


def full_space(result, n_qubits):
    """A SpectrumResult's ground vector scattered into complex amplitudes
    on all 2^n states, the form run_circuit returns."""
    amplitudes = np.zeros(2**n_qubits, dtype=complex)
    amplitudes[result.basis] = result.ground_vector
    return amplitudes


def test_dense_ground_energy_single_z():
    result = dense_ground_energy(single(1, {0: "Z"}))
    assert result.ground_energy == pytest.approx(-1.0, abs=1e-12)


def test_dense_ground_energy_single_x():
    result = dense_ground_energy(single(1, {0: "X"}))
    assert result.ground_energy == pytest.approx(-1.0, abs=1e-12)


def test_dense_ground_vector_is_eigenvector(h2_hamiltonian):
    result = dense_ground_energy(h2_hamiltonian)
    assert result.ground_vector.shape == (2**h2_hamiltonian.n_qubits,)
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


def test_dense_solves_a_sum_whose_merged_coefficients_are_real():
    s = PauliSum(1, (PauliTerm(1 + 1j, {0: "Z"}), PauliTerm(1 - 1j, {0: "Z"})))
    assert dense_ground_energy(s).ground_energy == pytest.approx(-2.0, abs=1e-12)


def test_dense_refuses_a_non_hermitian_sum_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("a basis state or entry was built before the check")

    monkeypatch.setattr(molq.exact, "pauli_signs", no_build)
    monkeypatch.setattr(molq.exact, "sector_basis", no_build)
    monkeypatch.setattr(molq.exact, "_dense_basis", no_build)
    s = PauliSum(4, (PauliTerm(1.0, {0: "Z"}), PauliTerm(0.5j, {1: "Y", 2: "Z"})))
    for n_electrons in (None, 2):
        with pytest.raises(UsageError, match="not Hermitian"):
            dense_ground_energy(s, n_electrons)


def test_dense_refuses_a_non_hermitian_sum_whose_block_is_hermitian():
    """X_0 moves an alpha electron out of the (1, 1) block, so the block of
    1j X_0 + Z_0 is Z_0's alone (lowest -1.0); the sum is still refused."""
    s = PauliSum(4, (PauliTerm(1j, {0: "X"}), PauliTerm(1.0, {0: "Z"})))
    basis = sector_basis(4, 2)
    block = pauli_matrix(s, basis)
    assert np.allclose(block, block.conj().T)
    with pytest.raises(UsageError, match="not Hermitian"):
        dense_ground_energy(s, 2)


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
    ground = np.flatnonzero(np.abs(full_space(result, n)) > 1e-12)
    assert ground.tolist() == [(1 << 7) | (1 << 15)]
    # A register past the statevector guard is solved on its 13 * 13 block.
    result = dense_ground_energy(single(26, {0: "Z"}), n_electrons=2)
    assert len(result.basis) == 169
    assert result.ground_energy == pytest.approx(-1.0, abs=1e-12)


def test_sector_basis_bounds_the_lanczos_vectors(monkeypatch):
    """A block is refused where min(dim, LANCZOS_MAX_STEPS) float64 Lanczos
    vectors of its dim states pass OPERATOR_MAX_BYTES: 24 qubits with 12
    electrons (853 776 states, 1.91 GiB) is built, 26 qubits with 13
    (2 944 656 states, 6.6 GiB) is refused before a state is enumerated."""
    assert len(sector_basis(24, 12)) == 853_776

    def no_enumeration(*args):
        raise AssertionError("a state was enumerated before the guard")

    monkeypatch.setattr(molq.exact.itertools, "combinations", no_enumeration)
    for call in (sector_basis, lambda n, n_e: dense_ground_energy(single(n, {0: "Z"}), n_e)):
        with pytest.raises(ResourceError, match="2944656-state block's Lanczos vectors"):
            call(26, 13)


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
        amplitudes = full_space(result, 2 * n)
        assert np.linalg.norm(amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert np.all(amplitudes[~_in_sector(2 * n, n_e)] == 0)
        assert expectation(amplitudes, h) == pytest.approx(
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
        amplitudes = full_space(result, 6)
        assert np.all(amplitudes[~_in_sector(6, 3)] == 0)
        assert expectation(amplitudes, h) == pytest.approx(
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
