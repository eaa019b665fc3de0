"""Pauli algebra, the Jordan-Wigner transform, canonicalization,
qubit-wise-commuting grouping, and the text format."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import molq.pauli
import molq.vqe
from molq.cli import main
from molq import (
    ANNIHILATION,
    CREATION,
    FermionOperator,
    FermionTerm,
    Geometry,
    PauliSum,
    PauliTerm,
    ResourceError,
    UsageError,
    build_fermionic_hamiltonian,
    canonicalize,
    freeze_core,
    group_measurement_basis,
    hardware_efficient_ansatz,
    jordan_wigner,
    parse_fcidump,
    pauli_matrix,
    pauli_multiply,
    qwc_group,
    run_circuit,
    sample_expectation,
    serialize_pauli,
    uccsd_ansatz,
    z2_symmetries,
)
from conftest import pipeline

FCIDUMPS = sorted((Path(__file__).resolve().parent.parent / "data" / "fcidump").glob("*.fcidump"))
LIH_FCIDUMP = FCIDUMPS[0].parent / "lih_d1.60.fcidump"

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def term_matrix(term, n):
    """Dense matrix of a PauliTerm with qubit 0 as the least significant bit."""
    out = np.array([[term.coefficient]], dtype=complex)
    for q in range(n):
        out = np.kron(MATS[term.letters.get(q, "I")], out)
    return out


# ------------------------------------------------------------ pauli_multiply
def test_defining_relation_xy():
    out = pauli_multiply(PauliTerm(1.0, {0: "X"}), PauliTerm(1.0, {0: "Y"}))
    assert out.letters == {0: "Z"} and out.coefficient == 1j


def test_involution_zz():
    out = pauli_multiply(PauliTerm(1.0, {0: "Z"}), PauliTerm(1.0, {0: "Z"}))
    assert out.letters == {} and out.coefficient == 1.0


def test_two_qubit_product():
    out = pauli_multiply(
        PauliTerm(1.0, {0: "X", 1: "Y"}), PauliTerm(1.0, {0: "Y", 1: "Y"})
    )
    assert out.letters == {0: "Z"} and out.coefficient == 1j


def test_product_matches_dense_matrices():
    rng = np.random.default_rng(0)
    letters = ["I", "X", "Y", "Z"]
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a = PauliTerm(1.0, {q: letters[rng.integers(1, 4)] for q in range(n) if rng.random() < 0.8})
        b = PauliTerm(1.0, {q: letters[rng.integers(1, 4)] for q in range(n) if rng.random() < 0.8})
        prod = pauli_multiply(a, b)
        assert_allclose(
            term_matrix(prod, n),
            term_matrix(a, n) @ term_matrix(b, n),
            rtol=0,
            atol=1e-14,
        )


def test_associativity_exact():
    rng = np.random.default_rng(11)
    letters = ["I", "X", "Y", "Z"]

    def rand(n):
        return PauliTerm(
            1.0, {q: letters[rng.integers(1, 4)] for q in range(n) if rng.random() < 0.7}
        )

    for _ in range(300):
        n = int(rng.integers(1, 6))
        a, b, c = rand(n), rand(n), rand(n)
        lhs = pauli_multiply(pauli_multiply(a, b), c)
        rhs = pauli_multiply(a, pauli_multiply(b, c))
        assert lhs.letters == rhs.letters and lhs.coefficient == rhs.coefficient


# ------------------------------------------------------------- jordan_wigner
def test_number_operator():
    op = FermionOperator(2, (FermionTerm(1.0, ((0, CREATION), (0, ANNIHILATION))),))
    s = canonicalize(jordan_wigner(op))
    table = {t.pattern_key(): t.coefficient for t in s.terms}
    assert table == {(): 0.5, ((0, "Z"),): -0.5}


def test_single_creation_operator():
    op = FermionOperator(1, (FermionTerm(1.0, ((0, CREATION),)),))
    s = jordan_wigner(op)
    table = {t.pattern_key(): t.coefficient for t in s.terms}
    assert table[((0, "X"),)] == 0.5
    assert table[((0, "Y"),)] == -0.5j


def test_hopping_term():
    op = FermionOperator(
        2,
        (
            FermionTerm(1.0, ((0, CREATION), (1, ANNIHILATION))),
            FermionTerm(1.0, ((1, CREATION), (0, ANNIHILATION))),
        ),
    )
    s = canonicalize(jordan_wigner(op))
    table = {t.pattern_key(): t.coefficient for t in s.terms}
    assert table == {((0, "X"), (1, "X")): 0.5, ((0, "Y"), (1, "Y")): 0.5}


def test_z_chain_between_distant_modes():
    op = FermionOperator(4, (FermionTerm(1.0, ((3, CREATION), (0, ANNIHILATION))),))
    s = canonicalize(jordan_wigner(op))
    for t in s.terms:
        letters = dict(t.pattern_key())
        assert letters.get(1) == "Z" and letters.get(2) == "Z"


def test_jw_matches_dense_anticommutation():
    # {a_p, a^dag_q} = delta_pq as 3-mode dense matrices
    n = 3
    for p in range(n):
        for q in range(n):
            ap = FermionOperator(n, (FermionTerm(1.0, ((p, ANNIHILATION),)),))
            aqd = FermionOperator(n, (FermionTerm(1.0, ((q, CREATION),)),))
            mp = sum(term_matrix(t, n) for t in jordan_wigner(ap).terms)
            mq = sum(term_matrix(t, n) for t in jordan_wigner(aqd).terms)
            anti = mp @ mq + mq @ mp
            expected = np.eye(2**n) if p == q else np.zeros((2**n, 2**n))
            assert_allclose(anti, expected, rtol=0, atol=1e-14)


def test_hermitian_input_gives_real_coefficients(h2_equilibrium):
    _, _, mo = h2_equilibrium
    s = jordan_wigner(build_fermionic_hamiltonian(mo))
    for t in s.terms:
        assert t.coefficient.imag == 0.0


def test_constant_becomes_identity_term():
    op = FermionOperator(2, (), constant=0.25)
    s = jordan_wigner(op)
    assert len(s.terms) == 1
    assert s.terms[0].letters == {} and s.terms[0].coefficient == 0.25


def test_jw_rejects_more_modes_than_the_qubit_guard():
    op = FermionOperator(25, (FermionTerm(1.0, ((24, CREATION), (0, ANNIHILATION))),))
    with pytest.raises(ResourceError, match="25 modes"):
        jordan_wigner(op)
    with pytest.raises(ResourceError, match="25 qubits"):
        canonicalize(PauliSum(25, (PauliTerm(1.0, {24: "X"}),)))
    # the largest accepted register still maps, with its top qubit intact
    edge = jordan_wigner(FermionOperator(24, (FermionTerm(1.0, ((23, CREATION),)),)))
    assert all(t.letters[23] in "XY" and len(t.letters) == 24 for t in edge.terms)


@pytest.mark.parametrize("letters, match", [
    ({0: "W"}, "bad Pauli letter 'W' on qubit 0"),
    ({-1: "X"}, "negative qubit index -1"),
], ids=["letter", "qubit"])
def test_term_refuses_a_bad_letter_or_qubit(letters, match):
    with pytest.raises(UsageError, match=match):
        PauliTerm(1.0, letters)


def test_sum_validation_and_columns():
    with pytest.raises(UsageError):  # a mask outside the register, from terms
        PauliSum(2, (PauliTerm(1.0, {2: "X"}),))
    with pytest.raises(UsageError):  # ... past the int64 masks
        PauliSum(2, (PauliTerm(1.0, {70: "X"}),))
    for x in (4, -1):  # ... and from columns
        with pytest.raises(UsageError):
            PauliSum(2, x=[x], z=[0], coefficients=[1.0])
    with pytest.raises(UsageError):
        PauliSum(2, x=[1, 2], z=[0], coefficients=[1.0, 1.0])
    with pytest.raises(ResourceError, match="63 qubits"):
        PauliSum(63)
    assert PauliSum(62).n_qubits == 62
    s = PauliSum(2, x=[1, 0], z=[2, 3], coefficients=[0.5, -1.0])
    assert s.coefficients.dtype == np.float64
    assert [(t.letters, t.coefficient) for t in s.terms] == [
        ({0: "X", 1: "Z"}, 0.5), ({0: "Z", 1: "Z"}, -1.0)
    ]
    assert PauliSum(1, (PauliTerm(1.0), PauliTerm(2j, {0: "Y"}))).coefficients.dtype == complex
    s.terms[0].coefficient = 7.0  # terms is a fresh view: the sum is unchanged
    assert s.terms[0].coefficient == 0.5 and s.coefficients[0] == 0.5


def reference_jordan_wigner(op):
    """The scalar transform: a pauli_multiply fold per term, then a dict merge."""
    terms = [PauliTerm(complex(op.constant))] if op.constant != 0.0 else []
    for fterm in op.terms:
        partial = [PauliTerm(complex(fterm.coefficient))]
        for mode, kind in fterm.factors:
            bit, chain, sign = 1 << mode, (1 << mode) - 1, -0.5j if kind == CREATION else 0.5j
            ladder = [PauliTerm(0.5, x=bit, z=chain), PauliTerm(sign, x=bit, z=chain | bit)]
            partial = [pauli_multiply(p, e) for p in partial for e in ladder]
        terms.extend(partial)
    merged = {}
    for t in terms:
        merged[t.x, t.z] = merged.get((t.x, t.z), 0.0) + t.coefficient
    kept = [PauliTerm(c, x=x, z=z) for (x, z), c in merged.items() if abs(c) >= 1e-12]
    kept.sort(key=lambda t: (t.weight, t.pattern(op.n_modes)))
    if all(abs(t.coefficient.imag) <= 1e-12 for t in kept):
        for t in kept:
            t.coefficient = t.coefficient.real
    return PauliSum(op.n_modes, kept)


def assert_jw_byte_identical(op, warm_with=None):
    """jordan_wigner(op) is the scalar fold's byte for byte: cold, from an
    empty map cache, and, given warm_with (another coefficient column on
    op's factor table), again through the map that warm_with's call built."""
    expected = serialize_pauli(reference_jordan_wigner(op))
    molq.pauli._jw_map.cache_clear()
    assert serialize_pauli(jordan_wigner(op)) == expected
    if warm_with is not None:
        molq.pauli._jw_map.cache_clear()
        warm = serialize_pauli(reference_jordan_wigner(warm_with))
        assert serialize_pauli(jordan_wigner(warm_with)) == warm
        assert serialize_pauli(jordan_wigner(op)) == expected
        hits, misses, _, _ = molq.pauli._jw_map.cache_info()
        assert hits == misses <= 1  # op's call built no map of its own


def test_jw_byte_identical_on_molecules(sto3g, h2_equilibrium):
    # each molecule cold, then warm after the same molecule at another
    # bond length, whose operator has the same factor table
    def hamiltonian(atoms, charge=0):
        _, _, mo = pipeline(Geometry.from_angstrom(atoms, charge=charge), sto3g)
        return build_fermionic_hamiltonian(mo)

    assert_jw_byte_identical(build_fermionic_hamiltonian(h2_equilibrium[2]),
                             warm_with=hamiltonian([("H", (0, 0, 0)), ("H", (0, 0, 1.4))]))
    for atoms, charge, stretched in (
        ([("H", (0, 0, 0.9 * k)) for k in range(4)], 0,
         [("H", (0, 0, 1.2 * k)) for k in range(4)]),
        ([("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 2.6)), ("H", (0, 0, 3.34))], 0,
         [("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 4.6)), ("H", (0, 0, 5.34))]),
        ([("He", (0, 0, 0)), ("H", (0, 0, 0.9))], 1, [("He", (0, 0, 0)), ("H", (0, 0, 1.5))]),
    ):
        assert_jw_byte_identical(hamiltonian(atoms, charge),
                                 warm_with=hamiltonian(stretched, charge))


@pytest.mark.parametrize("path", FCIDUMPS, ids=lambda p: p.stem)
def test_jw_byte_identical_on_lih_fcidumps(path):
    mo = parse_fcidump(path.read_text())
    assert_jw_byte_identical(build_fermionic_hamiltonian(mo))
    assert_jw_byte_identical(build_fermionic_hamiltonian(freeze_core(mo, 1)))


def test_jw_byte_identical_on_uccsd_generators(monkeypatch):
    seen = []

    def recording(op):
        seen.append(op)
        return jordan_wigner(op)

    monkeypatch.setattr(molq.vqe, "jordan_wigner", recording)
    columns = np.random.default_rng(5)
    for qubits, electrons in ((8, 4), (12, 6)):
        seen.clear()
        uccsd_ansatz(qubits, electrons)
        assert len(seen) == 1  # every slot's T_k and T_k^dagger rows in one operator
        op = seen[0]
        other = columns.standard_normal(len(op.coefficients))
        assert_jw_byte_identical(
            op, warm_with=FermionOperator(qubits, factors=op.factors, coefficients=other)
        )


def test_jw_byte_identical_on_random_operators():
    # mixed factor counts, out-of-order and repeated modes, complex
    # non-Hermitian coefficients whose imaginary parts survive; each table
    # also warm, through a second coefficient column drawn from `columns`
    rng, columns = np.random.default_rng(7), np.random.default_rng(8)
    kept_complex = 0
    for _ in range(40):
        n = int(rng.integers(1, 7))
        terms = tuple(
            FermionTerm(
                complex(rng.standard_normal(), rng.standard_normal() * (rng.random() < 0.7)),
                tuple(
                    (int(rng.integers(0, n)), CREATION if rng.random() < 0.5 else ANNIHILATION)
                    for _ in range(rng.integers(0, 5))
                ),
            )
            for _ in range(rng.integers(0, 12))
        )
        op = FermionOperator(n, terms, constant=float(rng.standard_normal()) * (rng.random() < 0.5))
        other = columns.standard_normal((len(terms), 2)) @ [1, 1j]
        assert_jw_byte_identical(op, warm_with=FermionOperator(
            n, factors=op.factors, coefficients=other, constant=2 * op.constant
        ))
        kept_complex += any(isinstance(t.coefficient, complex) for t in jordan_wigner(op).terms)
    assert kept_complex > 0

    # real or complex columns with zero entries, with and without a constant
    rng = np.random.default_rng(9)
    for _ in range(60):
        n, rows, width = (int(k) for k in rng.integers(1, (7, 16, 6)))
        factors = np.full((rows, width), -1)
        for row, count in enumerate(rng.integers(0, width + 1, rows)):
            factors[row, :count] = rng.integers(0, 2 * n, count)
        is_complex = rng.random() < 0.5
        constant = float(rng.standard_normal()) * (rng.random() < 0.5)

        def column():
            c = rng.standard_normal(rows) + 1j * rng.standard_normal(rows) * is_complex
            c[rng.random(rows) < 0.3] = 0.0
            return c if is_complex else c.real

        op = FermionOperator(n, factors=factors, coefficients=column(), constant=constant)
        assert_jw_byte_identical(op, warm_with=FermionOperator(
            n, factors=factors, coefficients=column(), constant=3 * constant
        ))


def test_jw_refuses_non_finite_coefficients():
    for coefficient, constant in (
        (np.inf, 0.0), (-np.inf, 0.5), (np.nan, 0.0), (complex(1.0, np.inf), 0.0),
        (1.0, np.inf), (1.0, np.nan),
    ):
        op = FermionOperator(2, factors=[[0, 3]], coefficients=[coefficient], constant=constant)
        with pytest.raises(UsageError, match="non-finite"):
            jordan_wigner(op)


def test_jw_results_do_not_share_the_cached_map():
    op = build_fermionic_hamiltonian(freeze_core(parse_fcidump(LIH_FCIDUMP.read_text()), 1))
    first = jordan_wigner(op)
    text = serialize_pauli(first)
    first.x[:] = 0
    first.z[:] = 1
    first.coefficients[:] = 7.0
    assert serialize_pauli(jordan_wigner(op)) == text
    table = (op.n_modes, op.factors.shape, op.factors.tobytes(), True)
    assert not any(column.flags.writeable for column in molq.pauli._jw_map(*table))


def test_jw_map_cache_holds_at_most_its_capacity():
    capacity = molq.pauli._JW_MAP_CAPACITY
    molq.pauli._jw_map.cache_clear()
    for n in range(1, 2 * capacity + 2):
        jordan_wigner(FermionOperator(n, factors=[[2 * n - 2, 2 * n - 1]], coefficients=[1.0]))
        assert molq.pauli._jw_map.cache_info().currsize == min(n, capacity)


def test_jw_map_cache_under_concurrent_callers():
    # more tables than the cache holds, so maps are evicted and rebuilt
    # while other threads apply them
    rng = np.random.default_rng(4)
    ops = []
    for _ in range(2 * molq.pauli._JW_MAP_CAPACITY + 1):
        factors = rng.integers(0, 12, (30, 4))
        ops.append(FermionOperator(6, factors=factors, coefficients=rng.standard_normal(30)))
    expected = [serialize_pauli(reference_jordan_wigner(op)) for op in ops]

    def caller(k):
        for i in range(40):
            j = (k + 3 * i) % len(ops)
            assert serialize_pauli(jordan_wigner(ops[j])) == expected[j]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(caller, k) for k in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert molq.pauli._jw_map.cache_info().currsize <= molq.pauli._JW_MAP_CAPACITY


def jw_table(op):
    """The arguments of op's `_jw_map`: its cache key."""
    return op.n_modes, op.factors.shape, op.factors.tobytes(), bool(op.constant != 0.0)


def chain_operator(sto3g, atoms):
    """The FermionOperator of an H or LiH...H2 chain / STO-3G."""
    return build_fermionic_hamiltonian(pipeline(Geometry.from_angstrom(atoms), sto3g)[2])


def h_chain(n_atoms):
    return [("H", (0, 0, 0.9 * k)) for k in range(n_atoms)]


LIH_H2 = [("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 2.6)), ("H", (0, 0, 3.34))]


def test_jw_map_built_one_row_at_a_time_is_the_same(sto3g, monkeypatch):
    """Each factor count's rows are expanded in chunks of
    _JW_CHUNK_STRINGS strings; one row per chunk gives the same five
    arrays byte for byte. Rows of 2 and 4 factors in turn place their
    strings by row, not by factor count."""
    seen = []
    monkeypatch.setattr(molq.vqe, "jordan_wigner", lambda op: seen.append(op) or jordan_wigner(op))
    uccsd_ansatz(12, 6)
    turns = np.array([[0, 3, -1, -1], [1, 2, 5, 6], [2, 5, -1, -1], [7, 0, 4, 3],
                      [6, 6, -1, -1], [5, 1, 1, 2], [4, 3, -1, -1]])
    tables = [jw_table(chain_operator(sto3g, h_chain(4))), jw_table(chain_operator(sto3g, LIH_H2)),
              jw_table(seen[0]), (4, turns.shape, turns.tobytes(), True)]
    build = molq.pauli._jw_map.__wrapped__   # uncached
    maps = [build(*table) for table in tables]
    monkeypatch.setattr(molq.pauli, "_JW_CHUNK_STRINGS", 1)
    for table, expected in zip(tables, maps):
        got = build(*table)
        assert [(c.dtype, c.tobytes()) for c in got] == [(c.dtype, c.tobytes()) for c in expected]

    repeats, scales, inverse, x, z = maps[-1]
    rows = np.vstack([np.full(4, -1), turns])   # the constant row first
    for row, start in zip(rows, np.cumsum(repeats) - repeats):
        count = int((row >= 0).sum())
        ex, ez, ec = molq.pauli._expand(row[None, :count], np.ones(1))
        strings = inverse[start:start + 2**count]
        assert (x[strings] == ex).all() and (z[strings] == ez).all()
        assert (scales[start:start + 2**count] == ec).all()


@pytest.mark.parametrize("n_atoms", [6, 8])
def test_jw_map_build_peak_is_at_most_three_maps(sto3g, n_atoms):
    """A cold build's traced peak stays within 3x the map it keeps: no
    step holds the whole expansion beside the map."""
    table = jw_table(chain_operator(sto3g, h_chain(n_atoms)))
    molq.pauli._jw_map.cache_clear()
    tracemalloc.start()
    try:
        columns = molq.pauli._jw_map(*table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(column.nbytes for column in columns)


# ------------------------------------------------------------- canonicalize
def test_merge_duplicates():
    s = canonicalize(PauliSum(1, (PauliTerm(1.0, {0: "X"}), PauliTerm(1.0, {0: "X"}))))
    assert len(s.terms) == 1 and s.terms[0].coefficient == 2.0


def test_cancellation_drops_term():
    s = canonicalize(PauliSum(1, (PauliTerm(1.0, {0: "X"}), PauliTerm(-1.0, {0: "X"}))))
    assert not s.terms


def test_idempotent_on_random_sums():
    rng = np.random.default_rng(3)
    letters = ["I", "X", "Y", "Z"]
    for _ in range(20):
        n = int(rng.integers(1, 4))
        terms = tuple(
            PauliTerm(
                complex(rng.standard_normal(), rng.standard_normal()),
                {q: letters[rng.integers(1, 4)] for q in range(n) if rng.random() < 0.6},
            )
            for _ in range(rng.integers(1, 8))
        )
        once = canonicalize(PauliSum(n, terms))
        twice = canonicalize(once)
        assert [(t.pattern_key(), t.coefficient) for t in once.terms] == [
            (t.pattern_key(), t.coefficient) for t in twice.terms
        ]



def lexsort_merge_plan(n_qubits, keys):
    """_merge_plan's order by n_qubits + 1 lexsort keys: the weight, then
    each qubit's letter rank (I < X < Y < Z), qubit 0 first."""
    keys, inverse = np.unique(keys, return_inverse=True)
    x, z = keys >> 32, keys & 0xFFFFFFFF
    qubits = np.arange(n_qubits)
    codes = np.array([0, 1, 3, 2])[(x[:, None] >> qubits & 1) + 2 * (z[:, None] >> qubits & 1)]
    order = np.lexsort((*codes.T[::-1], np.bitwise_count(x | z)))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return x[order], z[order], rank[inverse]


@pytest.mark.parametrize("n_qubits", [1, 4, 10, 16, 24])
def test_merge_plan_is_the_lexsort_order(n_qubits):
    rng = np.random.default_rng(n_qubits)
    full = 2**n_qubits - 1
    x = np.append(rng.integers(0, full + 1, 20_000), [0, full, full, 0])
    z = np.append(rng.integers(0, full + 1, 20_000), [0, full, 0, full])
    keys = x << 32 | z
    got = molq.pauli._merge_plan(n_qubits, keys)
    for column, expected in zip(got, lexsort_merge_plan(n_qubits, keys)):
        assert (column == expected).all()


def test_merge_plan_peak_does_not_grow_with_the_register():
    """The sort key is one int64 per distinct string, built one qubit at a
    time: no (strings, qubits) array is held."""
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**24, 20_000) << 32 | rng.integers(0, 2**24, 20_000)
    tracemalloc.start()
    try:
        molq.pauli._merge_plan(24, keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * keys.nbytes


# ------------------------------------------------------------- is_hermitian
@pytest.mark.parametrize("kind", ["real", "complex", "merged-real"])
def test_is_hermitian_is_the_dense_matrix_rule(kind):
    """On the full space, a sum passes exactly when its matrix equals its
    conjugate transpose: real columns, complex ones, and complex ones whose
    repeated strings sum to real coefficients."""
    rng = np.random.default_rng(12)
    for n_qubits in (1, 2, 4):
        for _ in range(10):
            masks = rng.integers(0, 2**n_qubits, size=(int(rng.integers(1, 12)), 2))
            c = rng.standard_normal(len(masks))
            if kind != "real":
                c = c + 1j * rng.standard_normal(len(masks))
            if kind == "merged-real":   # each string again, its imaginary part cancelled
                masks = np.concatenate([masks, masks])
                c = np.concatenate([c, rng.standard_normal(len(c)) - 1j * c.imag])
                order = rng.permutation(len(c))
                masks, c = masks[order], c[order]
            s = PauliSum(n_qubits, x=masks[:, 0], z=masks[:, 1], coefficients=c)
            mat = pauli_matrix(s)
            assert molq.pauli.is_hermitian(s) == np.allclose(mat, mat.conj().T, rtol=0, atol=1e-10)
            assert molq.pauli.is_hermitian(s) == (kind != "complex")


def test_is_hermitian_merges_past_the_canonical_register():
    s = PauliSum(40, (PauliTerm(1 + 1j, {39: "Z"}), PauliTerm(1 - 1j, {39: "Z"})))
    assert molq.pauli.is_hermitian(s)
    s = PauliSum(40, s.terms + [PauliTerm(1j, {39: "X"})])
    assert not molq.pauli.is_hermitian(s)


# ------------------------------------------------------------ z2_symmetries
def span(masks) -> set:
    """Every XOR of a subset of masks."""
    found = {0}
    for mask in masks:
        found |= {m ^ mask for m in found}
    return found


def commuting_z_masks(s) -> set:
    """By brute force: every Z mask with even overlap with each flip mask."""
    return {m for m in range(2**s.n_qubits)
            if not np.any(np.bitwise_count(s.x & m) & 1)}


def test_z2_symmetries_are_the_commuting_z_masks_on_random_sums():
    rng = np.random.default_rng(41)
    for n_qubits in (1, 3, 6):
        for n_terms in (0, 1, 3, 8):
            masks = rng.integers(0, 2**n_qubits, size=(n_terms, 2))
            s = PauliSum(n_qubits, x=masks[:, 0], z=masks[:, 1], coefficients=np.ones(n_terms))
            found = z2_symmetries(s)
            assert len(span(found)) == 2 ** len(found)   # independent
            assert span(found) == commuting_z_masks(s)


@pytest.mark.parametrize("n_atoms", [2, 4, 6])
def test_z2_symmetries_of_hydrogen_chains(hydrogen_chain, n_atoms):
    """Alpha parity, beta parity and the inversion of the chain: each mask
    commutes with every term, and a term that breaks one removes it."""
    h = hydrogen_chain(n_atoms, 0.9)
    found = z2_symmetries(h)
    n = h.n_qubits // 2
    assert len(found) == 3
    assert {(1 << n) - 1, ((1 << n) - 1) << n} <= span(found)
    for mask in found:
        parity = PauliTerm(1.0, x=0, z=mask)
        for term in h.terms:
            assert pauli_multiply(term, parity).coefficient == pauli_multiply(parity, term).coefficient
    for flip in (1, 1 << n | 1, 2**h.n_qubits - 1, 0b11):
        broken = PauliSum(h.n_qubits, h.terms + [PauliTerm(1e-6, x=flip, z=0)])
        assert span(z2_symmetries(broken)) == {
            m for m in span(found) if not (m & flip).bit_count() & 1}


def test_z2_symmetries_of_parity_only_molecules(sto3g, lih_h2_hamiltonian):
    """HeH+, LiH...H2 and frozen-core LiH conserve only the alpha and beta
    electron-number parities."""
    heh = pipeline(Geometry.from_angstrom([("He", (0, 0, 0)), ("H", (0, 0, 0.9))], charge=1),
                   sto3g)[2]
    lih = freeze_core(parse_fcidump(LIH_FCIDUMP.read_text()), 1)
    for h in (lih_h2_hamiltonian, *(jordan_wigner(build_fermionic_hamiltonian(mo))
                                    for mo in (heh, lih))):
        n = h.n_qubits // 2
        assert span(z2_symmetries(h)) == span([(1 << n) - 1, ((1 << n) - 1) << n])


# ---------------------------------------------------------------- qwc_group
def test_conflicting_terms_split():
    z0 = PauliTerm(1.0, {0: "Z"})
    z0z1 = PauliTerm(1.0, {0: "Z", 1: "Z"})
    x0 = PauliTerm(1.0, {0: "X"})
    groups = qwc_group(PauliSum(2, (z0, z0z1, x0)))
    assert len(groups) == 2
    assert {t.pattern_key() for t in groups[0].terms} == {z0.pattern_key(), z0z1.pattern_key()}
    assert {t.pattern_key() for t in groups[1].terms} == {x0.pattern_key()}


def test_identical_terms_one_group():
    terms = tuple(PauliTerm(float(k + 1), {0: "Y", 2: "Y"}) for k in range(4))
    groups = qwc_group(PauliSum(3, terms))
    assert len(groups) == 1 and len(groups[0].coefficients) == 4


def test_h2_hamiltonian_group_count(h2_hamiltonian):
    groups = qwc_group(h2_hamiltonian)
    assert len(groups) <= 5
    assert sum(len(g.coefficients) for g in groups) == len(h2_hamiltonian.terms)


def test_group_measurement_basis_unions_letters():
    g = PauliSum(2, (PauliTerm(1.0, {0: "Z"}), PauliTerm(1.0, {0: "Z", 1: "X"})))
    assert group_measurement_basis(g) == {0: "Z", 1: "X"}


def reference_qwc_group(s):
    """The object-based grouping: each term is tested against a PauliTerm
    holding its group's union masks, first fit."""
    groups, bases = [], []
    for term in s.terms:
        for group, basis in zip(groups, bases):
            if ((basis.x ^ term.x) | (basis.z ^ term.z)) & (basis.x | basis.z) & (term.x | term.z) == 0:
                group.append(term)
                basis.x |= term.x
                basis.z |= term.z
                break
        else:
            groups.append([term])
            bases.append(PauliTerm(1.0, x=term.x, z=term.z))
    return groups


def assert_same_partition(s):
    groups = qwc_group(s)
    assert all(g.n_qubits == s.n_qubits for g in groups)
    assert [[(t.x, t.z, t.coefficient) for t in g.terms] for g in groups] == [
        [(t.x, t.z, t.coefficient) for t in g] for g in reference_qwc_group(s)
    ]
    for g in groups:
        letters = {}
        for t in g.terms:
            letters.update(t.letters)
        assert group_measurement_basis(g) == dict(sorted(letters.items()))
    return groups


def test_qwc_group_matches_the_object_grouping(sto3g, h2_hamiltonian, lih_h2_hamiltonian):
    h4 = pipeline(Geometry.from_angstrom([("H", (0, 0, 0.9 * k)) for k in range(4)]), sto3g)[2]
    for s, n_groups in (
        (h2_hamiltonian, 5),
        (jordan_wigner(build_fermionic_hamiltonian(h4)), None),
        (lih_h2_hamiltonian, 194),
    ):
        groups = assert_same_partition(s)
        assert n_groups is None or len(groups) == n_groups


def test_qwc_group_matches_the_object_grouping_on_random_sums():
    # random masks are mostly Y-bearing; every third row comes back as a duplicate
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        masks = rng.integers(0, 2**n, size=(int(rng.integers(0, 30)), 2))
        masks = rng.permutation(np.concatenate([masks, masks[::3]]))
        coefficients = rng.standard_normal(len(masks))
        if rng.random() < 0.5:
            coefficients = coefficients + 1j * rng.standard_normal(len(masks))
        assert_same_partition(PauliSum(n, x=masks[:, 0], z=masks[:, 1], coefficients=coefficients))
    with pytest.raises(UsageError, match="qubit-wise commute"):
        group_measurement_basis(PauliSum(1, x=[1, 0], z=[0, 1], coefficients=[1.0, 1.0]))
    assert qwc_group(PauliSum(2)) == [] and group_measurement_basis(PauliSum(2)) == {}


def test_grouping_sampling_and_parsing_build_no_pauli_terms(h2_hamiltonian, monkeypatch, capsys):
    psi = run_circuit(hardware_efficient_ansatz(4, 1).circuit, np.linspace(0.3, 1.1, 8))
    built = []
    init = PauliTerm.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PauliTerm, "__init__", counting)
    for group in qwc_group(h2_hamiltonian):
        group_measurement_basis(group)
    sample_expectation(psi, h2_hamiltonian, shots=100, seed=0)
    assert main(["ham", "--fcidump", str(LIH_FCIDUMP), "--pauli"]) == 0
    assert capsys.readouterr().out
    assert built == []
    PauliSum(1, (PauliTerm(1.0),)).terms  # the counter does see a construction
    assert len(built) == 2


# --------------------------------------------------------------- text format
def test_serialize_pattern_orientation():
    # qubit 0 is printed leftmost
    s = PauliSum(3, (PauliTerm(1.0, {0: "X"}),))
    line = serialize_pauli(s).strip()
    assert line.split()[1] == "XII"


def test_serialize_pauli_mask_edges():
    top = PauliSum(62, x=[1 << 61, 1], z=[1 << 61, 2**62 - 2], coefficients=[0.5, -1.0])
    assert serialize_pauli(top) == "0.5 " + "I" * 61 + "Y\n-1.0 X" + "Z" * 61 + "\n"
    assert serialize_pauli(PauliSum(0)) == serialize_pauli(PauliSum(5)) == ""
