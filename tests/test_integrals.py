"""Gaussian s-orbital integrals: Boys function, the four integral classes,
geometry handling, and basis parsing."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special

from molq import (
    BOHR_PER_ANGSTROM,
    Atom,
    Geometry,
    GeometryError,
    ParseError,
    UsageError,
    assign_basis,
    boys_f0,
    build_ao_integrals,
    load_basis,
    nuclear_repulsion,
    parse_basis,
    parse_geometry,
)
import molq.integrals
from molq.integrals import _primitive_pairs, pair_index
from conftest import h2_geometry_bohr, pipeline


# ---------------------------------------------------------------- boys_f0
def test_boys_at_zero_is_one():
    assert boys_f0(0.0) == 1.0


def test_boys_large_argument_closed_form():
    # (1/2) sqrt(pi/100) with erf(10) = 1
    assert abs(boys_f0(100.0) - 0.0886227) <= 1e-7


def test_boys_at_one():
    # (1/2) sqrt(pi) erf(1)
    assert abs(boys_f0(1.0) - 0.746824) <= 1e-6


def test_boys_series_closed_form_agree_at_crossover():
    # the series/erf switch must be seamless around the cutoff
    for x in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
        series = sum((-x) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(8))
        assert abs(boys_f0(x) - series) < 1e-14


def test_boys_array_matches_scalar_calls():
    def scalar(x):  # the two branches written with math on one float
        if x <= 1e-6:
            return 1.0 - x / 3.0 + x * x / 10.0 - x * x * x / 42.0
        return 0.5 * math.sqrt(math.pi / x) * float(special.erf(math.sqrt(x)))

    xs = np.array([0.0, 1e-8, 1e-7, np.nextafter(1e-6, 0.0), 1e-6, np.nextafter(1e-6, 1.0),
                   1.0000001e-6, 1e-5, 1e-4, 0.5, 36.0, 40.0])
    out = boys_f0(xs)
    assert out.shape == xs.shape
    assert [float(v) for v in out] == [boys_f0(float(x)) for x in xs]
    assert [float(v) for v in out] == [scalar(float(x)) for x in xs]
    assert boys_f0(xs.reshape(3, 4)).shape == (3, 4)


def test_erf_matches_scipy_erf():
    # the numpy port of Cephes' erf against scipy's build of the same code:
    # equal bit for bit where no exp is taken (s <= 1, and s >= 6, which is
    # 1.0), within 1 ulp in between, where np.exp may round differently
    # from libm's exp. A dense grid, the branch edges 1 and 6 with their
    # float neighbours, s around the series cutoff of boys_f0, and s far
    # past 6, where the erfc quotient would overflow.
    cutoff = molq.integrals._BOYS_SERIES_CUTOFF
    edges = [np.nextafter(e, e + d) for e in (1.0, 6.0) for d in (-1.0, 0.0, 1.0)]
    near_cutoff = np.sqrt([np.nextafter(cutoff, 0.0), cutoff, np.nextafter(cutoff, 1.0)])
    far = [10.0, 27.0, 1e3, 1e150, np.finfo(float).max]
    s = np.concatenate([np.linspace(0.0, 8.0, 400_001), edges, near_cutoff, far])
    got, want = molq.integrals._erf(s), special.erf(s)
    exact = (s <= 1.0) | (s >= 6.0)
    differ = got != want
    assert not differ[exact].any(), (
        f"{np.count_nonzero(differ[exact])} of {np.count_nonzero(exact)} values "
        "with s <= 1 or s >= 6 differ from scipy")
    ulps = np.abs(got - want)[~exact] / np.spacing(want[~exact])
    assert (ulps <= 1.0).all(), (
        f"{np.count_nonzero(ulps > 1.0)} of {ulps.size} values with 1 < s < 6 differ "
        f"from scipy by more than 1 ulp (up to {ulps.max():.0f}); "
        f"{np.count_nonzero(differ[~exact])} differ at all")


@pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
def test_boys_rejects_bad_argument_inside_array(bad):
    with pytest.raises(UsageError):
        boys_f0(bad)
    with pytest.raises(UsageError):
        boys_f0(np.array([0.0, 2.0, bad]))


def test_boys_monotone_decreasing():
    xs = np.linspace(0.0, 30.0, 400)
    vals = [boys_f0(x) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------- nuclear_repulsion
def test_nuclear_repulsion_single_atom_zero():
    geom = Geometry((Atom("H", 1, (0.0, 0.0, 0.0)),))
    assert nuclear_repulsion(geom) == 0.0


def test_nuclear_repulsion_two_protons_unit_distance():
    geom = h2_geometry_bohr(1.0)
    assert nuclear_repulsion(geom) == 1.0


def test_nuclear_repulsion_h2_equilibrium():
    geom = Geometry.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.7354))])
    e_nn = nuclear_repulsion(geom)
    # 1 / (0.7354 * 1.8897259886) evaluated by hand
    assert_allclose(e_nn, 1.0 / (0.7354 * BOHR_PER_ANGSTROM), rtol=0, atol=1e-14)
    assert_allclose(e_nn, 0.7195774394806879, rtol=0, atol=1e-12)


def test_nuclear_repulsion_coincident_nuclei_rejected():
    geom = Geometry((Atom("H", 1, (0.0, 0.0, 0.0)), Atom("H", 1, (0.0, 0.0, 0.0))))
    with pytest.raises(GeometryError):
        nuclear_repulsion(geom)


# ----------------------------------------------------- build_ao_integrals
def test_overlap_diagonal_is_one(sto3g):
    geom = Geometry.from_angstrom([("H", (0, 0, 0)), ("He", (0, 0, 0.9))])
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    assert_allclose(np.diag(ao.overlap), 1.0, rtol=0, atol=1e-10)


def test_h2_offdiagonal_overlap(sto3g):
    geom = h2_geometry_bohr(1.4)
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    assert abs(ao.overlap[0, 1] - 0.659) <= 0.002
    assert_allclose(ao.overlap[0, 1], 0.6593182058047429, rtol=0, atol=1e-12)


def test_h2_on_site_repulsion(sto3g):
    geom = h2_geometry_bohr(1.4)
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    assert abs(ao.eri[0, 0, 0, 0] - 0.7746) <= 0.001
    assert_allclose(ao.eri[0, 0, 0, 0], 0.7746059442114875, rtol=0, atol=1e-12)


def test_eri_eightfold_symmetry_exact(sto3g):
    geom = Geometry.from_angstrom([("H", (0, 0, 0)), ("He", (0.1, -0.2, 0.8))])
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    g = ao.eri
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
        assert np.array_equal(g, g.transpose(perm))


def test_matrices_symmetric(sto3g):
    geom = Geometry.from_angstrom([("H", (0, 0, 0)), ("He", (0, 0.3, 0.7))])
    ao = build_ao_integrals(geom, assign_basis(geom, sto3g))
    assert np.array_equal(ao.overlap, ao.overlap.T)
    assert np.array_equal(ao.core_hamiltonian, ao.core_hamiltonian.T)


def test_kinetic_positive_definite_via_core_limit(sto3g):
    # far-separated protons: core = T + V with V -> 0 off-site is not exactly
    # testable, but S -> identity and the one-atom diagonal is reproducible
    far = h2_geometry_bohr(80.0)
    ao = build_ao_integrals(far, assign_basis(far, sto3g))
    assert abs(ao.overlap[0, 1]) < 1e-12
    one = Geometry((Atom("H", 1, (0.0, 0.0, 0.0)),))
    ao1 = build_ao_integrals(one, assign_basis(one, sto3g))
    # both H sites see the same on-site kinetic energy; nuclear attraction
    # from the far partner decays like -1/R
    assert abs(ao.core_hamiltonian[0, 0] - (ao1.core_hamiltonian[0, 0] - 1.0 / 80.0)) < 1e-6


# The scalar closed forms and contraction loops the array passes replaced,
# kept here as the reference they are checked against.
def _overlap_prim(a, A, b, B):
    p = a + b
    ab2 = float(np.dot(A - B, A - B))
    return (np.pi / p) ** 1.5 * np.exp(-a * b / p * ab2)


def _kinetic_prim(a, A, b, B):
    p = a + b
    mu = a * b / p
    ab2 = float(np.dot(A - B, A - B))
    return mu * (3.0 - 2.0 * mu * ab2) * (np.pi / p) ** 1.5 * np.exp(-mu * ab2)


def _attraction_prim(a, A, b, B, C):
    p = a + b
    ab2 = float(np.dot(A - B, A - B))
    P = (a * A + b * B) / p
    pc2 = float(np.dot(P - C, P - C))
    return -(2.0 * np.pi / p) * np.exp(-a * b / p * ab2) * boys_f0(p * pc2)


def _eri_prim(a, A, b, B, c, C, d, D):
    p = a + b
    q = c + d
    ab2 = float(np.dot(A - B, A - B))
    cd2 = float(np.dot(C - D, C - D))
    P = (a * A + b * B) / p
    Q = (c * C + d * D) / q
    pq2 = float(np.dot(P - Q, P - Q))
    pref = 2.0 * np.pi**2.5 / (p * q * np.sqrt(p + q))
    return pref * np.exp(-a * b / p * ab2 - c * d / q * cd2) * boys_f0(p * q / (p + q) * pq2)


def _contract(kernel, *funcs):
    """sum over primitive tuples of the coefficient product times kernel;
    each function is its (center, exponents, coefficients) row of
    assign_basis, and its padded slots (coefficient 0) are skipped."""
    val = 0.0
    for prims in itertools.product(
        *([(e, c) for e, c in zip(exps, coefs) if c != 0.0] for _, exps, coefs in funcs)
    ):
        args = [x for (e, _), (A, _, _) in zip(prims, funcs) for x in (e, A)]
        val += math.prod(c for _, c in prims) * kernel(*args)
    return val


def _eri_quartets(n):
    """One representative (p, q, r, s) of each 8-fold symmetry orbit over n
    orbitals (p >= q, p >= r, s <= r, and s <= q when r == p)."""
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                for s in range((r if r < p else q) + 1):
                    yield p, q, r, s


def _eri_orbit(p, q, r, s):
    """The 8-fold symmetry orbit of a chemist-notation index quadruple."""
    return {
        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    }


def reference_integrals(geometry, basis):
    funcs = list(zip(*basis))
    n = len(funcs)
    S, H, eri = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n, n, n))
    for i, j in itertools.product(range(n), repeat=2):
        S[i, j] = _contract(_overlap_prim, funcs[i], funcs[j])
        H[i, j] = _contract(_kinetic_prim, funcs[i], funcs[j])
        for atom in geometry.atoms:
            C = np.asarray(atom.position)
            H[i, j] += atom.atomic_number * _contract(
                lambda a, A, b, B: _attraction_prim(a, A, b, B, C), funcs[i], funcs[j]
            )
    for quartet in _eri_quartets(n):
        val = _contract(_eri_prim, *(funcs[k] for k in quartet))
        for idx in _eri_orbit(*quartet):
            eri[idx] = val
    return S, H, eri


ORACLE_GEOMETRIES = {
    "LiH-H2": Geometry.from_angstrom(
        [("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 2.6)), ("H", (0, 0, 3.34))]
    ),
    "HeH+": Geometry.from_angstrom([("He", (0, 0, 0)), ("H", (0, 0, 0.9))], charge=1),
    "Li-He-H bent": Geometry.from_angstrom(
        [("Li", (0, 0, 0)), ("He", (0.9, 0.4, -0.3)), ("H", (-0.5, 1.1, 0.7))]
    ),
}


@pytest.mark.parametrize("name", ORACLE_GEOMETRIES)
def test_array_integrals_match_scalar_reference(sto3g, name):
    geom = ORACLE_GEOMETRIES[name]
    basis = assign_basis(geom, sto3g)
    ao = build_ao_integrals(geom, basis)
    S, H, eri = reference_integrals(geom, basis)
    assert_allclose(ao.overlap, S, rtol=0, atol=1e-12)
    assert_allclose(ao.core_hamiltonian, H, rtol=0, atol=1e-12)
    assert_allclose(ao.eri, eri, rtol=0, atol=1e-12)
    assert np.array_equal(ao.overlap, ao.overlap.T)
    assert np.array_equal(ao.core_hamiltonian, ao.core_hamiltonian.T)


def per_bra_eri(basis_functions):
    """The ERI tensor as build_ao_integrals formed it one bra pair at a
    time: bra pair x against ket pairs 0..x, one boys_f0 call per bra."""
    p, _, _, P, weight = _primitive_pairs(*basis_functions)
    n_pair = len(p)
    pairs = np.zeros((n_pair, n_pair))
    q, Q = p[:, None, None], P[:, None, None]
    for x in range(n_pair):
        pb, qk = p[x][:, :, None, None], q[: x + 1]
        pq2 = np.sum((P[x][:, :, None, None] - Q[: x + 1]) ** 2, axis=-1)
        kernel = 2.0 * np.pi**2.5 / (pb * qk * np.sqrt(pb + qk))
        kernel *= boys_f0(pb * qk / (pb + qk) * pq2)
        pairs[x, : x + 1] = np.einsum("ab,kcd,kabcd->k", weight[x], weight[: x + 1], kernel)
    upper = np.triu_indices(n_pair, 1)
    pairs[upper] = pairs.T[upper]
    index = pair_index(len(basis_functions[0]))
    return pairs[index[:, :, None, None], index]


ERI_GEOMETRIES = {
    "H2": Geometry.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.7354))]),
    "LiH-H2": ORACLE_GEOMETRIES["LiH-H2"],
    "HeH+": ORACLE_GEOMETRIES["HeH+"],
}


@pytest.mark.parametrize("name", ERI_GEOMETRIES)
def test_eri_is_the_per_bra_loop_bit_for_bit(sto3g, name):
    geom = ERI_GEOMETRIES[name]
    basis = assign_basis(geom, sto3g)
    assert_array_equal(build_ao_integrals(geom, basis).eri, per_bra_eri(basis))


def test_eri_is_the_per_bra_loop_across_chunk_boundaries(sto3g, monkeypatch):
    # 15 bra pairs, 81 primitive quartets per (bra, ket) pair, 3 values per
    # quartet in P - Q; chunks of at most 20 (bra, ket) pairs cut the packed
    # triangle after bras 4, 6, 8, 9, ...
    geom = ERI_GEOMETRIES["LiH-H2"]
    basis = assign_basis(geom, sto3g)
    monkeypatch.setattr(molq.integrals, "_ERI_CHUNK_VALUES", 20 * 3 * 81)
    cut, runs = molq.integrals._chunks, []

    def recorded(bounds, limit):   # the shared cutter, keeping the runs it yields
        runs.extend(cut(bounds, limit))
        return runs

    monkeypatch.setattr(molq.integrals, "_chunks", recorded)
    assert_array_equal(build_ao_integrals(geom, basis).eri, per_bra_eri(basis))
    assert runs[:3] == [(0, 5), (5, 7), (7, 9)]


def test_atom_without_basis_function_rejected(sto3g):
    geom = Geometry.from_angstrom([("C", (0, 0, 0))])
    with pytest.raises(UsageError):
        assign_basis(geom, sto3g)


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_index_is_the_eri_symmetry(n):
    index = pair_index(n)
    assert np.array_equal(index, index.T)
    rows, cols = np.tril_indices(n)
    assert np.array_equal(index[rows, cols], np.arange(n * (n + 1) // 2))
    # the orbit representatives, in writer order, are the pair matrix's
    # lower triangle in row order, and every orbit member has the same pairs
    lower = [(x, y) for x in range(len(rows)) for y in range(x + 1)]
    quartets = list(_eri_quartets(n))
    assert [(index[p, q], index[r, s]) for p, q, r, s in quartets] == lower
    for quartet in quartets:
        assert {frozenset((index[p, q], index[r, s])) for p, q, r, s in _eri_orbit(*quartet)} \
            == {frozenset((index[quartet[:2]], index[quartet[2:]]))}


# ----------------------------------------------------- geometry and basis
def test_geometry_from_angstrom_converts_to_bohr():
    geom = Geometry.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 1.0))])
    assert_allclose(geom.atoms[1].position[2], BOHR_PER_ANGSTROM, rtol=0, atol=1e-15)


def test_electron_count_with_charge():
    geom = Geometry.from_angstrom([("He", (0, 0, 0)), ("H", (0, 0, 0.8))], charge=1)
    assert geom.n_electrons == 2


def test_unknown_element_rejected():
    with pytest.raises(UsageError):
        Geometry.from_angstrom([("Xq", (0, 0, 0))])


def test_parse_geometry_roundtrip():
    text = "# comment\ncharge 1\nHe 0 0 0\nH 0 0 0.8  # trailing\n"
    geom = parse_geometry(text)
    assert geom.charge == 1
    assert [a.symbol for a in geom.atoms] == ["He", "H"]


def test_parse_geometry_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_geometry("H 0 0 0\nH 0 0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_geometry("")
    with pytest.raises(ParseError):
        parse_geometry("H 0 0 0\ncharge 1\n")  # header after atoms


def test_parse_basis_errors():
    with pytest.raises(ParseError):
        parse_basis("ELEMENT H two\n")
    with pytest.raises(ParseError):
        parse_basis("ELEMENT H 2\n1.0 0.5\n")  # truncated block
    with pytest.raises(UsageError):
        load_basis("no-such-basis")


@pytest.mark.parametrize("row, name", [
    ("0.0 0.5", "exponent"), ("-0.5 0.5", "exponent"), ("inf 0.5", "exponent"),
    ("nan 0.5", "exponent"), ("1.0 inf", "coefficient"), ("1.0 -inf", "coefficient"),
    ("1.0 nan", "coefficient"),
])
def test_parse_basis_refuses_bad_primitives(row, name):
    with pytest.raises(ParseError, match=f"{name} must be finite") as err:
        parse_basis(f"# comment\nELEMENT H 2\n2.0 0.5\n{row}\n")
    assert err.value.line == 4


@pytest.mark.parametrize("text, match, line", [
    ("ELEMENT H\n0.5 1.0\n", "expected 'ELEMENT <symbol> <n>'", 1),
    ("ELEMENT H 0\n", "primitive count must be >= 1", 1),
    ("ELEMENT H 1\n0.5\n", "expected '<exponent> <coefficient>'", 2),
    ("ELEMENT H 1\n0.5 one\n", "bad numeric literal", 2),
], ids=["header", "count", "row", "literal"])
def test_parse_basis_refuses_a_malformed_block(text, match, line):
    with pytest.raises(ParseError, match=match) as err:
        parse_basis(text)
    assert err.value.line == line


@pytest.mark.parametrize("text, error, match", [
    ("charge one\nH 0 0 0\n", ParseError, "bad charge 'one'"),
    ("H 0 0 x\n", ParseError, "bad coordinate"),
    ("Xq 0 0 0\n", ParseError, "unknown element 'Xq'"),
    ("H 0 0 0\nH 0 0 nan\n", UsageError, "non-finite coordinate for atom H"),
], ids=["charge", "coordinate", "element", "nan"])
def test_parse_geometry_refuses_bad_input(text, error, match):
    with pytest.raises(error, match=match) as err:
        parse_geometry(text)
    assert type(err.value) is error


def test_assign_basis_refuses_a_geometry_without_atoms(sto3g):
    with pytest.raises(UsageError, match="empty basis"):
        assign_basis(Geometry(()), sto3g)


def test_contraction_self_overlap_normalized(sto3g):
    geom = Geometry.from_angstrom([("Li", (0, 0, 0))])
    basis = assign_basis(geom, sto3g)
    assert [a.shape for a in basis] == [(2, 3), (2, 3), (2, 3)]  # Li 1s and 2s
    ao = build_ao_integrals(geom, basis)
    assert_allclose(np.diag(ao.overlap), 1.0, rtol=0, atol=1e-10)


def test_short_contractions_are_padded():
    # H with one primitive beside He with three: H's row gets two padded
    # slots, exponent 1 and coefficient 0, and changes no integral
    basis = parse_basis("ELEMENT H 1\n0.5 1.0\n"
                        "ELEMENT He 3\n6.36 0.154\n1.16 0.535\n0.314 0.445\n")
    geom = Geometry.from_angstrom([("H", (0, 0, 0)), ("He", (0.2, 0, 0.9))])
    centers, exps, coefs = assign_basis(geom, basis)
    assert_allclose(centers, [atom.position for atom in geom.atoms], rtol=0, atol=0)
    assert list(exps[0]) == [0.5, 1.0, 1.0]
    assert coefs[0, 0] > 0.0 and list(coefs[0, 1:]) == [0.0, 0.0]
    assert list(exps[1]) == [6.36, 1.16, 0.314]
    ao = build_ao_integrals(geom, (centers, exps, coefs))
    S, H, eri = reference_integrals(geom, (centers, exps, coefs))
    assert_allclose(np.diag(ao.overlap), 1.0, rtol=0, atol=1e-12)
    assert_allclose(ao.overlap, S, rtol=0, atol=1e-12)
    assert_allclose(ao.core_hamiltonian, H, rtol=0, atol=1e-12)
    assert_allclose(ao.eri, eri, rtol=0, atol=1e-12)
