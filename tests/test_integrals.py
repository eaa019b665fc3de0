"""Gaussian s-orbital integrals: Boys function, the four integral classes,
geometry handling, and basis parsing."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from molq import (
    BOHR_PER_ANGSTROM,
    Atom,
    ContractedGaussian,
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
from molq.integrals import pair_index
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

    xs = np.array([0.0, 1e-8, 1e-7, 1e-6, 1.0000001e-6, 1e-5, 1e-4, 0.5, 40.0])
    out = boys_f0(xs)
    assert out.shape == xs.shape
    assert [float(v) for v in out] == [boys_f0(float(x)) for x in xs]
    assert [float(v) for v in out] == [scalar(float(x)) for x in xs]
    assert boys_f0(xs.reshape(3, 3)).shape == (3, 3)


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
    """sum over primitive tuples of the coefficient product times kernel."""
    centers = [np.asarray(f.center) for f in funcs]
    val = 0.0
    for prims in itertools.product(
        *(zip(f.exponents, f.primitive_coefficients) for f in funcs)
    ):
        args = [x for (e, _), A in zip(prims, centers) for x in (e, A)]
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


def reference_integrals(geometry, funcs):
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
    funcs = assign_basis(geom, sto3g)
    ao = build_ao_integrals(geom, funcs)
    S, H, eri = reference_integrals(geom, funcs)
    assert_allclose(ao.overlap, S, rtol=0, atol=1e-12)
    assert_allclose(ao.core_hamiltonian, H, rtol=0, atol=1e-12)
    assert_allclose(ao.eri, eri, rtol=0, atol=1e-12)
    assert np.array_equal(ao.overlap, ao.overlap.T)
    assert np.array_equal(ao.core_hamiltonian, ao.core_hamiltonian.T)


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


def test_contracted_gaussian_validation():
    with pytest.raises(UsageError):
        ContractedGaussian((0, 0, 0), (), ())
    with pytest.raises(UsageError):
        ContractedGaussian((0, 0, 0), (1.0, -0.5), (0.4, 0.6))
    with pytest.raises(UsageError):
        ContractedGaussian((0, 0, 0), (1.0,), (0.4, 0.6))


def test_contraction_self_overlap_normalized(sto3g):
    geom = Geometry.from_angstrom([("Li", (0, 0, 0))])
    funcs = assign_basis(geom, sto3g)
    assert len(funcs) == 2  # Li 1s and 2s
    ao = build_ao_integrals(geom, funcs)
    assert_allclose(np.diag(ao.overlap), 1.0, rtol=0, atol=1e-10)
