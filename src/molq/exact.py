"""Exact ground-state energies.

"Exact" means the ground state in the molecule's own electron-number
sector. Two independent paths compute it: diagonalization of a qubit
PauliSum restricted to the (ceil(N/2), floor(N/2)) determinant block, and
a determinant-basis FCI oracle built directly from the MO integrals via
Slater-Condon rules (never touching the fermion/qubit pipeline). Their
agreement is the main correctness check of the whole package. Only the
block takes odd N, as an FCIDUMP may; the oracle's is `closed_shell_pairs`.

A PauliSum on a sorted basis is compiled once into a BlockOperator, its
nonzero entries (rows, cols, values), which every block consumer reads:
pauli_matrix densifies it, dense_ground_energy diagonalizes it, and the
UCCSD block of `vqe` takes H and its generators from it. The values are
float64 when every entry is real (molecular Hamiltonians and UCCSD
generators in this basis) and complex128 otherwise, and each consumer
keeps that dtype. compile_operator groups the strings by flip mask x and
builds whole groups a chunk at a time, so no temporary holds more than
OPERATOR_CHUNK_ENTRIES values; an operator of more than
OPERATOR_MAX_BYTES is refused, at every call, before any value is formed.

Only the values depend on the coefficients, and a scan compiles the same
strings on the same basis at every point. So everything else, the
operator's plan, is built once and kept in two thread-safe
least-recently-used caches of _PLAN_CAPACITY (8) entries: _layout, keyed
by the bytes of x and z, holds the terms' order, phases and flip-mask
groups; _plan, keyed also by the bytes of the basis and by
OPERATOR_CHUNK_ENTRIES, holds per chunk the entries' rows, cols and
first products and each (entry, term) product's term and sign. A call
forms the values from them with one gather, one product and one
np.add.reduceat. The cached arrays are read-only and no BlockOperator
shares them. A UCCSD point compiles two operators, its Hamiltonian and
the sum of its generators, so a scan's later points find both plans
cached. A layout holds about 48 bytes per string and its key 16; a plan
holds 16 bytes per product and 24 per entry, and its key 16 per string
and 8 per state: 0.9 MB for the 10-qubit LiH...H2 Hamiltonian on its
100-state block (45 200 products, 5 500 entries). Where strings times
states passes _PLAN_MAX_PRODUCTS (2**19) no chunks are kept and they are
built afresh at every call, so the full caches hold at most about 200 MB
plus 80 bytes per string and 8 per state of their operators.

pauli_matrix refuses a basis of more than 2**DENSE_MAX_QUBITS states.
dense_ground_energy refuses a non-Hermitian PauliSum before it builds
anything, runs eigh on every block within that guard and Lanczos on
BlockOperator.apply only on a block past it; the whole Fock space (no
electron count) is always dense, within the guard. sector_basis bounds a
block by its float64 Lanczos vectors, not its register, and _lanczos
bounds them again in the operator's dtype before it allocates one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ResourceError, UsageError
from .integrals_io import MOIntegrals, closed_shell_pairs
from .pauli import _PHASE_VALUES, PauliSum, is_hermitian, pauli_signs

# A 2**12 complex matrix is 268 MB, its eigenvectors as much again
DENSE_MAX_QUBITS = 12
FCI_MAX_ORBITALS = 6
# Lanczos stops once the lowest Ritz pair's residual is at most LANCZOS_TOL
# times the largest |Ritz value|
LANCZOS_TOL = 1e-12
LANCZOS_MAX_STEPS = 300
OPERATOR_CHUNK_ENTRIES = 2**18   # largest temporary of compile_operator, in values
# Largest operator compile_operator builds, and most bytes of a block's
# float64 Lanczos vectors: with the ground vector, both fit a host of 7 GB
OPERATOR_MAX_BYTES = 2 * 2**30
# Operator layouts and plans kept, least recently used evicted first: a
# UCCSD point compiles two, its Hamiltonian and its generator sum
_PLAN_CAPACITY = 8
# Most strings x states of an operator whose plan keeps its chunks: the
# most (entry, term) products they hold, at 48 bytes or fewer each
_PLAN_MAX_PRODUCTS = 2**19


@dataclass
class SpectrumResult:
    ground_energy: float
    ground_vector: np.ndarray   # amplitudes on `basis`, in the operator's dtype
    basis: np.ndarray           # the sorted int64 states solved on


@dataclass(frozen=True)
class BlockOperator:
    """A PauliSum on a sorted basis as its nonzero entries:
    <basis[rows[e]]|s|basis[cols[e]]> = values[e], on dim states."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """The operator times psi (of the operator's dtype): one gather and
        one bincount per real component."""
        products = self.values * psi[self.cols]
        if not np.iscomplexobj(products):
            return np.bincount(self.rows, products, self.dim)
        out = np.empty(self.dim, dtype=complex)
        out.real = np.bincount(self.rows, products.real, self.dim)
        out.imag = np.bincount(self.rows, products.imag, self.dim)
        return out

    def dense(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=self.values.dtype)
        mat[self.rows, self.cols] = self.values
        return mat


def _chunks(bounds: np.ndarray, width: int):
    """Runs [g0, g1) of whole groups (group g holds terms bounds[g] up to
    bounds[g + 1]) of at most OPERATOR_CHUNK_ENTRIES // width terms; a
    larger group is a run by itself."""
    per_chunk = OPERATOR_CHUNK_ENTRIES // width
    g0 = 0
    while g0 < len(bounds) - 1:
        g1 = max(g0 + 1, int(np.searchsorted(bounds, bounds[g0] + per_chunk, side="right")) - 1)
        yield g0, g1
        g0 = g1


def _targets(basis, flips):
    """For each flip mask and column b: where b ^ flip sits in the sorted
    basis (clipped), and whether it is there."""
    flipped = basis ^ flips[:, None]
    found = np.minimum(np.searchsorted(basis, flipped), len(basis) - 1)
    return found, basis[found] == flipped


def _frozen(arrays) -> tuple:
    """arrays as a tuple, each made read-only."""
    for array in arrays:
        array.flags.writeable = False
    return tuple(arrays)


@functools.lru_cache(maxsize=_PLAN_CAPACITY)
def _layout(x: bytes, z: bytes) -> tuple:
    """The terms of the int64 masks x, z, as read-only arrays: their stable
    order by flip mask, their i^|x&z| phases in that order, the group
    bounds (where each run of one flip mask starts, then the term count),
    each group's flip mask, and the z masks in that order."""
    x, z = np.frombuffer(x, dtype=np.int64), np.frombuffer(z, dtype=np.int64)
    order = np.argsort(x, kind="stable")
    x, z = x[order], z[order]
    # x[:1] >= 0 is [True] unless there are no terms
    bounds = np.flatnonzero(np.concatenate((x[:1] >= 0, x[1:] != x[:-1], [True])))
    return _frozen([order, _PHASE_VALUES[np.bitwise_count(x & z) & 3], bounds, x[bounds[:-1]], z])


def _pieces(basis, bounds, flips, z):
    """Per chunk of whole groups, everything of its entries that does not
    depend on the coefficients: (rows, cols, term, signs, starts). Entry e
    sums signs[k] * coefficient[term[k]] over k in starts[e] up to the
    next start."""
    for g0, g1 in _chunks(bounds, len(basis)):
        found, hit = _targets(basis, flips[g0:g1])
        group, col = np.nonzero(hit)   # entries by group, columns ascending
        row = found[group, col]
        # each entry's products with its group's terms, in term order
        n_terms = (bounds[g0 + 1 : g1 + 1] - bounds[g0:g1])[group]
        first = np.cumsum(n_terms) - n_terms
        term = np.arange(n_terms.sum()) + np.repeat(bounds[g0:g1][group] - first, n_terms)
        signs = pauli_signs(np.repeat(basis[col], n_terms), z[term])
        yield row, col, term, signs, first


@functools.lru_cache(maxsize=_PLAN_CAPACITY)
def _plan(x: bytes, z: bytes, basis: bytes, chunk_entries: int):
    """The chunks of `_pieces` of the int64 masks x, z over the int64
    basis, each a tuple of read-only arrays, or None where strings times
    states, the most (entry, term) products they could hold, passes
    _PLAN_MAX_PRODUCTS. chunk_entries is the OPERATOR_CHUNK_ENTRIES the
    chunks are cut by."""
    basis = np.frombuffer(basis, dtype=np.int64)
    _, _, bounds, flips, z = _layout(x, z)
    if bounds[-1] * len(basis) > _PLAN_MAX_PRODUCTS:
        return None
    return tuple(_frozen(piece) for piece in _pieces(basis, bounds, flips, z))


def compile_operator(s: PauliSum, basis: np.ndarray) -> BlockOperator:
    """The BlockOperator of s over `basis`, a sorted int64 array of states.

    A string with masks (x, z) maps |b> to pauli_phase(b) |b ^ x>, so the
    strings sharing one flip mask x fill the same entries: column b, row
    b ^ x where that lies in the basis. The terms are sorted by x (stably,
    so each group keeps term order) and one searchsorted over basis ^ x
    finds each group's hit columns and their rows. Every term is signed
    on its group's hit columns only, times its coefficient and i^|x&z|
    phase, and each entry sums its group's products (np.add.reduceat, in
    term order). The values are float64 when every phased coefficient is
    real, complex128 otherwise.

    All of that but the coefficients is the operator's plan: the term
    layout, which the `_layout` cache keeps per strings, and the chunks,
    which the `_plan` cache keeps per (strings, basis). A call with the
    strings and basis of an earlier one only forms the values. Where
    strings times states passes _PLAN_MAX_PRODUCTS no chunks are kept,
    and they are built afresh at every call, each chunk's values formed
    before the next chunk is built. At every call, between the layout and
    the chunks, where every flip mask hitting every column could pass
    OPERATOR_MAX_BYTES in this call's dtype, the entries are counted, and
    the operator refused, before any chunk or value is formed.
    """
    basis = np.asarray(basis, dtype=np.int64)
    masks = s.x.tobytes(), s.z.tobytes()
    order, phases, bounds, flips, z = _layout(*masks)
    coefficients = s.coefficients[order] * phases
    if not np.any(coefficients.imag):
        coefficients = coefficients.real

    entry_bytes = 16 + coefficients.itemsize   # int64 row and col
    if len(flips) * len(basis) * entry_bytes > OPERATOR_MAX_BYTES:
        n_entries = sum(
            np.count_nonzero(_targets(basis, flips[g0:g1])[1])
            for g0, g1 in _chunks(bounds, len(basis))
        )
        if n_entries * entry_bytes > OPERATOR_MAX_BYTES:
            raise ResourceError(
                f"{n_entries} operator entries exceed the {OPERATOR_MAX_BYTES >> 20} MB operator guard"
            )
    pieces = _plan(*masks, basis.tobytes(), OPERATOR_CHUNK_ENTRIES)
    if pieces is None:
        pieces = _pieces(basis, bounds, flips, z)
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    values = [np.zeros(0, dtype=coefficients.dtype)]
    for row, col, term, signs, first in pieces:
        rows.append(row)
        cols.append(col)
        values.append(np.add.reduceat(signs * coefficients[term], first))
    # concatenate copies, so no result shares a cached plan's arrays
    return BlockOperator(
        len(basis), np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    )


def _dense_basis(n_qubits: int, basis=None) -> np.ndarray:
    """basis, by default the whole 2^n space, refused past 2**DENSE_MAX_QUBITS states."""
    dim = 2**n_qubits if basis is None else len(basis)
    if dim > 2**DENSE_MAX_QUBITS:
        raise ResourceError(f"dimension {dim} exceeds the {DENSE_MAX_QUBITS}-qubit dense guard")
    return np.arange(dim, dtype=np.int64) if basis is None else basis


def pauli_matrix(s: PauliSum, basis: np.ndarray | None = None) -> np.ndarray:
    """Matrix <basis[row]|s|basis[col]> of a PauliSum over a sorted basis
    (default: the whole 2^n space in little-endian order), in the dtype of
    its BlockOperator. A basis above 2**DENSE_MAX_QUBITS states is refused
    before anything is allocated."""
    return compile_operator(s, _dense_basis(s.n_qubits, basis)).dense()


def sector_basis(n_qubits: int, n_electrons: int) -> np.ndarray:
    """Sorted basis states of the N-electron determinant block: ceil(N/2)
    electrons on the alpha qubits 0..n-1 and floor(N/2) on the beta qubits
    n..2n-1 (blocked spin ordering, n = n_qubits / 2). Refused, before any
    is enumerated, where its Lanczos vectors could pass OPERATOR_MAX_BYTES
    in float64, the smallest dtype they take (`_lanczos` checks its own)."""
    if n_qubits % 2 or not 0 <= n_electrons <= n_qubits:
        raise UsageError(
            f"no {n_electrons}-electron sector on {n_qubits} spin orbitals"
        )
    n_orbitals = n_qubits // 2
    n_beta = n_electrons // 2
    dim = math.comb(n_orbitals, n_electrons - n_beta) * math.comb(n_orbitals, n_beta)
    if min(dim, LANCZOS_MAX_STEPS) * dim * 8 > OPERATOR_MAX_BYTES:  # float64 vectors
        raise ResourceError(f"a {dim}-state block's Lanczos vectors exceed the operator guard")

    def masks(k):
        combos = itertools.combinations(range(n_orbitals), k)
        return np.array([sum(1 << p for p in occ) for occ in combos], dtype=np.int64)

    alpha = masks(n_electrons - n_beta)
    return np.sort(((masks(n_beta) << n_orbitals)[:, None] | alpha).ravel())


def _lanczos(apply, dim: int, dtype) -> tuple:
    """Lowest eigenpair (value, unit vector) of the Hermitian operator
    `apply` on dim states of dtype: Lanczos with full reorthogonalization
    from the fixed start (sin 1, ..., sin dim), which needs no numpy.random,
    stopped once the lowest Ritz pair's residual |beta_m s_m| is at most
    LANCZOS_TOL times the largest |Ritz value| (or the Krylov space is the
    whole space). Refused, before any vector is allocated, where its vectors
    of dtype pass OPERATOR_MAX_BYTES."""
    steps = min(dim, LANCZOS_MAX_STEPS)
    if steps * dim * np.dtype(dtype).itemsize > OPERATOR_MAX_BYTES:
        raise ResourceError(f"a {dim}-state block's {np.dtype(dtype)} Lanczos vectors "
                            "exceed the operator guard")
    q = np.zeros((steps, dim), dtype=dtype)
    q[0] = np.sin(np.arange(1, dim + 1))
    q[0] /= np.linalg.norm(q[0])
    alpha, beta = np.zeros(steps), np.zeros(steps)
    for m in range(steps):
        w = apply(q[m])
        alpha[m] = np.vdot(q[m], w).real
        for _ in range(2):   # classical Gram-Schmidt, twice
            w -= (q[: m + 1] @ w.conj()).conj() @ q[: m + 1]
        norm = float(np.linalg.norm(w))
        ritz, vectors = np.linalg.eigh(
            np.diag(alpha[: m + 1]) + np.diag(beta[:m], 1) + np.diag(beta[:m], -1)
        )
        if norm * abs(vectors[m, 0]) <= LANCZOS_TOL * np.abs(ritz).max() or m + 1 == dim:
            return float(ritz[0]), vectors[:, 0].astype(dtype) @ q[: m + 1]
        if m + 1 < steps:
            beta[m], q[m + 1] = norm, w / norm
    raise ComputationError(f"Lanczos did not converge in {steps} steps")


def dense_ground_energy(h: PauliSum, n_electrons: int | None = None) -> SpectrumResult:
    """Minimal eigenvalue of the Hermitian PauliSum h, and its vector; h is
    refused unless `is_hermitian`, before any basis state or entry is built.

    With n_electrons, only the (ceil(N/2), floor(N/2)) determinant block
    is diagonalized: for a spin-free, number-conserving Hamiltonian that
    block holds the N-electron ground state, whatever the parity of N. A
    block within the dense guard (2**DENSE_MAX_QUBITS states) is densified
    and solved by eigh, a larger one by Lanczos on its BlockOperator; the
    block, not the register, is bounded (see sector_basis). Without
    n_electrons, the whole Fock space is diagonalized densely (within
    DENSE_MAX_QUBITS) and the lowest state of any electron count is
    returned. Either way the ground vector is the amplitudes on the basis
    solved on, returned with it, in the operator's dtype.
    """
    if not is_hermitian(h):
        raise UsageError("PauliSum is not Hermitian")
    basis = _dense_basis(h.n_qubits) if n_electrons is None else sector_basis(h.n_qubits, n_electrons)
    op = compile_operator(h, basis)
    if op.dim > 2**DENSE_MAX_QUBITS:
        energy, vector = _lanczos(op.apply, op.dim, op.values.dtype)
    else:
        eigenvalues, eigenvectors = np.linalg.eigh(op.dense())
        energy, vector = float(eigenvalues[0]), eigenvectors[:, 0]
    return SpectrumResult(energy, vector, basis)


def _parity_below(mask: int, orbital: int) -> int:
    return bin(mask & ((1 << orbital) - 1)).count("1") & 1


def _double_phase(det: int, holes, particles) -> int:
    """Phase of a+_{p1} a+_{p2} a_{h2} a_{h1} |det> with holes=(h1,h2),
    particles=(p1,p2); a single excitation passes one of each."""
    sign = 0
    m = det
    for hole in holes:
        sign ^= _parity_below(m, hole)
        m ^= 1 << hole
    for particle in reversed(particles):
        sign ^= _parity_below(m, particle)
        m |= 1 << particle
    return -1 if sign else 1


def fci_determinant_oracle(mo: MOIntegrals) -> float:
    """Lowest eigenvalue over all (n_alpha = n_beta = n_e/2) determinants
    plus e_core, assembled from h, g with Slater-Condon rules.

    Spin orbital P < n is spatial P with alpha spin; P >= n is spatial P-n
    with beta spin (blocked ordering, matching the rest of the package).
    """
    n = mo.n_orbitals
    if n > FCI_MAX_ORBITALS:
        raise ResourceError(
            f"{n} orbitals exceeds the {FCI_MAX_ORBITALS}-orbital FCI guard"
        )
    n_pair = closed_shell_pairs(mo.n_electrons, n)

    h, g = mo.h, mo.g

    def spatial_spin(p):
        return (p, 0) if p < n else (p - n, 1)

    def h1(p, q):
        (ps, pspin), (qs, qspin) = spatial_spin(p), spatial_spin(q)
        return h[ps, qs] if pspin == qspin else 0.0

    def coulomb(p, q, r, s):
        # <pq|rs> = (pr|qs) with spin deltas between p,r and q,s
        (ps, pspin), (qs, qspin) = spatial_spin(p), spatial_spin(q)
        (rs_, rspin), (ss, sspin) = spatial_spin(r), spatial_spin(s)
        if pspin != rspin or qspin != sspin:
            return 0.0
        return g[ps, rs_, qs, ss]

    def anti(p, q, r, s):
        return coulomb(p, q, r, s) - coulomb(p, q, s, r)

    dets = []
    for alpha in itertools.combinations(range(n), n_pair):
        for beta in itertools.combinations(range(n), n_pair):
            mask = 0
            for a in alpha:
                mask |= 1 << a
            for b in beta:
                mask |= 1 << (b + n)
            dets.append(mask)

    def occupied(mask):
        return [p for p in range(2 * n) if mask >> p & 1]

    size = len(dets)
    mat = np.zeros((size, size))
    for col, d1 in enumerate(dets):
        occ1 = occupied(d1)
        for row, d2 in enumerate(dets):
            if row < col:
                continue  # fill lower triangle, mirror afterwards
            diff = d1 ^ d2
            n_diff = bin(diff).count("1")
            if n_diff == 0:
                value = sum(h1(p, p) for p in occ1)
                value += 0.5 * sum(
                    anti(p, q, p, q) for p in occ1 for q in occ1
                )
            elif n_diff == 2:
                hole = (d1 & diff).bit_length() - 1
                particle = (d2 & diff).bit_length() - 1
                common = occupied(d1 & d2)
                value = h1(particle, hole) + sum(
                    anti(particle, q, hole, q) for q in common
                )
                value *= _double_phase(d1, (hole,), (particle,))
            elif n_diff == 4:
                holes = occupied(d1 & diff)
                particles = occupied(d2 & diff)
                value = _double_phase(d1, holes, particles) * anti(
                    particles[0], particles[1], holes[0], holes[1]
                )
            else:
                continue
            mat[row, col] = value
            mat[col, row] = value
    eigenvalues = np.linalg.eigvalsh(mat)
    return float(eigenvalues[0] + mo.e_core)
