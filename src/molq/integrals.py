"""Atomic-orbital integrals for s-type contracted Gaussian basis functions.

Closed forms for the four integral classes over unnormalized s primitives
exp(-a|r-A|^2), with p = a + b, mu = a*b/p, P = (a*A + b*B)/p:

    overlap    (pi/p)^(3/2) exp(-mu |A-B|^2)
    kinetic    mu (3 - 2 mu |A-B|^2) * overlap
    attraction -(2 pi / p) Z exp(-mu |A-B|^2) F0(p |P-C|^2)
    (ab|cd)    2 pi^(5/2) / (pq sqrt(p+q)) exp(-mu_ab|A-B|^2)
               exp(-mu_cd|C-D|^2) F0(pq/(p+q) |P-Q|^2)

None of these is evaluated one primitive at a time. `assign_basis` places
a molecule's contracted functions as padded (n_ao, K) exponent and
normalized coefficient arrays, the Gaussian-product quantities (p, mu, P,
exp(-mu|A-B|^2) c_a c_b) are built once for every function pair i >= j,
and each integral class is a numpy reduction over those primitive-pair
arrays. The ERIs form the kernel and F0 of every (bra, ket <= bra) pair
of function pairs at once, packed in row-major lower-triangle order, in
runs of whole bra rows, then contract each bra row's run with its
weights. A run's largest temporaries, the P - Q separations, hold 3
values per (bra, ket, primitive quartet), and a run holds at most
_ERI_CHUNK_VALUES (2**16, 512 KB of float64) of them: in STO-3G, K = 3,
one run, so one boys_f0 call, covers up to 6 functions, and a larger
molecule takes several runs of that size. This
pair layout is what a McMurchie-Davidson engine for higher angular
momentum would extend with Hermite expansion coefficients.

F0 needs erf, which numpy lacks. `_erf` evaluates Cephes' rational
approximations (S. L. Moshier, Methods and Programs for Mathematical
Functions, 1989, ndtr.c, after W. J. Cody, Math. Comp. 23, 631 (1969)),
the coefficients and Horner order scipy.special.erf uses, so the module
needs numpy only. It equals scipy's erf bit for bit for arguments <= 1
and >= 6; between them it goes through np.exp, whose vectorized rounding
can differ from libm's exp, and may differ from scipy by 1 ulp.

Everything internal is in atomic units (Bohr, Hartree); user-facing
geometry input is Angstrom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import GeometryError, ParseError, UsageError

if TYPE_CHECKING:
    from .basis import BasisSet

BOHR_PER_ANGSTROM = 1.8897259886

# enough of the periodic table for geometry files and formula labels
ELEMENTS = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Ti": 22, "Fe": 26,
    "Ni": 28, "Cu": 29, "Zn": 30, "Ge": 32, "Se": 34, "Br": 35, "Kr": 36,
    "Zr": 40, "Ag": 47, "I": 53, "Xe": 54,
}

# series/closed-form switch for the Boys function
_BOYS_SERIES_CUTOFF = 1e-6
# Cephes ndtr.c: erf(s) = s T(s^2)/U(s^2) for s <= 1, and above it
# erfc(s) = exp(-s^2) P(s)/Q(s); U and Q have an implicit leading 1
_ERF_T = (
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4,
)
_ERF_U = (
    3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4,
)
_ERFC_P = (
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2,
)
_ERFC_Q = (
    1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
    9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2,
)
# Most values one ERI temporary holds
_ERI_CHUNK_VALUES = 2**16


@dataclass(frozen=True)
class Atom:
    """A nucleus: element symbol, charge Z, position in Bohr."""

    symbol: str
    atomic_number: int
    position: tuple[float, float, float]

    def __post_init__(self):
        if self.atomic_number < 1:
            raise UsageError(f"atomic number must be >= 1, got {self.atomic_number}")
        if not all(math.isfinite(c) for c in self.position):
            raise UsageError(f"non-finite coordinate for atom {self.symbol}")


@dataclass(frozen=True)
class Geometry:
    """A molecule: ordered atoms, total charge, electron count."""

    atoms: tuple[Atom, ...]
    charge: int = 0

    @property
    def n_electrons(self) -> int:
        return sum(a.atomic_number for a in self.atoms) - self.charge

    def __post_init__(self):
        if self.n_electrons < 0:
            raise UsageError("negative electron count")

    @classmethod
    def from_angstrom(cls, atoms, charge=0):
        """Build a Geometry from (symbol, (x, y, z)) pairs in Angstrom."""
        built = []
        for symbol, pos in atoms:
            z = ELEMENTS.get(symbol)
            if z is None:
                raise UsageError(f"unknown element symbol {symbol!r}")
            built.append(Atom(symbol, z, tuple(c * BOHR_PER_ANGSTROM for c in pos)))
        return cls(tuple(built), charge)


@dataclass
class AOIntegrals:
    """AO-basis integral set: S, Hcore, (pq|rs) in chemist notation, E_nn."""

    n_ao: int
    overlap: np.ndarray
    core_hamiltonian: np.ndarray
    eri: np.ndarray
    e_nuclear: float
    n_electrons: int


def _polevl(x, coefficients):
    """c0 x^n + c1 x^(n-1) + ... + cn by Horner, as Cephes' polevl."""
    a = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        a *= x
        a += c
    return a


def _p1evl(x, coefficients):
    """x^n + c0 x^(n-1) + ... + c(n-1) by Horner, as Cephes' p1evl: the
    leading coefficient 1 is implicit."""
    a = x + coefficients[0]
    for c in coefficients[1:]:
        a *= x
        a += c
    return a


def _erf(s):
    """erf of an array of s >= 0 by Cephes' ndtr.c (see the module
    docstring): s T(s^2)/U(s^2) for s <= 1, 1 - exp(-s^2) P(s)/Q(s) for
    1 < s < 6, and 1.0 from 6 on, where erfc(6) ~ 2.2e-17 is below half an
    ulp of 1."""
    out = np.ones_like(s)
    low = np.flatnonzero(s <= 1.0)
    sl = s[low]
    z = sl * sl
    out[low] = sl * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    mid = np.flatnonzero((s > 1.0) & (s < 6.0))
    sm = s[mid]
    out[mid] = 1.0 - np.exp(-sm * sm) * _polevl(sm, _ERFC_P) / _p1evl(sm, _ERFC_Q)
    return out


def boys_f0(x):
    """Boys function F0(x) = (1/2) sqrt(pi/x) erf(sqrt(x)), elementwise.

    Takes a float or an array and returns the same shape (a float for a
    scalar). At and below the cutoff the Taylor series
    1 - x/3 + x^2/10 - x^3/42 avoids the 0/0 cancellation at the origin.
    Above it, erf is `_erf`, Cephes' rational approximations in numpy: it
    matches scipy.special.erf bit for bit for sqrt(x) <= 1 and >= 6, and
    within 1 ulp between them, where np.exp may round differently from
    libm's exp.
    """
    x = np.asarray(x, dtype=float)
    valid = np.isfinite(x) & (x >= 0.0)
    if not valid.all():
        raise UsageError(f"boys_f0 requires finite x >= 0, got {float(x[~valid].flat[0])!r}")
    out = np.empty_like(x)
    series = x <= _BOYS_SERIES_CUTOFF
    xs, xc = x[series], x[~series]
    out[series] = 1.0 - xs / 3.0 + xs * xs / 10.0 - xs * xs * xs / 42.0
    out[~series] = 0.5 * np.sqrt(np.pi / xc) * _erf(np.sqrt(xc))
    return float(out) if out.ndim == 0 else out


def nuclear_repulsion(geometry: Geometry) -> float:
    """Sum of Z_i Z_j / r_ij over nuclear pairs, in Hartree."""
    e = 0.0
    atoms = geometry.atoms
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            r = math.dist(atoms[i].position, atoms[j].position)
            if r == 0.0:
                raise GeometryError(
                    f"coincident nuclei: atoms {i} and {j} at {atoms[i].position}"
                )
            e += atoms[i].atomic_number * atoms[j].atomic_number / r
    return e


def _primitive_pairs(centers, exps, coefs):
    """Gaussian-product quantities of every primitive pair of every function
    pair i >= j, in pair order (0,0), (1,0), (1,1), (2,0), ...

    Takes the padded arrays of `assign_basis`. Returned per-pair arrays have
    shape (n_pair, K, K): p, mu, ab2 = |A-B|^2 (broadcast), the centre P
    (with a trailing axis of 3), and weight = c_a c_b exp(-mu |A-B|^2).
    """
    i, j = np.tril_indices(len(centers))
    a = exps[i][:, :, None]
    b = exps[j][:, None, :]
    p = a + b
    mu = a * b / p
    ab2 = np.sum((centers[i] - centers[j]) ** 2, axis=1)[:, None, None]
    P = (a[..., None] * centers[i][:, None, None, :]
         + b[..., None] * centers[j][:, None, None, :]) / p[..., None]
    weight = coefs[i][:, :, None] * coefs[j][:, None, :] * np.exp(-mu * ab2)
    return p, mu, ab2, P, weight


def build_ao_integrals(geometry: Geometry, basis_functions) -> AOIntegrals:
    """Evaluate S, Hcore and the ERI tensor over contracted s functions.

    `basis_functions` is the (centers, exponents, coefficients) tuple of
    `assign_basis`: the functions placed on their atoms. Every integral is a
    reduction over the primitive-pair arrays of `_primitive_pairs`; the
    ERIs run every bra pair against all ket pairs at or below it, a chunk
    of bra rows at a time (`_bra_chunks`), so no temporary passes
    _ERI_CHUNK_VALUES values, a few of them at once, unless one bra row,
    3 n_pair K^4 values, is longer than that. Each unique value is
    computed once and gathered through `pair_index`, so S, Hcore and the
    ERI tensor carry their permutation symmetries exactly.
    """
    n = len(basis_functions[0])
    e_nn = nuclear_repulsion(geometry)

    p, mu, ab2, P, weight = _primitive_pairs(*basis_functions)
    overlap = weight * (np.pi / p) ** 1.5
    s = overlap.sum(axis=(1, 2))
    t = (mu * (3.0 - 2.0 * mu * ab2) * overlap).sum(axis=(1, 2))
    charges = np.array([atom.atomic_number for atom in geometry.atoms], dtype=float)
    nuclei = np.array([atom.position for atom in geometry.atoms], dtype=float)
    pc2 = np.sum((P[..., None, :] - nuclei) ** 2, axis=-1)  # (n_pair, K, K, n_atoms)
    v = -2.0 * np.pi * np.einsum(
        "xab,xabc,c->x", weight / p, boys_f0(p[..., None] * pc2), charges
    )

    # (ab|cd) of every bra pair x against ket pairs 0..x, packed in
    # row-major lower-triangle order, so bra x's kets are one run; over axes
    # (bra-ket pair, a, b, c, d); P - Q adds an axis of 3
    n_pair = len(s)
    pairs = np.zeros((n_pair, n_pair))
    for x0, x1 in _bra_chunks(n_pair, 3 * p[0].size ** 2):
        bra = np.repeat(np.arange(x0, x1), np.arange(x0 + 1, x1 + 1))
        ket = np.concatenate([np.arange(x + 1) for x in range(x0, x1)])
        pb, qk = p[bra][:, :, :, None, None], p[ket][:, None, None]
        pq2 = np.sum((P[bra][:, :, :, None, None] - P[ket][:, None, None]) ** 2, axis=-1)
        kernel = 2.0 * np.pi**2.5 / (pb * qk * np.sqrt(pb + qk))
        kernel *= boys_f0(pb * qk / (pb + qk) * pq2)
        start = 0
        for x in range(x0, x1):
            pairs[x, : x + 1] = np.einsum(
                "ab,kcd,kabcd->k", weight[x], weight[: x + 1], kernel[start : start + x + 1]
            )
            start += x + 1
    upper = np.triu_indices(n_pair, 1)
    pairs[upper] = pairs.T[upper]

    index = pair_index(n)
    return AOIntegrals(
        n_ao=n,
        overlap=s[index],
        core_hamiltonian=(t + v)[index],
        eri=pairs[index[:, :, None, None], index],
        e_nuclear=e_nn,
        n_electrons=geometry.n_electrons,
    )


def _bra_chunks(n_pair, per_pair):
    """Runs [x0, x1) of bra pairs whose (bra, ket <= bra) pairs, at
    `per_pair` values each, hold at most _ERI_CHUNK_VALUES values; a
    longer bra row is a run by itself."""
    per_chunk = _ERI_CHUNK_VALUES // per_pair
    ends = np.arange(1, n_pair + 1) * np.arange(2, n_pair + 2) // 2   # pairs through bra x
    x0 = 0
    while x0 < n_pair:
        x1 = max(x0 + 1, int(np.searchsorted(ends, x0 * (x0 + 1) // 2 + per_chunk, side="right")))
        yield x0, x1
        x0 = x1


def pair_index(n):
    """(n, n) array of the pair index i(i+1)/2 + j of (i, j) for either
    order, j <= i. The pairs are numbered in row-major lower-triangle order,
    the order of np.tril_indices(n), so a chemist-notation ERI tensor with
    8-fold symmetry is pairs[index[:, :, None, None], index] for a symmetric
    pair matrix `pairs`."""
    i = np.arange(n)
    hi, lo = np.maximum(i[:, None], i), np.minimum(i[:, None], i)
    return hi * (hi + 1) // 2 + lo


def assign_basis(geometry: Geometry, basis: BasisSet):
    """The basis functions of each atom in turn, as padded arrays: centers
    (n, 3) in Bohr, exponents (n, K) and coefficients (n, K), K the longest
    contraction. Each function's primitive norms are folded into its
    coefficients, which are then scaled to unit self-overlap. A padded slot
    has exponent 1.0 and coefficient 0, so it contributes nothing."""
    placed = []
    for atom in geometry.atoms:
        try:
            shells = basis.shells[atom.symbol]
        except KeyError:
            raise UsageError(
                f"basis {basis.name!r} has no functions for element {atom.symbol}"
            ) from None
        placed += [(atom.position, exps, coefs) for exps, coefs in shells]
    if not placed:
        raise UsageError("empty basis")
    k = max(len(exps) for _, exps, _ in placed)
    exponents, coefficients = np.ones((len(placed), k)), np.zeros((len(placed), k))
    for row, (_, exps, coefs) in enumerate(placed):
        a = np.asarray(exps)
        c = np.asarray(coefs) * (2.0 * a / np.pi) ** 0.75
        self_overlap = np.sum(np.outer(c, c) * (np.pi / (a[:, None] + a[None, :])) ** 1.5)
        exponents[row, : len(a)] = a
        coefficients[row, : len(a)] = c / np.sqrt(self_overlap)
    centers = np.array([center for center, _, _ in placed], dtype=float)
    return centers, exponents, coefficients


def parse_geometry(text) -> Geometry:
    """Parse a geometry file: optional `charge <int>` header, then one line
    per atom `<symbol> <x> <y> <z>` with coordinates in Angstrom."""
    charge = 0
    atoms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0].lower() == "charge":
            if len(parts) != 2 or atoms:
                raise ParseError("charge header must precede atoms: 'charge <int>'", line=lineno)
            try:
                charge = int(parts[1])
            except ValueError:
                raise ParseError(f"bad charge {parts[1]!r}", line=lineno) from None
            continue
        if len(parts) != 4:
            raise ParseError(f"expected '<symbol> <x> <y> <z>', got {line!r}", line=lineno)
        try:
            xyz = tuple(float(v) for v in parts[1:])
        except ValueError:
            raise ParseError(f"bad coordinate in {line!r}", line=lineno) from None
        if parts[0] not in ELEMENTS:
            raise ParseError(f"unknown element {parts[0]!r}", line=lineno)
        atoms.append((parts[0], xyz))
    if not atoms:
        raise ParseError("geometry file contains no atoms", line=1)
    return Geometry.from_angstrom(atoms, charge=charge)
