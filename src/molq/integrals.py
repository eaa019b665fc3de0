"""Atomic-orbital integrals for s-type contracted Gaussian basis functions.

Closed forms for the four integral classes over unnormalized s primitives
exp(-a|r-A|^2), with p = a + b, mu = a*b/p, P = (a*A + b*B)/p:

    overlap    (pi/p)^(3/2) exp(-mu |A-B|^2)
    kinetic    mu (3 - 2 mu |A-B|^2) * overlap
    attraction -(2 pi / p) Z exp(-mu |A-B|^2) F0(p |P-C|^2)
    (ab|cd)    2 pi^(5/2) / (pq sqrt(p+q)) exp(-mu_ab|A-B|^2)
               exp(-mu_cd|C-D|^2) F0(pq/(p+q) |P-Q|^2)

None of these is evaluated one primitive at a time. The contracted
functions are packed into padded (n_ao, K) arrays, the Gaussian-product
quantities (p, mu, P, exp(-mu|A-B|^2) c_a c_b) are built once for every
function pair i >= j, and each integral class is a numpy reduction over
those primitive-pair arrays; the ERIs loop over bra pairs only. This pair
layout is what a McMurchie-Davidson engine for higher angular momentum
would extend with Hermite expansion coefficients.

Everything internal is in atomic units (Bohr, Hartree); user-facing
geometry input is Angstrom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import GeometryError, ParseError, UsageError

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


@dataclass(frozen=True)
class ContractedGaussian:
    """s-type contraction sum_k c_k N(a_k) exp(-a_k |r-center|^2).

    Coefficients are stored for unit-normalized primitives and rescaled on
    construction so the contracted self-overlap is exactly 1.
    """

    center: tuple[float, float, float]
    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.exponents) == 0:
            raise UsageError("contracted Gaussian needs at least one primitive")
        if len(self.exponents) != len(self.coefficients):
            raise UsageError("exponent/coefficient length mismatch")
        if any(a <= 0 for a in self.exponents):
            raise UsageError("primitive exponents must be positive")
        a = np.asarray(self.exponents)
        # fold primitive norms into the contraction, then normalize the whole
        c = np.asarray(self.coefficients) * (2.0 * a / np.pi) ** 0.75
        p = a[:, None] + a[None, :]
        self_overlap = np.sum(np.outer(c, c) * (np.pi / p) ** 1.5)
        object.__setattr__(self, "_prims", c / np.sqrt(self_overlap))

    @property
    def primitive_coefficients(self) -> np.ndarray:
        """Normalization-folded primitive coefficients."""
        return self._prims


@dataclass
class AOIntegrals:
    """AO-basis integral set: S, Hcore, (pq|rs) in chemist notation, E_nn."""

    n_ao: int
    overlap: np.ndarray
    core_hamiltonian: np.ndarray
    eri: np.ndarray
    e_nuclear: float
    n_electrons: int


def boys_f0(x):
    """Boys function F0(x) = (1/2) sqrt(pi/x) erf(sqrt(x)), elementwise.

    Takes a float or an array and returns the same shape (a float for a
    scalar). At and below the cutoff the Taylor series
    1 - x/3 + x^2/10 - x^3/42 avoids the 0/0 cancellation at the origin.
    """
    x = np.asarray(x, dtype=float)
    valid = np.isfinite(x) & (x >= 0.0)
    if not valid.all():
        raise UsageError(f"boys_f0 requires finite x >= 0, got {float(x[~valid].flat[0])!r}")
    out = np.empty_like(x)
    series = x <= _BOYS_SERIES_CUTOFF
    xs, xc = x[series], x[~series]
    out[series] = 1.0 - xs / 3.0 + xs * xs / 10.0 - xs * xs * xs / 42.0
    from scipy.special import erf   # here, so `import molq` loads no scipy

    out[~series] = 0.5 * np.sqrt(np.pi / xc) * erf(np.sqrt(xc))
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


def _primitive_pairs(funcs):
    """Gaussian-product quantities of every primitive pair of every function
    pair i >= j, in pair order (0,0), (1,0), (1,1), (2,0), ...

    Functions are packed into padded (n_ao, K) exponent and coefficient
    arrays; a padded slot has exponent 1.0 and weight 0, so it contributes
    nothing. Returned per-pair arrays have shape (n_pair, K, K): p, mu,
    ab2 = |A-B|^2 (broadcast), the centre P (with a trailing axis of 3), and
    weight = c_a c_b exp(-mu |A-B|^2).
    """
    k = max(len(f.exponents) for f in funcs)
    exps = np.ones((len(funcs), k))
    coefs = np.zeros((len(funcs), k))
    for row, f in enumerate(funcs):
        exps[row, : len(f.exponents)] = f.exponents
        coefs[row, : len(f.exponents)] = f.primitive_coefficients
    centers = np.array([f.center for f in funcs], dtype=float)
    i, j = np.tril_indices(len(funcs))
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

    `basis_functions` is a flat ordered list of ContractedGaussian already
    placed on their centers (see `assign_basis`). Every integral is a
    reduction over the primitive-pair arrays of `_primitive_pairs`; the
    ERIs run one bra pair against all ket pairs at or below it, so the
    temporaries stay O(n_pair K^4). Each unique value is computed once and
    gathered through the pair-index map, so S, Hcore and the ERI tensor
    carry their permutation symmetries exactly.
    """
    funcs = list(basis_functions)
    if not funcs:
        raise UsageError("empty basis")
    n = len(funcs)
    e_nn = nuclear_repulsion(geometry)

    p, mu, ab2, P, weight = _primitive_pairs(funcs)
    overlap = weight * (np.pi / p) ** 1.5
    s = overlap.sum(axis=(1, 2))
    t = (mu * (3.0 - 2.0 * mu * ab2) * overlap).sum(axis=(1, 2))
    charges = np.array([atom.atomic_number for atom in geometry.atoms], dtype=float)
    nuclei = np.array([atom.position for atom in geometry.atoms], dtype=float)
    pc2 = np.sum((P[..., None, :] - nuclei) ** 2, axis=-1)  # (n_pair, K, K, n_atoms)
    v = -2.0 * np.pi * np.einsum(
        "xab,xabc,c->x", weight / p, boys_f0(p[..., None] * pc2), charges
    )

    # (ab|cd) of bra pair x against ket pairs 0..x, over axes (ket, a, b, c, d)
    n_pair = len(s)
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

    # pair index of (i, j) for either order: max(i,j)(max(i,j)+1)/2 + min(i,j)
    hi = np.maximum.outer(np.arange(n), np.arange(n))
    lo = np.minimum.outer(np.arange(n), np.arange(n))
    index = hi * (hi + 1) // 2 + lo
    return AOIntegrals(
        n_ao=n,
        overlap=s[index],
        core_hamiltonian=(t + v)[index],
        eri=pairs[index[:, :, None, None], index[None, None, :, :]],
        e_nuclear=e_nn,
        n_electrons=geometry.n_electrons,
    )


def _eri_quartets(n):
    """One representative (p, q, r, s) of each 8-fold symmetry orbit over n
    orbitals (p >= q, p >= r, s <= r, and s <= q when r == p), in the line
    order of the FCIDUMP and AO-file writers."""
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


# ---------------------------------------------------------------------------
# basis handling


class BasisSet:
    """Per-element lists of (exponents, coefficients) shell parameters."""

    def __init__(self, name, shells):
        self.name = name
        self.shells = shells  # symbol -> [(exponents, coefficients), ...]

    def functions_for(self, atom: Atom):
        try:
            shells = self.shells[atom.symbol]
        except KeyError:
            raise UsageError(
                f"basis {self.name!r} has no functions for element {atom.symbol}"
            ) from None
        return [
            ContractedGaussian(atom.position, tuple(exps), tuple(coefs))
            for exps, coefs in shells
        ]


def parse_basis(text, name="user"):
    """Parse the plain-text basis format.

    One block per contracted function: a line `ELEMENT <symbol> <n_prims>`
    followed by n lines `<exponent> <coefficient>`. `#` starts a comment.
    Multiple blocks for one element accumulate (e.g. Li 1s + 2s).
    """
    shells: dict[str, list] = {}
    lines = text.splitlines()
    i = 0

    def strip(line):
        return line.split("#", 1)[0].strip()

    n_lines = len(lines)
    while i < n_lines:
        head = strip(lines[i])
        i += 1
        if not head:
            continue
        parts = head.split()
        if parts[0].upper() != "ELEMENT" or len(parts) != 3:
            raise ParseError(f"expected 'ELEMENT <symbol> <n>', got {head!r}", line=i)
        symbol = parts[1]
        try:
            n_prim = int(parts[2])
        except ValueError:
            raise ParseError(f"bad primitive count {parts[2]!r}", line=i) from None
        if n_prim < 1:
            raise ParseError("primitive count must be >= 1", line=i)
        exps, coefs = [], []
        while len(exps) < n_prim and i < n_lines:
            row = strip(lines[i])
            i += 1
            if not row:
                continue
            fields = row.split()
            if len(fields) != 2:
                raise ParseError(f"expected '<exponent> <coefficient>', got {row!r}", line=i)
            try:
                exps.append(float(fields[0]))
                coefs.append(float(fields[1]))
            except ValueError:
                raise ParseError(f"bad numeric literal in {row!r}", line=i) from None
        if len(exps) < n_prim:
            raise ParseError(f"block for {symbol} ends before {n_prim} primitives", line=i)
        shells.setdefault(symbol, []).append((exps, coefs))
    return BasisSet(name, shells)


def load_basis(name_or_path) -> BasisSet:
    """Load a basis by shipped name (e.g. 'sto-3g') or from a file path."""
    from pathlib import Path

    key = str(name_or_path).lower()
    resource = resources.files(__package__) / "data" / f"{key}.basis"
    if resource.is_file():
        return parse_basis(resource.read_text(), name=key)
    path = Path(name_or_path)
    if path.is_file():
        return parse_basis(path.read_text(), name=path.stem)
    raise UsageError(f"unknown basis {name_or_path!r} (not shipped, not a file)")


def assign_basis(geometry: Geometry, basis: BasisSet):
    """Flat ordered list of basis functions placed on each atom in turn."""
    funcs = []
    for atom in geometry.atoms:
        funcs.extend(basis.functions_for(atom))
    return funcs


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
