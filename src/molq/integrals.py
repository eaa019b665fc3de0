"""Atomic-orbital integrals for s-type contracted Gaussian basis functions.

Closed forms for the four integral classes over unnormalized s primitives
exp(-a|r-A|^2), with p = a + b, mu = a*b/p, P = (a*A + b*B)/p:

    overlap    (pi/p)^(3/2) exp(-mu |A-B|^2)
    kinetic    mu (3 - 2 mu |A-B|^2) * overlap
    attraction -(2 pi / p) Z exp(-mu |A-B|^2) F0(p |P-C|^2)
    (ab|cd)    2 pi^(5/2) / (pq sqrt(p+q)) exp(-mu_ab|A-B|^2)
               exp(-mu_cd|C-D|^2) F0(pq/(p+q) |P-Q|^2)

Everything internal is in atomic units (Bohr, Hartree); user-facing
geometry input is Angstrom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy import special

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


def boys_f0(x: float) -> float:
    """Boys function F0(x) = (1/2) sqrt(pi/x) erf(sqrt(x)).

    Below the cutoff the Taylor series 1 - x/3 + x^2/10 - x^3/42 avoids the
    0/0 cancellation at the origin.
    """
    if not (x >= 0.0) or not math.isfinite(x):
        raise UsageError(f"boys_f0 requires finite x >= 0, got {x!r}")
    if x <= _BOYS_SERIES_CUTOFF:
        return 1.0 - x / 3.0 + x * x / 10.0 - x * x * x / 42.0
    return 0.5 * math.sqrt(math.pi / x) * special.erf(math.sqrt(x))


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


def _contract2(kernel, f1, f2):
    val = 0.0
    A = np.asarray(f1.center)
    B = np.asarray(f2.center)
    for a, ca in zip(f1.exponents, f1.primitive_coefficients):
        for b, cb in zip(f2.exponents, f2.primitive_coefficients):
            val += ca * cb * kernel(a, A, b, B)
    return val


def _contract4(f1, f2, f3, f4):
    val = 0.0
    A, B, C, D = (np.asarray(f.center) for f in (f1, f2, f3, f4))
    for a, ca in zip(f1.exponents, f1.primitive_coefficients):
        for b, cb in zip(f2.exponents, f2.primitive_coefficients):
            for c, cc in zip(f3.exponents, f3.primitive_coefficients):
                for d, cd in zip(f4.exponents, f4.primitive_coefficients):
                    val += ca * cb * cc * cd * _eri_prim(a, A, b, B, c, C, d, D)
    return val


def build_ao_integrals(geometry: Geometry, basis_functions) -> AOIntegrals:
    """Evaluate S, Hcore and the ERI tensor over contracted s functions.

    `basis_functions` is a flat ordered list of ContractedGaussian already
    placed on their centers (see `assign_basis`). The ERI tensor is stored in
    full but evaluated only on unique 8-fold-symmetry representatives.
    """
    funcs = list(basis_functions)
    if not funcs:
        raise UsageError("empty basis")
    n = len(funcs)
    e_nn = nuclear_repulsion(geometry)

    S = np.zeros((n, n))
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            S[i, j] = S[j, i] = _contract2(_overlap_prim, funcs[i], funcs[j])
            t = _contract2(_kinetic_prim, funcs[i], funcs[j])
            v = 0.0
            for atom in geometry.atoms:
                Cpos = np.asarray(atom.position)
                v += atom.atomic_number * _contract2(
                    lambda a, A, b, B: _attraction_prim(a, A, b, B, Cpos),
                    funcs[i],
                    funcs[j],
                )
            H[i, j] = H[j, i] = t + v

    eri = np.zeros((n, n, n, n))
    for p, q, r, s in _eri_quartets(n):
        val = _contract4(funcs[p], funcs[q], funcs[r], funcs[s])
        for idx in _eri_orbit(p, q, r, s):
            eri[idx] = val

    return AOIntegrals(
        n_ao=n,
        overlap=S,
        core_hamiltonian=H,
        eri=eri,
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
