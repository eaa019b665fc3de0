"""Regenerate the LiH FCIDUMP set into a directory of your choice.

LiH restricted to s-type STO-3G functions (Li 1s, Li 2s, H 1s) gives a
3-orbital, 4-electron problem: 6 qubits for the full Hamiltonian, 4 qubits
after freezing the Li 1s core.  One FCIDUMP file is written per bond
length, named so a scan can consume them via the pattern
``OUT_DIR/lih_d{length:.2f}.fcidump``.

The shipped set in data/fcidump/ was made this way, but its integrals
agree with a fresh run only to about 1e-12, not byte for byte, and the
tests that read it pin its bytes. So this script never writes there: it
writes to the directory named on its command line.

Run from the repository root:

    python3 demos/generate_lih_fcidump.py OUT_DIR
"""

import argparse
from pathlib import Path

from molq import (
    Geometry,
    ao_to_mo,
    assign_basis,
    build_ao_integrals,
    load_basis,
    scf_solve,
    write_fcidump,
)

LENGTHS = [1.0, 1.2, 1.4, 1.5, 1.6, 1.7, 1.8, 2.0, 2.2, 2.5, 2.8]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory to write the FCIDUMP files to")
    out_dir = parser.parse_args().out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    basis = load_basis("sto-3g")
    for length in LENGTHS:
        geom = Geometry.from_angstrom([("Li", (0, 0, 0)), ("H", (0, 0, length))])
        ao = build_ao_integrals(geom, assign_basis(geom, basis))
        scf = scf_solve(ao)
        mo = ao_to_mo(ao, scf.mo_coefficients)
        path = out_dir / f"lih_d{length:.2f}.fcidump"
        path.write_text(write_fcidump(mo))
        print(f"{path}  e_hf={scf.e_hf:.10f}")


if __name__ == "__main__":
    main()
