"""Every demo runs to completion in a fresh interpreter and leaves the
shipped FCIDUMP set alone."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from molq import build_fermionic_hamiltonian, dense_ground_energy, jordan_wigner, parse_fcidump
from molq.scf import ERROR_TOL

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
SHIPPED = ROOT / "data" / "fcidump"
# The SCF stops once max|FDS - SDF| <= ERROR_TOL, so a rerun's orbitals, and
# every integral over them, agree with the shipped ones to about that much
# (up to 7e-9 Ha on this set). The exact energy does not depend on the
# orbitals and must agree far more closely.
INTEGRAL_TOL = 10 * ERROR_TOL
ENERGY_TOL = 1e-10


def shipped_bytes() -> dict:
    return {path.name: path.read_bytes() for path in SHIPPED.iterdir()}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    before = shipped_bytes()
    out_dir = tmp_path / "fcidump"
    args = [str(out_dir)] if demo == "generate_lih_fcidump.py" else []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert shipped_bytes() == before
    if args:
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(before)
        for name in before:
            fresh = parse_fcidump((out_dir / name).read_text())
            shipped = parse_fcidump((SHIPPED / name).read_text())
            assert (fresh.n_orbitals, fresh.n_electrons) == (shipped.n_orbitals,
                                                             shipped.n_electrons)
            np.testing.assert_allclose(fresh.h, shipped.h, rtol=0, atol=INTEGRAL_TOL)
            np.testing.assert_allclose(fresh.g, shipped.g, rtol=0, atol=INTEGRAL_TOL)
            assert fresh.e_core == shipped.e_core
            assert abs(exact_energy(fresh) - exact_energy(shipped)) <= ENERGY_TOL


def exact_energy(mo) -> float:
    pauli = jordan_wigner(build_fermionic_hamiltonian(mo))
    return dense_ground_energy(pauli, mo.n_electrons).ground_energy
