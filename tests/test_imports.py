"""`import molq` and the database commands load numpy, not scipy.

scipy is imported inside the three functions that call it (Nelder-Mead,
boys_f0, pauli_operator). The check runs in a fresh interpreter because
the test process has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """\
import sys
import molq
import molq.cli
molq.load_basis("sto-3g")
molq.EnergyDB(sys.argv[1])
assert molq.cli.main(["db", "list", "--db", sys.argv[1]]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_import_and_db_commands_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "db")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
