"""`import molq` and the database commands load numpy, not scipy; the
names the benchmark tracer wraps still exist.

scipy is imported inside the three functions that call it (Nelder-Mead,
boys_f0, pauli_operator). The check runs in a fresh interpreter because
the test process has scipy loaded already.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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


def test_benchmark_trace_bindings_resolve(monkeypatch):
    """perfbench/run.py --trace 1 wraps each (module, attribute) of
    perfbench/tracer.py's BINDINGS; a rename in molq would break it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclass
    spec.loader.exec_module(tracer)
    assert tracer.BINDINGS
    for module_name, attribute, _ in tracer.BINDINGS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attribute}"
