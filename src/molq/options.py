"""The choices a computation is configured by, and their defaults.

The ansatz kinds and their versions, the optimizer methods and settings,
and a scan's default energies, ansatz and depth. vqe, workbench and the CLI
read them from here; the module needs only the standard library, so the
CLI builds its parser, and runs `molq db` and `molq curve`, without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

# Each ansatz kind's version, which its records carry: uccsd 2 keeps only
# the slots that conserve the Hamiltonian's Z2 symmetries, uccsd 1 kept all
ANSATZ_VERSIONS = {"uccsd": 2, "hea": 1}
ANSATZE = tuple(ANSATZ_VERSIONS)

OPTIMIZER_METHODS = ("nelder_mead", "spsa", "gradient_descent")

DEFAULT_METHODS = ("hf", "exact")   # a scan's energies, a subset of db.METHODS
DEFAULT_ANSATZ = "uccsd"
DEFAULT_DEPTH = 1                   # HEA layers


@dataclass
class OptimizerConfig:
    method: str = "nelder_mead"   # one of OPTIMIZER_METHODS
    budget: int = 2000            # objective-evaluation budget
    seed: int = 0
