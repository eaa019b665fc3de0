"""Command-line interface.

Subcommands: integrals, scf, ham, vqe, exact, scan, db
put|get|list|query|audit, curve. Exit codes: 0 success, 1 usage error, 2
computation error or a failed db audit, 3 I/O error, an unreadable
database record among them. Each command imports the numeric modules it
uses when it runs, so db and curve load no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .db import METHODS, EnergyDB, EnergyRecord, emit_curve
from .errors import ComputationError, UsageError
from .options import (
    ANSATZE,
    DEFAULT_ANSATZ,
    DEFAULT_DEPTH,
    DEFAULT_METHODS,
    OPTIMIZER_METHODS,
    OptimizerConfig,
)

MAX_SCAN_POINTS = 10_000  # lengths in one --lengths start:stop:step range


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; the contract here is exit 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _limit(text: str) -> int:
    """argparse type of --limit: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"want an int >= 0, got {text!r}")
    return value


def _write_output(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_geometry(path: str):
    from .integrals import parse_geometry

    return parse_geometry(Path(path).read_text())


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required here")


def _log(args):
    return sys.stderr if getattr(args, "verbose", False) else None


def _load_mo(args):
    """MO integrals from --fcidump, or from --geometry/--basis via SCF,
    with --freeze core orbitals frozen."""
    from .fermion import freeze_core
    from .workbench import load_mo

    if args.fcidump:
        source = args.fcidump
    else:
        _require(args, "geometry", "basis")
        source = _load_geometry(args.geometry)
    mo, _ = load_mo(source, args.basis, _log(args))
    return freeze_core(mo, args.freeze) if args.freeze else mo


def cmd_integrals(args):
    from .basis import load_basis
    from .integrals import assign_basis, build_ao_integrals
    from .integrals_io import write_ao_file

    geom = _load_geometry(args.geometry)
    basis = load_basis(args.basis)
    ao = build_ao_integrals(geom, assign_basis(geom, basis))
    _write_output(write_ao_file(ao), args.output)
    if args.output:
        print(f"n_ao={ao.n_ao} e_nuclear={ao.e_nuclear!r} -> {args.output}")


def cmd_scf(args):
    from .integrals_io import write_fcidump
    from .workbench import load_mo

    mo, result = load_mo(_load_geometry(args.geometry), args.basis, _log(args))
    print(f"E_HF = {result.e_hf!r} Hartree")
    print(f"iterations = {result.iterations}")
    energies = " ".join(format(e, ".10f") for e in result.orbital_energies)
    print(f"orbital_energies = {energies}")
    if args.output:
        Path(args.output).write_text(write_fcidump(mo))
        print(f"MO integrals -> {args.output}")


def cmd_ham(args):
    from .fermion import build_fermionic_hamiltonian, serialize_terms
    from .pauli import jordan_wigner, serialize_pauli

    mo = _load_mo(args)
    op = build_fermionic_hamiltonian(mo)
    if args.pauli:
        text = serialize_pauli(jordan_wigner(op))
        if args.limit is not None:
            text = "".join(text.splitlines(keepends=True)[: args.limit])
    else:
        text = serialize_terms(op, args.limit)
    _write_output(text, args.output)


def cmd_vqe(args):
    from .fermion import build_fermionic_hamiltonian
    from .pauli import jordan_wigner
    from .vqe import vqe_solve
    from .workbench import build_ansatz

    mo = _load_mo(args)
    pauli = jordan_wigner(build_fermionic_hamiltonian(mo))
    ansatz = build_ansatz(args.ansatz, pauli, mo.n_electrons, args.depth)
    config = OptimizerConfig(method=args.optimizer, budget=args.budget, seed=args.seed)
    result = vqe_solve(pauli, ansatz, config, log=_log(args))
    print(f"E_VQE = {result.energy!r} Hartree")
    print(f"ansatz = {ansatz.descriptor}")
    print(f"optimizer = {config.method}")
    print(f"evaluations = {result.evaluations}")
    print(f"converged = {str(result.converged).lower()}")


def cmd_exact(args):
    from .exact import dense_ground_energy, fci_determinant_oracle
    from .fermion import build_fermionic_hamiltonian
    from .pauli import jordan_wigner

    mo = _load_mo(args)
    if args.method == "fci":
        energy = fci_determinant_oracle(mo)
    else:
        energy = dense_ground_energy(
            jordan_wigner(build_fermionic_hamiltonian(mo)), mo.n_electrons
        ).ground_energy
    print(f"E_exact = {energy!r} Hartree")


def _parse_lengths(text: str) -> list:
    """`a,b,c` or an inclusive `start:stop:step` range of at most
    MAX_SCAN_POINTS lengths, counted before any is made."""
    try:
        if ":" not in text:
            return [float(p) for p in text.split(",") if p]
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise UsageError(f"bad --lengths {text!r}: want a,b,c or start:stop:step") from None
    if step <= 0:
        raise UsageError("length step must be positive")
    span = (stop + 1e-9 - start) / step  # steps from start to stop; NaN if not finite
    if not span < MAX_SCAN_POINTS:
        raise UsageError(f"length range {text!r} is not finite or exceeds {MAX_SCAN_POINTS} points")
    values = (start + k * step for k in range(max(0, int(span) + 2)))
    return [round(value, 10) for value in values if value <= stop + 1e-9]


def _parse_fragment(text: str | None, flag: str) -> list | None:
    """A --fragment-a/-b value: one atom, at the fragment's origin."""
    if text is None:
        return None
    if not text or "," in text:
        raise UsageError(f"{flag} takes one element symbol, got {text!r}; build a multi-atom "
                         "fragment as a ScanSpec fragment of (symbol, (dx, dy, dz)) entries")
    return [(text, (0.0, 0.0, 0.0))]


def cmd_scan(args):
    from .workbench import ScanSpec, run_scan

    spec = ScanSpec(
        molecule=args.molecule,
        bond_lengths=_parse_lengths(args.lengths),
        fragment_a=_parse_fragment(args.fragment_a, "--fragment-a"),
        fragment_b=_parse_fragment(args.fragment_b, "--fragment-b"),
        basis=args.basis,
        fcidump_pattern=args.fcidump_pattern,
        methods=tuple(m for m in args.methods.split(",") if m),
        charge=args.charge,
        n_frozen=args.freeze,
        ansatz=args.ansatz,
        depth=args.depth,
        optimizer=args.optimizer,
        budget=args.budget,
        seed=args.seed,
    )
    db = EnergyDB(args.db) if args.db else None
    records = run_scan(spec, db)
    for record in records:
        if record.error:
            print(f"length={record.bond_length:g} FAILED: {record.error}")
            continue
        fields = [f"length={record.bond_length:g}"]
        for name in ("e_hf", "e_vqe", "e_exact"):
            value = getattr(record, name)
            if value is not None:
                fields.append(f"{name}={value:.10f}")
        fields.append(f"id={record.record_id}")
        print(" ".join(fields))
    if args.output:
        Path(args.output).write_text(emit_curve(records))
        print(f"curve -> {args.output}")


def _query(db, args):
    return db.query(molecule=args.molecule, basis=args.basis, method=args.method,
                    ansatz=args.ansatz)


def cmd_db(args):
    db = EnergyDB(args.db)
    if args.action == "put":
        if not args.target:
            raise UsageError("db put needs a record JSON file")
        try:
            data = json.loads(Path(args.target).read_text())
            record = EnergyRecord.from_dict(data)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad record file {args.target}: {exc}")
        print(db.put(record))
    elif args.action == "get":
        if not args.target:
            raise UsageError("db get needs a record id")
        try:
            record = db.get(args.target, version=args.version)
        except KeyError as exc:
            raise UsageError(f"no such record: {exc.args[0]}")
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    elif args.action == "list":
        for record_id, version in db.latest_versions().items():
            record = db.get(record_id, version)
            line = f"{record_id} versions={version} molecule={record.molecule}"
            if record.bond_length is not None:
                line += f" length={record.bond_length:g}"
            print(line)
    elif args.action == "query":
        records = _query(db, args)
        if args.limit is not None:
            records = records[: args.limit]
        for record in records:
            print(json.dumps(record.to_dict(), sort_keys=True))
    elif args.action == "audit":
        problems = db.audit()
        for problem in problems:
            print(problem)
        if problems:
            raise SystemExit(2)


def cmd_curve(args):
    records = _query(EnergyDB(args.db), args)
    if not records:
        raise UsageError("no matching records")
    _write_output(emit_curve(records), args.output)


def build_parser() -> _Parser:
    parser = _Parser(prog="molq", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def add_input_flags(p):
        p.add_argument("--geometry", help="geometry file (Angstrom)")
        p.add_argument("--basis", help="basis set name or file")
        p.add_argument("--fcidump", help="FCIDUMP file with MO integrals")
        p.add_argument("--freeze", type=int, default=0, help="frozen-core spatial orbitals")

    def add_vqe_flags(p):
        p.add_argument("--ansatz", choices=ANSATZE, default=DEFAULT_ANSATZ)
        p.add_argument("--depth", type=int, default=DEFAULT_DEPTH, help="HEA layers")
        p.add_argument("--optimizer", choices=OPTIMIZER_METHODS, default=OptimizerConfig.method)
        p.add_argument("--budget", type=int, default=OptimizerConfig.budget,
                       help="evaluation budget")
        p.add_argument("--seed", type=int, default=OptimizerConfig.seed)

    def add_db_flag(p):
        p.add_argument("--db", required=True, help="database directory")
        return p

    def add_filter_flags(p):
        p.add_argument("--basis")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--ansatz", choices=ANSATZE, help="only records of this VQE ansatz")

    p = add("integrals", cmd_integrals, "compute AO integrals")
    p.add_argument("--geometry", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--output", help="write the AO integral file here")

    p = add("scf", cmd_scf, "run restricted Hartree-Fock")
    p.add_argument("--geometry", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--output", help="write MO integrals as FCIDUMP")
    p.add_argument("--verbose", action="store_true", help="stream SCF iterations")

    p = add("ham", cmd_ham, "print the second-quantized Hamiltonian terms")
    add_input_flags(p)
    p.add_argument("--limit", type=_limit, help="print at most N terms")
    p.add_argument("--pauli", action="store_true", help="print the Jordan-Wigner form")
    p.add_argument("--output", help="write the listing here")

    p = add("vqe", cmd_vqe, "variational ground-state search")
    add_input_flags(p)
    add_vqe_flags(p)
    p.add_argument("--verbose", action="store_true", help="stream eval lines")

    p = add("exact", cmd_exact, "exact ground-state energy")
    add_input_flags(p)
    p.add_argument("--method", choices=("dense", "fci"), default="dense",
                   help="dense: JW Hamiltonian diagonalized in the molecule's "
                        "electron-number sector; fci: determinant oracle")

    p = add("scan", cmd_scan, "bond-length scan")
    p.add_argument("--molecule", required=True, help="formula label, e.g. H2")
    p.add_argument("--lengths", required=True,
                   help="start:stop:step or comma list, in Angstrom")
    p.add_argument("--fragment-a", help="one element symbol, placed at the origin")
    p.add_argument("--fragment-b", help="one element symbol, placed the length along z")
    p.add_argument("--basis")
    p.add_argument("--fcidump-pattern",
                   help="FCIDUMP path template with {length}, e.g. lih_{length:.2f}.fcidump; "
                        "takes no --basis or fragments")
    p.add_argument("--methods", default=",".join(DEFAULT_METHODS),
                   help=f"subset of {','.join(METHODS)}")
    p.add_argument("--charge", type=int, default=0)
    p.add_argument("--freeze", type=int, default=0,
                   help="frozen-core spatial orbitals")
    add_vqe_flags(p)
    p.add_argument("--db", help="database directory")
    p.add_argument("--output", help="write the curve CSV here")

    p = add("db", cmd_db, "database operations")
    dbsub = p.add_subparsers(dest="action", required=True,
                             metavar="{put,get,list,query,audit}")

    q = add_db_flag(dbsub.add_parser("put", help="insert a record from a JSON file"))
    q.add_argument("target", metavar="record.json", help="record JSON file")

    q = add_db_flag(dbsub.add_parser("get", help="print one record version as JSON"))
    q.add_argument("target", metavar="record-id")
    q.add_argument("--version", type=int, help="default: latest")

    add_db_flag(dbsub.add_parser("list", help="list record ids with version counts"))

    q = add_db_flag(dbsub.add_parser("query", help="filter records, one JSON per line"))
    q.add_argument("--molecule")
    add_filter_flags(q)
    q.add_argument("--limit", type=_limit)

    add_db_flag(dbsub.add_parser("audit", help="print integrity problems; exit 2 if any"))

    p = add_db_flag(add("curve", cmd_curve, "emit a CSV dissociation curve from the database"))
    p.add_argument("--molecule", required=True)
    add_filter_flags(p)
    p.add_argument("--output", help="write the CSV here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help()
            return 1
        args.func(args)
        return 0
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
