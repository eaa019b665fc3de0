"""File-backed energy/Hamiltonian database.

records/<record_id>.v<N>.json is version N of a record and the directory
listing is the whole index; hamiltonians/<sha256 of text>.fop|.pauli hold
serialized operators. Each file is fsynced under a temporary name, then
os.link-ed to its final name, which fails if that name exists: concurrent
writers (threads or processes) claim distinct versions without a lock, and
a crash leaves at most a temporary file, which audit reports.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import tempfile
from collections import defaultdict
from contextlib import suppress
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import UsageError

VARIATIONAL_SLACK = 1e-9
RECORD_ID = "[0-9a-f]{16}"
RECORD_NAME = re.compile(rf"(?P<id>{RECORD_ID})\.v(?P<version>[1-9][0-9]*)\.json")
TMP_SUFFIX = ".tmp"


@dataclass
class EnergyRecord:
    """One scan point: identity, energies, and method provenance.

    record_id hashes only (molecule, geometry, bond length, basis, ansatz,
    optimizer, seed), so re-running the same configuration yields the same
    id and differing results stack up as versions under it.
    """

    molecule: str
    basis: str
    geometry: object = None        # [[symbol, x, y, z], ...] in Angstrom, or {"fcidump": path}
    bond_length: float | None = None
    n_qubits: int | None = None
    e_hf: float | None = None
    e_vqe: float | None = None
    e_exact: float | None = None
    hamiltonian_ref: dict | None = None   # {"fermion": path, "pauli": path}
    ansatz: str | None = None
    optimizer: str | None = None
    seed: int | None = None
    evaluations: int | None = None
    error: str | None = None
    record_id: str = ""
    created_at: str = ""

    def content_key(self) -> dict:
        return {
            "molecule": self.molecule,
            "geometry": self.geometry,
            "bond_length": self.bond_length,
            "basis": self.basis,
            "ansatz": self.ansatz,
            "optimizer": self.optimizer,
            "seed": self.seed,
        }

    def compute_id(self) -> str:
        canonical = json.dumps(self.content_key(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def validate(self):
        if not self.molecule:
            raise UsageError("record needs a molecule label")
        if self.record_id:
            check_record_id(self.record_id, UsageError)
        for name in ("e_hf", "e_vqe", "e_exact"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, (int, float)) and math.isfinite(value)
            ):
                raise UsageError(f"{name} must be a finite number, got {value!r}")
        for lo, hi in (("e_exact", "e_hf"), ("e_exact", "e_vqe")):
            a, b = getattr(self, lo), getattr(self, hi)
            if a is not None and b is not None and b < a - VARIATIONAL_SLACK:
                raise UsageError(f"variational bound violated: {hi} < {lo}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyRecord":
        return cls(**data)


def check_record_id(record_id, error=KeyError) -> None:
    """Raise `error` unless record_id is 16 lowercase hex digits: the id
    names a file under records/, so nothing else may reach a path."""
    if not (isinstance(record_id, str) and re.fullmatch(RECORD_ID, record_id)):
        raise error(f"record_id {record_id!r} is not 16 hex digits")


def _file(record_id: str, version: int) -> str:
    return f"records/{record_id}.v{version}.json"


def _write_new(directory: Path, text: str, paths) -> None:
    """Write text, fsynced, to the first of paths not taken yet, if any is free."""
    fd, staged = tempfile.mkstemp(dir=directory, suffix=TMP_SUFFIX)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        for path in paths:
            with suppress(FileExistsError):
                os.link(staged, path)
                return
    finally:
        os.unlink(staged)


class EnergyDB:
    def __init__(self, root):
        self.root = Path(root)
        self.records_dir = self.root / "records"
        self.hamiltonians_dir = self.root / "hamiltonians"
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self.hamiltonians_dir.mkdir(exist_ok=True)

    def put(self, record: EnergyRecord) -> str:
        """Append the record as a new version under its content id."""
        record.validate()
        if not record.record_id:
            record.record_id = record.compute_id()
        if not record.created_at:
            record.created_at = datetime.now(timezone.utc).isoformat()
        start = len(self.versions(record.record_id)) + 1
        _write_new(
            self.records_dir,
            json.dumps(record.to_dict(), indent=1, sort_keys=True),
            (self.root / _file(record.record_id, v) for v in itertools.count(start)),
        )
        return record.record_id

    def put_hamiltonian(self, text: str, suffix: str) -> str:
        """Store text as hamiltonians/<hash of text><suffix>; return that name."""
        file = f"hamiltonians/{hashlib.sha256(text.encode()).hexdigest()[:16]}{suffix}"
        _write_new(self.hamiltonians_dir, text, [self.root / file])
        return file

    def versions(self, record_id: str) -> list:
        """{"version", "file"} entries for versions 1, 2, ... up to the first absent one."""
        check_record_id(record_id)
        entries = []
        while (self.root / (file := _file(record_id, len(entries) + 1))).exists():
            entries.append({"version": len(entries) + 1, "file": file})
        return entries

    def _load(self, file: str) -> EnergyRecord:
        with open(self.root / file) as fh:
            return EnergyRecord.from_dict(json.load(fh))

    def get(self, record_id: str, version: int | None = None) -> EnergyRecord:
        """Version `version` (default: the latest) of a record; KeyError if
        the id is malformed or that version does not exist."""
        check_record_id(record_id)
        if version is None:
            version = len(self.versions(record_id))
        try:
            return self._load(_file(record_id, version))
        except FileNotFoundError:
            raise KeyError(f"{record_id} version {version}") from None

    def _listing(self) -> dict:
        """One read of records/: record_id -> its version numbers."""
        found = defaultdict(list)
        for name in os.listdir(self.records_dir):
            if match := RECORD_NAME.fullmatch(name):
                found[match["id"]].append(int(match["version"]))
        return found

    def list_ids(self) -> list:
        """Ids with a version 1; audit reports files beyond a missing version."""
        return sorted(record_id for record_id, versions in self._listing().items() if 1 in versions)

    def query(self, molecule=None, basis=None, method=None, ansatz=None) -> list:
        """Latest-version records matching the filters, sorted by
        (molecule, bond length, created_at). method requires e_<method>."""
        if method is not None and method not in ("hf", "vqe", "exact"):
            raise UsageError(f"unknown method filter {method!r}")
        matches = []
        for record_id in self.list_ids():
            record = self.get(record_id)
            if (
                (molecule is None or record.molecule == molecule)
                and (basis is None or record.basis == basis)
                and (method is None or getattr(record, f"e_{method}") is not None)
                and (ansatz is None or record.ansatz == ansatz)
            ):
                matches.append(record)
        matches.sort(
            key=lambda r: (
                r.molecule,
                r.bond_length if r.bond_length is not None else float("inf"),
                r.created_at,
            )
        )
        return matches

    def audit(self) -> list:
        """Integrity problems found on disk; empty means healthy."""
        problems = [
            f"leftover temporary file {directory.name}/{name}"
            for directory in (self.records_dir, self.hamiltonians_dir)
            for name in sorted(os.listdir(directory)) if name.endswith(TMP_SUFFIX)
        ]
        for record_id, versions in sorted(self._listing().items()):
            versions.sort()
            missing = [_file(record_id, v) for v in range(1, versions[-1]) if v not in versions]
            if missing:
                problems.append(f"{record_id}: versions not contiguous: {versions} "
                                f"(missing file {', '.join(missing)})")
            for file in (_file(record_id, v) for v in versions):
                try:
                    record = self._load(file)
                except (OSError, ValueError, TypeError) as exc:
                    problems.append(f"{record_id}: unreadable {file}: {exc}")
                    continue
                if record.record_id != record_id:
                    problems.append(f"{record_id}: file {file} claims id {record.record_id}")
        return problems
