"""File-backed energy/Hamiltonian database.

records/<record_id>.v<N>.json is version N of a record and the directory
listing is the whole index; hamiltonians/<sha256 of text>.fcidump holds the
FCIDUMP of the integrals a scan point used, named by a record's
hamiltonian_ref. Each file is fsynced under a temporary name, then
os.link-ed to its final name, which fails if that name exists: concurrent
writers (threads or processes) claim distinct versions without a lock, and
a crash leaves at most a temporary file, which audit reports.

Reads trust the listing too. A record's current version is its latest
contiguous one: v1, v2, ... up to the first missing number; files past a
gap are seen only by audit, and put refuses to fill the gap, which would
make them current. query and latest_versions take that version for
every id from one listing of records/ and read one file per id, with no
per-version existence checks. put accepts a preset record_id only when it
equals the record's content id: the hash of the fields of _IDENTITY that
EnergyRecord.content_key reads, so two records differing in any get two ids.
It accepts a hamiltonian_ref only as paths of files directly under
hamiltonians/, and audit reports any other ref it reads. emit_curve writes
records as the CSV dissociation curve that `molq curve` prints.

Ids and Hamiltonian names hash with CPython's built-in SHA-256, not
hashlib's, whose OpenSSL libcrypto added 3.4-3.8 MB to the benchmark's
peak_rss_mb on every workload (medians of 10 alternating pairs each, 2-core
x86-64 host, Python 3.11); only sample_expectation and SPSA, which draw from
numpy.random, still load OpenSSL through its secrets import.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import tempfile
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import UsageError, check_integer

try:                                    # CPython's built-in SHA-256, not OpenSSL's
    from _sha2 import sha256            # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10 and 3.11
    except ImportError:                 # an interpreter built without either
        from hashlib import sha256

VARIATIONAL_SLACK = 1e-9
RECORD_ID = "[0-9a-f]{16}"
METHODS = ("hf", "vqe", "exact")   # the energies a record carries, as e_<method>
RECORD_NAME = re.compile(rf"(?P<id>{RECORD_ID})\.v(?P<version>[1-9][0-9]*)\.json")
HAMILTONIAN_PATH = re.compile(r"hamiltonians/(?!\.\.?\Z)[^/]+")
TMP_SUFFIX = ".tmp"

# The fields that name a computation, each with the values at which it stays
# out of the record id. The first seven name every record. Each later field
# stays out when None or unset, so records stored before it existed keep
# their ids; ansatz_version is unset at 1, not at a current default, so no
# id changes meaning if the default does.
_IDENTITY = {
    "molecule": (), "geometry": (), "bond_length": (), "basis": (),
    "ansatz": (), "optimizer": (), "seed": (),
    "charge": (None, 0), "n_frozen": (None, 0), "depth": (None,),
    "budget": (None,), "ansatz_version": (None, 1),
}


@dataclass
class EnergyRecord:
    """One scan point: identity, energies, and method provenance.

    record_id hashes only the fields of _IDENTITY, which name the
    computation, so re-running the same configuration yields the same id and
    differing results stack up as versions under it. A failed point (error
    set, no energies) has the id of the computation that failed, so its
    fixed re-run is the next version under that id.
    """

    molecule: str
    basis: str
    geometry: object = None        # [[symbol, x, y, z], ...] in Angstrom, or {"fcidump": path}
    bond_length: float | None = None
    n_qubits: int | None = None
    e_hf: float | None = None
    e_vqe: float | None = None
    e_exact: float | None = None
    hamiltonian_ref: dict | None = None   # {"integrals": path of its FCIDUMP under the db root}
    ansatz: str | None = None
    optimizer: str | None = None
    seed: int | None = None
    charge: int = 0
    n_frozen: int = 0              # frozen-core spatial orbitals
    depth: int | None = None       # HEA layers; None for other ansatze
    ansatz_version: int | None = None   # options.ANSATZ_VERSIONS of the ansatz
    budget: int | None = None      # optimizer evaluation budget
    evaluations: int | None = None
    error: str | None = None
    record_id: str = ""
    created_at: str = ""

    def content_key(self) -> dict:
        return {name: value for name, unset in _IDENTITY.items()
                if (value := getattr(self, name)) not in unset}

    def compute_id(self) -> str:
        canonical = json.dumps(self.content_key(), sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode()).hexdigest()[:16]

    def validate(self):
        for name in ("molecule", "basis"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise UsageError(f"{name} must be a non-empty string, got {value!r}")
        for name in ("ansatz", "optimizer", "error", "created_at"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise UsageError(f"{name} must be a string, got {value!r}")
        if self.record_id:
            check_record_id(self.record_id, UsageError)
        if not _is_hamiltonian_ref(self.hamiltonian_ref):
            raise UsageError("hamiltonian_ref must be None or a dict of "
                             f"hamiltonians/<name> paths, got {self.hamiltonian_ref!r}")
        for name in ("bond_length", "e_hf", "e_vqe", "e_exact"):
            value = getattr(self, name)
            if value is not None and not _finite_real(value):
                raise UsageError(f"{name} must be a finite number, got {value!r}")
        optional = ("n_qubits", "evaluations", "seed", "depth", "ansatz_version", "budget")
        for name in optional + ("charge", "n_frozen"):
            value = getattr(self, name)
            if value is None and name in optional:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        for lo, hi in (("e_exact", "e_hf"), ("e_exact", "e_vqe")):
            a, b = getattr(self, lo), getattr(self, hi)
            if a is not None and b is not None and b < a - VARIATIONAL_SLACK:
                raise UsageError(f"variational bound violated: {hi} < {lo}")

    def to_dict(self) -> dict:
        """The fields by name, in fresh lists and dicts, so editing the
        result never edits the record."""
        return _copy(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyRecord":
        return cls(**data)


def _finite_real(value) -> bool:
    """An int or float (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int past the float range
        return False


def _is_hamiltonian_ref(ref) -> bool:
    """None, or a dict whose every value is `hamiltonians/<name>` with
    <name> one path component other than `.` and `..`: a ref never names a
    path outside hamiltonians/."""
    return ref is None or (isinstance(ref, dict) and all(
        isinstance(path, str) and HAMILTONIAN_PATH.fullmatch(path) for path in ref.values()
    ))


_CONTAINERS = (list, tuple, dict)


def _copy(container):
    """Copy a JSON-shaped list, tuple or dict and the containers inside it;
    the numbers and strings at its leaves are immutable and shared."""
    if isinstance(container, dict):
        return {key: _copy(item) if isinstance(item, _CONTAINERS) else item
                for key, item in container.items()}
    items = [_copy(item) if isinstance(item, _CONTAINERS) else item for item in container]
    return items if isinstance(container, list) else tuple(items)


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
        self._root = str(self.root)
        self.records_dir = self.root / "records"
        self.hamiltonians_dir = self.root / "hamiltonians"
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self.hamiltonians_dir.mkdir(exist_ok=True)

    def put(self, record: EnergyRecord) -> str:
        """Append the record under its content id as the first free version
        v1, v2, ...; UsageError, with nothing linked, where a version past
        that one exists."""
        record.validate()
        content_id = record.compute_id()
        if record.record_id and record.record_id != content_id:
            raise UsageError(f"record_id {record.record_id} is not the record's "
                             f"content id {content_id}")
        record.record_id = content_id
        if not record.created_at:
            record.created_at = datetime.now(timezone.utc).isoformat()
        _write_new(
            self.records_dir,
            json.dumps(vars(record), indent=1, sort_keys=True),
            self._free_versions(record.record_id),
        )
        return record.record_id

    def _free_versions(self, record_id: str):
        """The paths put tries to link, ascending: version v only where one
        stat finds v + 1 absent. A writer links v + 1 only once v exists, so
        v + 1 present and v absent is a gap, refused."""
        for version in itertools.count(1):
            path = f"{self._root}/{_file(record_id, version)}"
            if not os.path.exists(f"{self._root}/{_file(record_id, version + 1)}"):
                yield path
            elif not os.path.exists(path):
                raise UsageError(f"{record_id} has versions past missing version {version}; "
                                 "see molq db audit")

    def put_hamiltonian(self, text: str) -> str:
        """Store FCIDUMP text as hamiltonians/<hash of text>.fcidump; return
        that name. The name only appears by linking a written, fsynced file,
        so when it exists it holds this text and nothing is staged."""
        file = f"hamiltonians/{sha256(text.encode()).hexdigest()[:16]}.fcidump"
        if not os.path.exists(f"{self._root}/{file}"):
            _write_new(self.hamiltonians_dir, text, [f"{self._root}/{file}"])
        return file

    def versions(self, record_id: str) -> list:
        """{"version", "file"} entries for versions 1, 2, ... up to the first absent one."""
        check_record_id(record_id)
        entries = []
        while os.path.exists(f"{self._root}/" + (file := _file(record_id, len(entries) + 1))):
            entries.append({"version": len(entries) + 1, "file": file})
        return entries

    def _parse(self, file: str) -> EnergyRecord:
        with open(f"{self._root}/{file}") as fh:
            return EnergyRecord.from_dict(json.load(fh))

    def _load(self, record_id: str, version: int) -> EnergyRecord:
        """Version `version` of a well-formed id; KeyError if its file does
        not exist, OSError naming it and `molq db audit` if it holds no record."""
        file = _file(record_id, version)
        try:
            return self._parse(file)
        except FileNotFoundError:
            raise KeyError(f"{record_id} version {version}") from None
        except (ValueError, TypeError) as exc:
            raise OSError(f"unreadable {file} ({exc}); molq db audit lists every such file") from None

    def get(self, record_id: str, version: int | None = None) -> EnergyRecord:
        """Version `version` (default: the latest) of a record; KeyError if
        the id is malformed, the version is not an int >= 1 (checked before
        any path is formed) or that version does not exist."""
        check_record_id(record_id)
        if version is None:
            version = len(self.versions(record_id))
            if not version:
                raise KeyError(f"{record_id} has no version 1")
        else:
            check_integer("version", version, 1, KeyError)
        return self._load(record_id, version)

    def _listing(self) -> dict:
        """One read of records/: record_id -> its version numbers."""
        found = defaultdict(list)
        for name in os.listdir(self.records_dir):
            if match := RECORD_NAME.fullmatch(name):
                found[match["id"]].append(int(match["version"]))
        return found

    def latest_versions(self) -> dict:
        """One listing's record_id -> N, the highest version with 1..N all
        present, in id order, for the ids with a version 1; audit reports
        files beyond a missing version."""
        latest = {}
        for record_id, versions in sorted(self._listing().items()):
            present, version = set(versions), 0
            while version + 1 in present:
                version += 1
            if version:
                latest[record_id] = version
        return latest

    def list_ids(self) -> list:
        """Ids with a version 1."""
        return list(self.latest_versions())

    def query(self, molecule=None, basis=None, method=None, ansatz=None) -> list:
        """Latest-version records matching the filters, sorted by
        (molecule, bond length, created_at). method requires e_<method>."""
        if method is not None and method not in METHODS:
            raise UsageError(f"unknown method filter {method!r}")
        matches = []
        for record_id, version in self.latest_versions().items():
            record = self._load(record_id, version)
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
        """Integrity problems found on disk, a hamiltonian_ref naming a
        missing file among them; empty means healthy."""
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
            for version in versions:
                file = _file(record_id, version)
                try:
                    record = self._parse(file)
                except (OSError, ValueError, TypeError) as exc:
                    problems.append(f"{record_id}: unreadable {file}: {exc}")
                    continue
                if record.record_id != record_id:
                    problems.append(f"{record_id}: file {file} claims id {record.record_id}")
                if (content_id := record.compute_id()) != record_id:
                    problems.append(f"{record_id}: file {file} holds content id {content_id}")
                ref = record.hamiltonian_ref
                if not _is_hamiltonian_ref(ref):
                    problems.append(f"{record_id}: file {file} has a malformed "
                                    f"hamiltonian_ref {ref!r}")
                    continue
                for name in (ref or {}).values():
                    if not os.path.isfile(f"{self._root}/{name}"):
                        problems.append(f"{record_id}: file {file} refers to missing {name}")
        return problems


CURVE_HEADER = "bond_length_angstrom,e_hf,e_vqe,e_exact"


def emit_curve(records: list) -> str:
    """CSV rows ascending by bond length, 12 significant digits, absent
    energies left empty. A bond length may appear only once."""
    molecules = {record.molecule for record in records}
    if len(molecules) > 1:
        raise UsageError(f"records mix molecules: {sorted(molecules)}")

    def fmt(value):
        return "" if value is None else format(value, ".12g")

    rows = [CURVE_HEADER]
    ordered = sorted(
        records,
        key=lambda r: r.bond_length if r.bond_length is not None else float("inf"),
    )
    for previous, record in zip([None] + ordered, ordered):
        if record.bond_length is None:
            raise UsageError("record without bond length in curve emission")
        if previous is not None and previous.bond_length == record.bond_length:
            a, b = previous.to_dict(), record.to_dict()
            differ = [k for k in a if k not in ("record_id", "created_at") and a[k] != b[k]]
            raise UsageError(
                f"two records at bond length {record.bond_length:g}, differing in "
                f"{', '.join(differ) or 'nothing'}; filter the query to one configuration"
            )
        rows.append(
            f"{fmt(record.bond_length)},{fmt(record.e_hf)},"
            f"{fmt(record.e_vqe)},{fmt(record.e_exact)}"
        )
    return "\n".join(rows) + "\n"
