"""Flat-file ingestion: entity records, CSV parsing, cleaning, rating derivation.

Input is three CSV files (doctors, hospitals, departments) with documented
headers. Membership cells are ``;``-separated id lists; an element may carry an
optional ``:weight`` suffix (``P1:10;P2:6``) giving the belongs-to weight for
that specific pair. Departments use this to pin per-doctor qualification
weights and per-hospital doctor counts; elements without a suffix fall back to
the scalar defaults (the doctor's own qualification score, or the count of
co-affiliated doctors computed from the doctor table).

Each table parses through a map from column to cell parser. A parser raises ValueError
with the reason, which ``_read_rows`` alone turns into a MalformedRowError.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .errors import InputError, MalformedRowError

RATING_SCALE = 5.0

DOCTOR_COLUMNS = (
    "id", "name", "hospital_ids", "department_ids", "qualification_score",
    "overall_experience_years", "specialist_experience_years", "like_pct",
    "vote_count", "review_count", "verified", "claimed",
)
HOSPITAL_COLUMNS = (
    "id", "name", "rating", "stories_count", "accreditation",
    "location_category", "department_ids",
)
DEPARTMENT_COLUMNS = ("id", "name", "doctor_ids", "hospital_ids")

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass(frozen=True)
class DoctorRecord:
    id: str
    hospital_ids: frozenset[str]
    department_ids: frozenset[str]
    qualification_score: float | None
    overall_experience_years: float | None
    specialist_experience_years: float | None
    like_pct: float | None
    vote_count: int
    review_count: int
    verified: bool
    claimed: bool


@dataclass(frozen=True)
class HospitalRecord:
    id: str
    rating: float | None
    stories_count: int
    department_ids: frozenset[str]


@dataclass(frozen=True)
class DepartmentRecord:
    id: str
    doctor_ids: frozenset[str]
    hospital_ids: frozenset[str]
    #: explicit per-doctor belongs-to weights (subset of doctor_ids)
    doctor_weights: dict[str, float] = field(default_factory=dict)
    #: explicit per-hospital doctor counts (subset of hospital_ids)
    hospital_weights: dict[str, float] = field(default_factory=dict)


@dataclass
class EntityStore:
    """All parsed records, keyed by id."""

    doctors: dict[str, DoctorRecord] = field(default_factory=dict)
    hospitals: dict[str, HospitalRecord] = field(default_factory=dict)
    departments: dict[str, DepartmentRecord] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        return {
            "doctors": len(self.doctors),
            "hospitals": len(self.hospitals),
            "departments": len(self.departments),
        }


# --- cell parsers: each raises ValueError with the reason for a bad cell ---

def _parse_id(cell: str) -> str:
    ident = cell.strip()
    if not ident:
        raise ValueError("must be non-empty")
    if ";" in ident or ":" in ident:
        raise ValueError(f"{ident!r} holds ';' or ':', which membership cells reserve")
    return ident


def _parse_members(cell: str, weighted: bool = False):
    """The ids of a ``;``-separated membership cell. Only a ``weighted`` cell (one of
    departments.csv) may give ``id:weight`` elements; it parses to ``(ids, weights)``."""
    ids: set[str] = set()
    weights: dict[str, float] = {}
    for part in cell.split(";"):
        part = part.strip()
        if not part:
            continue
        ident, colon, raw = part.partition(":")
        ident = ident.strip()
        if colon:
            if not weighted:
                raise ValueError(f"weight given for {ident!r}, but "
                                 "membership weights are read only from departments.csv")
            try:
                weight = float(raw)
            except ValueError:
                raise ValueError(f"bad weight {raw!r} for {ident!r}") from None
            if not math.isfinite(weight):
                raise ValueError(f"non-finite weight for {ident!r}")
            if weight < 0:
                raise ValueError(f"negative weight for {ident!r}")
            weights[ident] = weight
        if not ident:
            raise ValueError("empty id in list")
        if ident in ids:
            raise ValueError(f"duplicate id {ident!r}")
        ids.add(ident)
    return (frozenset(ids), weights) if weighted else frozenset(ids)


def _parse_float(cell: str, hi: float | None = None) -> float | None:
    """A non-negative number, at most ``hi`` when given; None for an empty cell."""
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    if value < 0.0 or hi is not None and value > hi:
        raise ValueError(f"{value} below 0.0" if hi is None else f"{value} outside [0.0, {hi}]")
    return value


def _parse_count(cell: str) -> int:
    cell = cell.strip()
    if not cell:
        return 0
    try:
        value = int(cell)
    except ValueError:
        raise ValueError(f"not an integer: {cell!r}") from None
    if value < 0:
        raise ValueError("negative count")
    return value


def _parse_bool(cell: str) -> bool:
    word = cell.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"expected true/false, got {cell!r}")
    return _BOOL_WORDS[word]


# each table's parsed columns, in the field order of its record
_DOCTOR_PARSERS = {
    "id": _parse_id, "hospital_ids": _parse_members, "department_ids": _parse_members,
    "qualification_score": _parse_float, "overall_experience_years": _parse_float,
    "specialist_experience_years": _parse_float, "like_pct": partial(_parse_float, hi=100.0),
    "vote_count": _parse_count, "review_count": _parse_count, "verified": _parse_bool,
    "claimed": _parse_bool}
_HOSPITAL_PARSERS = {"id": _parse_id, "rating": partial(_parse_float, hi=RATING_SCALE),
                     "stories_count": _parse_count, "department_ids": _parse_members}
_DEPARTMENT_PARSERS = {"id": _parse_id, "doctor_ids": partial(_parse_members, weighted=True),
                       "hospital_ids": partial(_parse_members, weighted=True)}


def read_table(path) -> bytes:
    """The bytes of one input table; InputError when it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def inputs_sha256(tables: list[bytes]) -> str:
    """SHA-256 over the input tables' bytes, each led by its length, so that
    bytes moved from one table to the next change the digest."""
    digest = hashlib.sha256()
    for data in tables:
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def _read_rows(path: str, data: bytes, columns: tuple[str, ...], parsers: dict):
    """Yield ``(line, values)`` for each data row of the table ``path`` holding ``data``:
    its cells parsed through ``parsers``, in their order. The header must name each of
    ``columns`` once, and the rows' ids must be unique."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    with io.StringIO(text, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: file is empty, expected header {','.join(columns)}")
        header = [h.strip() for h in header]
        for fault, faulty in (("missing", [c for c in columns if c not in header]),
                              ("repeated", [c for c in columns if header.count(c) > 1])):
            if faulty:
                raise InputError(f"{path}: {fault} column(s) {', '.join(faulty)}")
        cells = [(column, header.index(column), parse) for column, parse in parsers.items()]
        seen: set[str] = set()
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise MalformedRowError(path, line, f"expected {len(header)} fields, got {len(row)}")
            values = []
            for column, index, parse in cells:
                try:
                    values.append(parse(row[index]))
                except ValueError as exc:
                    raise MalformedRowError(path, line, f"{column}: {exc}") from None
            if values[0] in seen:
                raise MalformedRowError(path, line, f"id: duplicate id {values[0]!r}")
            seen.add(values[0])
            yield line, values


def parse_store(doctors_path, hospitals_path, departments_path) -> EntityStore:
    """Parse the three entity CSVs into an uncleaned store.

    Range checks happen here (a like percentage of 130 is a malformed row, not
    a cleanable record); relational checks are clean()'s job. Provenance
    records the raw counts and ``inputs_sha256``, a digest of the three files'
    bytes, by which the scoring commands tell whether a network was built from these tables.
    """
    store = EntityStore()
    dpath, hpath, ppath = (str(Path(p)) for p in (doctors_path, hospitals_path, departments_path))
    tables = [read_table(p) for p in (dpath, hpath, ppath)]
    for line, values in _read_rows(dpath, tables[0], DOCTOR_COLUMNS, _DOCTOR_PARSERS):
        doc = DoctorRecord(*values)
        overall, specialist = doc.overall_experience_years, doc.specialist_experience_years
        if overall is not None and specialist is not None and specialist > overall:
            raise MalformedRowError(dpath, line,
                                    "specialist_experience_years exceeds overall_experience_years")
        store.doctors[doc.id] = doc
    for _, values in _read_rows(hpath, tables[1], HOSPITAL_COLUMNS, _HOSPITAL_PARSERS):
        store.hospitals[values[0]] = HospitalRecord(*values)
    for _, (ident, (ps, p_weights), (hs, h_weights)) in _read_rows(
            ppath, tables[2], DEPARTMENT_COLUMNS, _DEPARTMENT_PARSERS):
        store.departments[ident] = DepartmentRecord(ident, ps, hs, p_weights, h_weights)
    store.provenance = {"raw": store.counts(), "inputs_sha256": inputs_sha256(tables)}
    return store


# --- cleaning ---

def clean(store: EntityStore) -> EntityStore:
    """Return a new store with untrustworthy records removed and references repaired.

    Doctor<->department membership is first symmetrized (union of both
    declarations). Hospitals are kept when they have a rating. Starting from
    the verified, claimed doctors with a qualification score and overall
    experience, two rules run until the kept doctors stop changing: a
    department is kept when a kept doctor belongs to it, and a doctor is kept
    when it lists a kept hospital and belongs to a kept department. Every kept
    record is then rebuilt once with its dangling ids and weights pruned, so
    the result is idempotent under re-cleaning even when drops cascade.
    """
    member_of = {p: set(doc.department_ids) for p, doc in store.doctors.items()}
    for d, dept in store.departments.items():
        for p in member_of.keys() & dept.doctor_ids:
            member_of[p].add(d)
    members: dict[str, set[str]] = {d: set() for d in store.departments}
    for p, ds in member_of.items():
        for d in members.keys() & ds:
            members[d].add(p)

    hospitals = {h for h, rec in store.hospitals.items() if rec.rating is not None}
    doctors = {p for p, doc in store.doctors.items()
               if doc.verified and doc.claimed and doc.qualification_score is not None
               and doc.overall_experience_years is not None}
    while True:
        departments = {d for d, ps in members.items() if not ps.isdisjoint(doctors)}
        kept = {p for p in doctors if not store.doctors[p].hospital_ids.isdisjoint(hospitals)
                and not member_of[p].isdisjoint(departments)}
        if len(kept) == len(doctors):
            break
        doctors = kept

    out = EntityStore(provenance=dict(store.provenance))
    # constructors, not dataclasses.replace, which costs about twice as much per record
    for p in sorted(doctors):
        doc = store.doctors[p]
        out.doctors[p] = DoctorRecord(
            doc.id, doc.hospital_ids & hospitals, frozenset(member_of[p] & departments),
            doc.qualification_score, doc.overall_experience_years, doc.specialist_experience_years,
            doc.like_pct, doc.vote_count, doc.review_count, doc.verified, doc.claimed)
    for h in sorted(hospitals):
        rec = store.hospitals[h]
        out.hospitals[h] = HospitalRecord(rec.id, rec.rating, rec.stories_count,
                                          rec.department_ids & departments)
    for d in sorted(departments):
        dept = store.departments[d]
        ps, hs = frozenset(members[d] & doctors), dept.hospital_ids & hospitals
        out.departments[d] = DepartmentRecord(
            dept.id, ps, hs, {p: w for p, w in dept.doctor_weights.items() if p in ps},
            {h: w for h, w in dept.hospital_weights.items() if h in hs})
    out.provenance["filtered"] = out.counts()
    return out


# --- ratings ---

def like_pct_to_rating(like_pct: float) -> float:
    """Map a like percentage (0..100) onto the 0..5 rating scale."""
    if not 0.0 <= like_pct <= 100.0:
        raise InputError(f"like_pct must be within [0, 100], got {like_pct}")
    return like_pct / 20.0


def derive_department_rating(dept: DepartmentRecord, store: EntityStore) -> float | None:
    """Review-count-weighted mean rating of the department's rated members.

    Members without a like percentage carry no rating and are skipped; if no
    member is rated the department is unrated (None). When every rated member
    has zero reviews the weights collapse, so the plain mean is used instead.
    """
    rated = [(like_pct_to_rating(doc.like_pct), doc.review_count)
             for p in sorted(dept.doctor_ids)
             if (doc := store.doctors.get(p)) is not None and doc.like_pct is not None]
    if not rated:
        return None
    total_weight = sum(w for _, w in rated)
    if total_weight == 0:
        return sum(r for r, _ in rated) / len(rated)
    return sum(r * w for r, w in rated) / total_weight


def ground_truth_ratings(store: EntityStore) -> dict[str, dict[str, float]]:
    """Per-layer rating vectors used as evaluation ground truth.

    Hospitals use their own rating; departments use the derived member rating;
    doctors use the like-percentage mapping. Entities without a rating are
    omitted (they cannot anchor a comparison).
    """
    return {
        "hospital": {h: rec.rating for h, rec in store.hospitals.items() if rec.rating is not None},
        "department": {d: rating for d, dept in store.departments.items()
                       if (rating := derive_department_rating(dept, store)) is not None},
        "doctor": {p: like_pct_to_rating(doc.like_pct)
                   for p, doc in store.doctors.items() if doc.like_pct is not None},
    }


def baseline_columns(store: EntityStore) -> dict[str, dict[str, dict[str, float]]]:
    """Raw per-entity columns used as ranking baselines, per layer."""
    doctors_at: dict[str, int] = {h: 0 for h in store.hospitals}
    for doc in store.doctors.values():
        for h in doc.hospital_ids:
            if h in doctors_at:
                doctors_at[h] += 1
    return {
        "hospital": {
            "doctor_count": {h: float(doctors_at[h]) for h in store.hospitals},
            "department_count": {h: float(len(rec.department_ids))
                                 for h, rec in store.hospitals.items()},
            "stories_count": {h: float(rec.stories_count) for h, rec in store.hospitals.items()},
        },
        "department": {
            "doctor_count": {d: float(len(dept.doctor_ids))
                             for d, dept in store.departments.items()},
            "review_count": {d: float(sum(store.doctors[p].review_count
                                          for p in dept.doctor_ids if p in store.doctors))
                             for d, dept in store.departments.items()},
        },
        "doctor": {
            "vote_count": {p: float(doc.vote_count) for p, doc in store.doctors.items()},
            "review_count": {p: float(doc.review_count) for p, doc in store.doctors.items()},
            "overall_experience_years": {p: float(doc.overall_experience_years or 0.0)
                                         for p, doc in store.doctors.items()},
            "specialist_experience_years": {p: float(doc.specialist_experience_years or 0.0)
                                            for p, doc in store.doctors.items()},
        },
    }

