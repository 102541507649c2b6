"""Flat-file ingestion: entity records, CSV parsing, cleaning, rating derivation.

Input is three CSV files (doctors, hospitals, departments) with documented
headers. Membership cells are ``;``-separated id lists; an element may carry an
optional ``:weight`` suffix (``P1:10;P2:6``) giving the belongs-to weight for
that specific pair. Departments use this to pin per-doctor qualification
weights and per-hospital doctor counts; elements without a suffix fall back to
the scalar defaults (the doctor's own qualification score, or the count of
co-affiliated doctors computed from the doctor table).
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
from dataclasses import dataclass, field
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
    name: str
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
    name: str
    rating: float | None
    stories_count: int
    accreditation: str | None
    location_category: str | None
    department_ids: frozenset[str]


@dataclass(frozen=True)
class DepartmentRecord:
    id: str
    name: str
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


# --- cell parsers ---

def _parse_members(cell: str, path: str, line: int, what: str,
                   weighted: bool = False) -> tuple[frozenset[str], dict[str, float]]:
    """Ids of a ``;``-separated membership cell and their ``id:weight`` weights, which
    only a ``weighted`` cell (one of departments.csv) may carry."""
    ids: set[str] = set()
    weights: dict[str, float] = {}
    for part in cell.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            ident, _, raw = part.partition(":")
            ident = ident.strip()
            if not weighted:
                raise MalformedRowError(path, line, f"{what}: weight given for {ident!r}, but "
                                        "membership weights are read only from departments.csv")
            try:
                weight = float(raw)
            except ValueError:
                raise MalformedRowError(path, line, f"{what}: bad weight {raw!r} for {ident!r}")
            if not math.isfinite(weight):
                raise MalformedRowError(path, line, f"{what}: non-finite weight for {ident!r}")
            if weight < 0:
                raise MalformedRowError(path, line, f"{what}: negative weight for {ident!r}")
            weights[ident] = weight
        else:
            ident = part
        if not ident:
            raise MalformedRowError(path, line, f"{what}: empty id in list")
        if ident in ids:
            raise MalformedRowError(path, line, f"{what}: duplicate id {ident!r}")
        ids.add(ident)
    return frozenset(ids), weights


def _parse_float(cell: str, path: str, line: int, what: str,
                 lo: float | None = None, hi: float | None = None) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise MalformedRowError(path, line, f"{what}: not a number: {cell!r}")
    if not math.isfinite(value):
        raise MalformedRowError(path, line, f"{what}: {cell!r} is not a finite number")
    if lo is not None and value < lo or hi is not None and value > hi:
        raise MalformedRowError(path, line, f"{what}: {value} outside [{lo}, {hi}]")
    return value


def _parse_count(cell: str, path: str, line: int, what: str) -> int:
    cell = cell.strip()
    if not cell:
        return 0
    try:
        value = int(cell)
    except ValueError:
        raise MalformedRowError(path, line, f"{what}: not an integer: {cell!r}")
    if value < 0:
        raise MalformedRowError(path, line, f"{what}: negative count")
    return value


def _parse_bool(cell: str, path: str, line: int, what: str) -> bool:
    word = cell.strip().lower()
    if word not in _BOOL_WORDS:
        raise MalformedRowError(path, line, f"{what}: expected true/false, got {cell!r}")
    return _BOOL_WORDS[word]


def _read_rows(path: str, columns: tuple[str, ...], digest):
    """Yield ``(line, id, cells)`` for each data row; ids must be non-empty,
    unique in the file, and free of the ``;`` and ``:`` that membership cells
    use as separators. The file's bytes, as read, also go into ``digest``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # length first, so that bytes moved from one table to the next change the digest
    digest.update(len(data).to_bytes(8, "big"))
    digest.update(data)
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    with io.StringIO(text, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: file is empty, expected header {','.join(columns)}")
        header = [h.strip() for h in header]
        missing = [c for c in columns if c not in header]
        if missing:
            raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
        index = {c: header.index(c) for c in columns}
        seen: set[str] = set()
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise MalformedRowError(path, line, f"expected {len(header)} fields, got {len(row)}")
            ident = row[index["id"]].strip()
            if not ident:
                raise MalformedRowError(path, line, "id: must be non-empty")
            if ";" in ident or ":" in ident:
                raise MalformedRowError(path, line,
                                        f"id: {ident!r} holds ';' or ':', which membership cells reserve")
            if ident in seen:
                raise MalformedRowError(path, line, f"id: duplicate id {ident!r}")
            seen.add(ident)
            yield line, ident, {c: row[index[c]] for c in columns}


def parse_store(doctors_path, hospitals_path, departments_path) -> EntityStore:
    """Parse the three entity CSVs into an uncleaned store.

    Range checks happen here (a like percentage of 130 is a malformed row, not
    a cleanable record); relational checks are clean()'s job. Provenance
    records the raw counts and ``inputs_sha256``, a digest of the three files'
    bytes, by which ``eval`` tells whether a network was built from these tables.
    """
    store = EntityStore()
    digest = hashlib.sha256()
    dpath = str(Path(doctors_path))
    for line, ident, cells in _read_rows(dpath, DOCTOR_COLUMNS, digest):
        hospital_ids, _ = _parse_members(cells["hospital_ids"], dpath, line, "hospital_ids")
        department_ids, _ = _parse_members(cells["department_ids"], dpath, line, "department_ids")
        overall = _parse_float(cells["overall_experience_years"], dpath, line,
                               "overall_experience_years", lo=0.0)
        specialist = _parse_float(cells["specialist_experience_years"], dpath, line,
                                  "specialist_experience_years", lo=0.0)
        if overall is not None and specialist is not None and specialist > overall:
            raise MalformedRowError(dpath, line,
                                    "specialist_experience_years exceeds overall_experience_years")
        store.doctors[ident] = DoctorRecord(
            id=ident,
            name=cells["name"].strip(),
            hospital_ids=hospital_ids,
            department_ids=department_ids,
            qualification_score=_parse_float(cells["qualification_score"], dpath, line,
                                             "qualification_score", lo=0.0),
            overall_experience_years=overall,
            specialist_experience_years=specialist,
            like_pct=_parse_float(cells["like_pct"], dpath, line, "like_pct", lo=0.0, hi=100.0),
            vote_count=_parse_count(cells["vote_count"], dpath, line, "vote_count"),
            review_count=_parse_count(cells["review_count"], dpath, line, "review_count"),
            verified=_parse_bool(cells["verified"], dpath, line, "verified"),
            claimed=_parse_bool(cells["claimed"], dpath, line, "claimed"),
        )

    hpath = str(Path(hospitals_path))
    for line, ident, cells in _read_rows(hpath, HOSPITAL_COLUMNS, digest):
        department_ids, _ = _parse_members(cells["department_ids"], hpath, line, "department_ids")
        store.hospitals[ident] = HospitalRecord(
            id=ident,
            name=cells["name"].strip(),
            rating=_parse_float(cells["rating"], hpath, line, "rating", lo=0.0, hi=RATING_SCALE),
            stories_count=_parse_count(cells["stories_count"], hpath, line, "stories_count"),
            accreditation=cells["accreditation"].strip() or None,
            location_category=cells["location_category"].strip().lower() or None,
            department_ids=department_ids,
        )

    ppath = str(Path(departments_path))
    for line, ident, cells in _read_rows(ppath, DEPARTMENT_COLUMNS, digest):
        doctor_ids, doctor_weights = _parse_members(cells["doctor_ids"], ppath, line, "doctor_ids",
                                                    weighted=True)
        hospital_ids, hospital_weights = _parse_members(cells["hospital_ids"], ppath, line,
                                                        "hospital_ids", weighted=True)
        store.departments[ident] = DepartmentRecord(
            id=ident,
            name=cells["name"].strip(),
            doctor_ids=doctor_ids,
            hospital_ids=hospital_ids,
            doctor_weights=doctor_weights,
            hospital_weights=hospital_weights,
        )

    store.provenance = {"raw": store.counts(), "inputs_sha256": digest.hexdigest()}
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
    for p in sorted(doctors):
        doc = store.doctors[p]
        out.doctors[p] = dataclasses.replace(doc, hospital_ids=doc.hospital_ids & hospitals,
                                             department_ids=frozenset(member_of[p] & departments))
    for h in sorted(hospitals):
        rec = store.hospitals[h]
        out.hospitals[h] = dataclasses.replace(rec, department_ids=rec.department_ids & departments)
    for d in sorted(departments):
        dept = store.departments[d]
        ps, hs = frozenset(members[d] & doctors), dept.hospital_ids & hospitals
        out.departments[d] = dataclasses.replace(
            dept, doctor_ids=ps, hospital_ids=hs,
            doctor_weights={p: w for p, w in dept.doctor_weights.items() if p in ps},
            hospital_weights={h: w for h, w in dept.hospital_weights.items() if h in hs},
        )
    out.provenance["filtered"] = out.counts()
    return out


# --- ratings ---

def like_pct_to_rating(like_pct: float) -> float:
    """Map a like percentage (0..100) onto the 0..5 rating scale."""
    if not 0.0 <= like_pct <= 100.0:
        raise InputError(f"like_pct must be within [0, 100], got {like_pct}")
    return like_pct / 20.0


def derive_department_rating(dept: DepartmentRecord, store: EntityStore) -> float:
    """Review-count-weighted mean rating of the department's rated members.

    Members without a like percentage carry no rating and are skipped; if no
    member is rated the department rates 0. When every rated member has zero
    reviews the weights collapse, so the plain mean is used instead.
    """
    rated = [(like_pct_to_rating(doc.like_pct), doc.review_count)
             for p in sorted(dept.doctor_ids)
             if (doc := store.doctors.get(p)) is not None and doc.like_pct is not None]
    if not rated:
        return 0.0
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
        "department": {d: derive_department_rating(dept, store)
                       for d, dept in store.departments.items()},
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

