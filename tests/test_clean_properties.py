"""Properties of ``clean`` on generated dirty stores.

Stores draw their ids from pools larger than the tables, so memberships dangle
on both sides; doctors may be unverified, unclaimed or miss a required field,
hospitals may be unrated, and departments carry explicit weights.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop import clean
from trustprop.ingest import DepartmentRecord, DoctorRecord, EntityStore, HospitalRecord

IDS = {prefix: [f"{prefix}{i}" for i in range(n)] for prefix, n in (("P", 7), ("H", 5), ("D", 4))}
mostly = st.sampled_from([True, True, True, True, False])
weights = st.sampled_from([0.0, 2.0, 7.5])


def _some(draw, pool, halvings=1):
    """Each id of ``pool`` with probability ``2 ** -halvings``: an AND of random bit masks."""
    bits = st.integers(0, 2 ** len(pool) - 1)
    mask = 2 ** len(pool) - 1
    for _ in range(halvings):
        mask &= draw(bits)
    return frozenset(ident for i, ident in enumerate(pool) if mask >> i & 1)


def _most(draw, pool):
    return frozenset(pool) - _some(draw, pool, 2)


def _table(draw, prefix):
    """Row ids of one table; the pool's last id is never a row, so it always dangles."""
    return sorted(_most(draw, IDS[prefix][:-1]))


@st.composite
def dirty_stores(draw):
    # each doctor's departments; either side of the membership may leave a pair out
    affiliation = {p: _some(draw, IDS["D"]) for p in _table(draw, "P")}
    doctors = {
        p: DoctorRecord(
            id=p, hospital_ids=_some(draw, IDS["H"]),
            department_ids=ds if draw(mostly) else frozenset(),
            qualification_score=draw(st.sampled_from([None, 3.0, 8.0, 8.0, 8.0])),
            overall_experience_years=draw(st.sampled_from([None, 12.0, 12.0, 12.0, 12.0])),
            specialist_experience_years=None, like_pct=draw(st.sampled_from([None, 60.0])),
            vote_count=1, review_count=2, verified=draw(mostly), claimed=draw(mostly))
        for p, ds in affiliation.items()
    }
    hospitals = {
        h: HospitalRecord(id=h, rating=draw(st.sampled_from([None, 4.0, 4.0])), stories_count=0,
                          department_ids=_some(draw, IDS["D"]))
        for h in _table(draw, "H")
    }
    departments = {}
    for d in _table(draw, "D"):
        listed = _most(draw, IDS["P"]) & {p for p, ds in affiliation.items() if d in ds}
        doctor_ids = listed | _some(draw, IDS["P"], 3)
        hospital_ids = _some(draw, IDS["H"])
        departments[d] = DepartmentRecord(
            id=d, doctor_ids=doctor_ids, hospital_ids=hospital_ids,
            doctor_weights={p: draw(weights) for p in sorted(_some(draw, sorted(doctor_ids)))},
            hospital_weights={h: draw(weights) for h in sorted(_some(draw, sorted(hospital_ids)))})
    return EntityStore(doctors=doctors, hospitals=hospitals, departments=departments)


def _declared_departments(store, p):
    """A raw doctor's departments: its own list plus every department listing it."""
    return store.doctors[p].department_ids | {
        d for d, dept in store.departments.items() if p in dept.doctor_ids}


def _declared_members(store, d):
    return store.departments[d].doctor_ids | {
        p for p, doc in store.doctors.items() if d in doc.department_ids}


def _eligible(doc):
    return doc.verified and doc.claimed and doc.qualification_score is not None \
        and doc.overall_experience_years is not None


property_settings = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@property_settings
@given(dirty_stores())
def test_clean_is_idempotent(store):
    once = clean(store)
    assert clean(once) == once


@property_settings
@given(dirty_stores())
def test_kept_records_obey_every_rule_and_resolve(store):
    out = clean(store)
    doctors, hospitals, departments = set(out.doctors), set(out.hospitals), set(out.departments)
    for p, doc in out.doctors.items():
        assert _eligible(doc)
        assert doc.hospital_ids and doc.hospital_ids == store.doctors[p].hospital_ids & hospitals
        assert doc.department_ids and doc.department_ids == _declared_departments(store, p) & departments
    for rec in out.hospitals.values():
        assert rec.rating is not None
        assert rec.department_ids <= departments
    for d, dept in out.departments.items():
        assert dept.doctor_ids and dept.doctor_ids <= doctors
        assert dept.hospital_ids <= hospitals
        assert dept.doctor_weights.keys() <= dept.doctor_ids
        assert dept.hospital_weights.keys() <= dept.hospital_ids
        assert dept.doctor_ids == {p for p, doc in out.doctors.items() if d in doc.department_ids}
    assert list(out.doctors) == sorted(doctors)
    assert out.provenance["filtered"] == out.counts()


@property_settings
@given(dirty_stores())
def test_every_drop_breaks_a_rule_against_the_kept_sets(store):
    out = clean(store)
    for p in store.doctors.keys() - out.doctors.keys():
        doc = store.doctors[p]
        assert not (_eligible(doc) and doc.hospital_ids & out.hospitals.keys()
                    and _declared_departments(store, p) & out.departments.keys()), p
    for d in store.departments.keys() - out.departments.keys():
        assert not _declared_members(store, d) & out.doctors.keys(), d
    for h in store.hospitals.keys() - out.hospitals.keys():
        assert store.hospitals[h].rating is None, h
