from __future__ import annotations

import dataclasses
import math

import pytest

from trustprop import clean, parse_store
from trustprop.errors import InputError, MalformedRowError
from trustprop.ingest import (
    baseline_columns,
    derive_department_rating,
    ground_truth_ratings,
    like_pct_to_rating,
)

DOCTOR_HEADER = ("id,name,hospital_ids,department_ids,qualification_score,"
                 "overall_experience_years,specialist_experience_years,like_pct,"
                 "vote_count,review_count,verified,claimed")
HOSPITAL_HEADER = "id,name,rating,stories_count,accreditation,location_category,department_ids"
DEPARTMENT_HEADER = "id,name,doctor_ids,hospital_ids"


def write_tables(tmp_path, doctors=(), hospitals=(), departments=()):
    paths = {}
    for name, header, rows in [
        ("doctors", DOCTOR_HEADER, doctors),
        ("hospitals", HOSPITAL_HEADER, hospitals),
        ("departments", DEPARTMENT_HEADER, departments),
    ]:
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        paths[name] = path
    return paths


GOOD_DOCTOR = "P1,Doc One,H1,D1,7,10,5,80,50,20,true,true"
GOOD_HOSPITAL = "H1,Hosp One,4.0,3,NABH,urban,D1"
GOOD_DEPARTMENT = "D1,Dept One,P1,H1"


def parse(paths):
    return parse_store(paths["doctors"], paths["hospitals"], paths["departments"])


def test_parse_demo_counts(demo_paths):
    store = parse_store(demo_paths["doctors"], demo_paths["hospitals"],
                        demo_paths["departments"])
    assert store.counts() == {"doctors": 5, "hospitals": 4, "departments": 4}
    assert store.provenance["raw"] == store.counts()


def test_parse_weighted_membership(demo_paths):
    store = parse_store(demo_paths["doctors"], demo_paths["hospitals"],
                        demo_paths["departments"])
    d1 = store.departments["D1"]
    assert d1.doctor_ids == frozenset({"P1", "P2", "P3"})
    assert d1.doctor_weights == {"P1": 10.0, "P2": 6.0, "P3": 8.0}
    assert d1.hospital_weights == {"H1": 2.0, "H2": 1.0, "H3": 2.0, "H4": 1.0}
    # unweighted lists carry no explicit weights
    assert store.doctors["P1"].hospital_ids == frozenset({"H1", "H2", "H3"})


def test_tables_with_utf8_bom_parse_like_the_originals(demo_paths, tmp_path):
    names = ("doctors", "hospitals", "departments")
    for name in names:
        text = demo_paths[name].read_text(encoding="utf-8")
        (tmp_path / f"{name}.csv").write_text("\ufeff" + text, encoding="utf-8")
    bom = parse_store(*(tmp_path / f"{name}.csv" for name in names))
    plain = parse_store(*(demo_paths[name] for name in names))
    assert (bom.doctors, bom.hospitals, bom.departments) == \
        (plain.doctors, plain.hospitals, plain.departments)


def test_table_that_is_not_utf8_rejected(tmp_path):
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR], hospitals=[GOOD_HOSPITAL],
                         departments=[GOOD_DEPARTMENT])
    with open(paths["doctors"], "ab") as handle:
        handle.write(b"P2,Caf\xe9,H1,D1,7,10,5,80,50,20,true,true\n")
    with pytest.raises(InputError, match="not UTF-8") as excinfo:
        parse(paths)
    assert str(paths["doctors"]) in str(excinfo.value)


def test_missing_column_rejected(tmp_path):
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR], hospitals=[GOOD_HOSPITAL],
                         departments=[GOOD_DEPARTMENT])
    paths["hospitals"].write_text("id,name\nH1,Hosp One\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"missing column\(s\) "):
        parse(paths)


def test_malformed_row_reports_path_and_line(tmp_path):
    bad = "P2,Doc Two,H1,D1,7,10,5,150,50,20,true,true"  # like_pct out of range
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR, bad],
                         hospitals=[GOOD_HOSPITAL], departments=[GOOD_DEPARTMENT])
    with pytest.raises(MalformedRowError) as excinfo:
        parse(paths)
    assert str(paths["doctors"]) in str(excinfo.value)
    assert ":3:" in str(excinfo.value)  # header is line 1, bad row is line 3


@pytest.mark.parametrize("row", [
    "P2,Doc,H1,D1,7,5,10,80,50,20,true,true",      # specialist years exceed overall
    "P2,Doc,H1,D1,7,10,5,80,50,20,maybe,true",     # bad boolean
    "P2,Doc,H1,D1,-1,10,5,80,50,20,true,true",     # negative qualification
    "P1,Doc,H1,D1,7,10,5,80,50,20,true,true",      # duplicate id
    "P2,Doc,H1;H1,D1,7,10,5,80,50,20,true,true",   # duplicate member
    "P2,Doc,H1,D1,inf,10,5,80,50,20,true,true",    # infinite qualification
    "P2,Doc,H1,D1,nan,10,5,80,50,20,true,true",    # NaN qualification
    "P2,Doc,H1,D1,7,Infinity,5,80,50,20,true,true",  # infinite experience
    "P;2,Doc,H1,D1,7,10,5,80,50,20,true,true",     # id holds the list separator
    "P:2,Doc,H1,D1,7,10,5,80,50,20,true,true",     # id holds the weight separator
    " ,Doc,H1,D1,7,10,5,80,50,20,true,true",       # blank id
    "P2,Doc,H1,D1,7,10,5,80,50,20,true,true,extra",  # more fields than the header
    "P2,Doc,H1:9,D1,7,10,5,80,50,20,true,true",    # weight on a hospital membership
    "P2,Doc,H1,D1:3,7,10,5,80,50,20,true,true",    # weight on a department membership
])
def test_bad_doctor_rows_rejected(tmp_path, row):
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR, row],
                         hospitals=[GOOD_HOSPITAL], departments=[GOOD_DEPARTMENT])
    with pytest.raises(MalformedRowError):
        parse(paths)


@pytest.mark.parametrize("hospitals, departments", [
    (["H:1,Hosp,4.0,3,NABH,urban,D1"], [GOOD_DEPARTMENT]),
    ([GOOD_HOSPITAL, "H1,Again,4.0,3,NABH,urban,D1"], [GOOD_DEPARTMENT]),
    ([GOOD_HOSPITAL], ["D;1,Dept,P1,H1"]),
    ([GOOD_HOSPITAL], [GOOD_DEPARTMENT, "D1,Again,P1,H1"]),
])
def test_bad_hospital_and_department_ids_rejected(tmp_path, hospitals, departments):
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR], hospitals=hospitals,
                         departments=departments)
    with pytest.raises(MalformedRowError, match=r":\d+: id: "):
        parse(paths)


def test_weighted_hospital_membership_rejected(tmp_path):
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR],
                         hospitals=["H1,Hosp One,4.0,3,NABH,urban,D1:7"],
                         departments=[GOOD_DEPARTMENT])
    with pytest.raises(MalformedRowError, match=r"hospitals\.csv:2: department_ids: weight given "
                                                 r"for 'D1'.* read only from departments\.csv"):
        parse(paths)


def test_department_row_with_extra_field_rejected(tmp_path):
    # an unquoted comma in the name shifts the member lists one field right
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR], hospitals=[GOOD_HOSPITAL],
                         departments=["D1,Cardiology, Adult,P1,H1"])
    with pytest.raises(MalformedRowError, match=r"departments\.csv:2: expected 4 fields, got 5"):
        parse(paths)


def test_negative_membership_weight_rejected(tmp_path):
    for department in ("D1,Dept One,P1:-2,H1", "D1,Dept One,P1:nan,H1",
                       "D1,Dept One,P1:inf,H1", "D1,Dept One,P1,H1:-inf"):
        paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR], hospitals=[GOOD_HOSPITAL],
                             departments=[department])
        with pytest.raises(MalformedRowError):
            parse(paths)


def test_clean_drops_unverified_and_dangling(tmp_path):
    doctors = [
        GOOD_DOCTOR,
        "P2,Doc Two,H1,D2,6,8,4,70,10,5,false,true",   # unverified: dropped
    ]
    hospitals = [GOOD_HOSPITAL, "H2,No Rating,,2,,rural,D2"]  # unrated: dropped
    departments = [GOOD_DEPARTMENT, "D2,Dept Two,P2,H2"]      # loses P2: dropped
    store = clean(parse(write_tables(tmp_path, doctors, hospitals, departments)))
    assert set(store.doctors) == {"P1"}
    assert set(store.hospitals) == {"H1"}
    assert set(store.departments) == {"D1"}
    filtered = store.provenance["filtered"]
    assert filtered == {"doctors": 1, "hospitals": 1, "departments": 1}


def test_clean_symmetrizes_doctor_department_membership(tmp_path):
    # P1 claims D2 but D2 does not list P1; the union keeps the edge both ways
    doctors = ["P1,Doc One,H1,D1;D2,7,10,5,80,50,20,true,true"]
    departments = [GOOD_DEPARTMENT, "D2,Dept Two,,H1"]
    store = clean(parse(write_tables(tmp_path, doctors, [GOOD_HOSPITAL], departments)))
    assert "D2" in store.doctors["P1"].department_ids
    assert store.departments["D2"].doctor_ids == frozenset({"P1"})


def test_clean_is_idempotent(demo_paths, demo_store):
    again = clean(demo_store)
    assert again.counts() == demo_store.counts()
    assert set(again.doctors) == set(demo_store.doctors)


def test_clean_prunes_weights_of_dropped_entities(tmp_path):
    doctors = [
        GOOD_DOCTOR,
        "P2,Doc Two,H1,D1,6,8,4,70,10,5,false,true",  # dropped, D1 weight must go too
    ]
    departments = ["D1,Dept One,P1:5;P2:7,H1"]
    store = clean(parse(write_tables(tmp_path, doctors, [GOOD_HOSPITAL], departments)))
    assert store.departments["D1"].doctor_weights == {"P1": 5.0}


def test_like_pct_to_rating_scale():
    assert like_pct_to_rating(96.0) == pytest.approx(4.8)
    assert like_pct_to_rating(0.0) == 0.0
    assert like_pct_to_rating(100.0) == 5.0
    with pytest.raises(InputError, match=r"like_pct must be within \[0, 100\], got 101.0"):
        like_pct_to_rating(101.0)


def test_department_rating_weighted_by_reviews(demo_store):
    # review-count-weighted mean of member doctor ratings (like_pct / 20)
    expected = {
        "D1": (4.8 * 84 + 4.4 * 40 + 4.6 * 66) / (84 + 40 + 66),
        "D2": (4.6 * 66 + 4.05 * 25) / (66 + 25),
        "D3": (4.4 * 40 + 3.85 * 18) / (40 + 18),
        "D4": 3.85,
    }
    for dept_id, want in expected.items():
        got = derive_department_rating(demo_store.departments[dept_id], demo_store)
        assert got == pytest.approx(want, abs=1e-12)


def test_ground_truth_ratings_layers(demo_store):
    truth = ground_truth_ratings(demo_store)
    assert set(truth) == {"hospital", "department", "doctor"}
    assert truth["hospital"]["H1"] == 4.5
    assert truth["doctor"]["P1"] == pytest.approx(4.8)
    assert truth["department"]["D4"] == pytest.approx(3.85)
    assert all(not math.isnan(v) for layer in truth.values() for v in layer.values())


def test_department_without_a_rated_member_is_unrated(demo_store):
    # P5 is D4's only member; D3 keeps P2's rating
    doctors = {**demo_store.doctors, "P5": dataclasses.replace(demo_store.doctors["P5"],
                                                                 like_pct=None)}
    store = dataclasses.replace(demo_store, doctors=doctors)
    assert derive_department_rating(store.departments["D4"], store) is None
    truth = ground_truth_ratings(store)
    assert sorted(truth["department"]) == ["D1", "D2", "D3"]
    assert truth["department"]["D3"] == pytest.approx(4.4)


def test_baseline_columns_cover_all_entities(demo_store):
    baselines = baseline_columns(demo_store)
    assert set(baselines) == {"hospital", "department", "doctor"}
    for name, column in baselines["doctor"].items():
        assert set(column) == set(demo_store.doctors), name
    assert baselines["hospital"]["stories_count"]["H1"] == 8
    assert baselines["doctor"]["vote_count"]["P3"] == 160
