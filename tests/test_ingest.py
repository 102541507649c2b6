from __future__ import annotations

import dataclasses
import math

import pytest

from trustprop import clean, ingest, parse_store
from trustprop.errors import InputError, MalformedRowError
from trustprop.ingest import (
    DEPARTMENT_COLUMNS,
    DOCTOR_COLUMNS,
    HOSPITAL_COLUMNS,
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


@pytest.mark.parametrize("table, column", [
    (table, column) for table, columns in [("doctors", DOCTOR_COLUMNS),
                                           ("hospitals", HOSPITAL_COLUMNS),
                                           ("departments", DEPARTMENT_COLUMNS)]
    for column in columns])
def test_every_documented_column_is_required(tmp_path, table, column):
    # name, accreditation and location_category are never read, but stay required
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR], hospitals=[GOOD_HOSPITAL],
                         departments=[GOOD_DEPARTMENT])
    header, row = paths[table].read_text(encoding="utf-8").splitlines()
    keep = [i for i, name in enumerate(header.split(",")) if name != column]
    paths[table].write_text("\n".join(",".join(line.split(",")[i] for i in keep)
                                      for line in (header, row)) + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"{table}\.csv: missing column\(s\) {column}$"):
        parse(paths)


def test_repeated_documented_column_rejected(tmp_path):
    # a second rating column must not be dropped silently in favour of the first
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR], hospitals=[GOOD_HOSPITAL],
                         departments=[GOOD_DEPARTMENT])
    paths["hospitals"].write_text(f"{HOSPITAL_HEADER},rating\n{GOOD_HOSPITAL},0.5\n",
                                  encoding="utf-8")
    with pytest.raises(InputError, match=r"hospitals\.csv: repeated column\(s\) rating$"):
        parse(paths)


def test_repeated_undocumented_column_accepted(tmp_path):
    paths = write_tables(tmp_path, doctors=[GOOD_DOCTOR], hospitals=[GOOD_HOSPITAL],
                         departments=[GOOD_DEPARTMENT])
    paths["departments"].write_text(f"{DEPARTMENT_HEADER},note,note\n{GOOD_DEPARTMENT},a,b\n",
                                    encoding="utf-8")
    assert parse(paths).counts() == {"doctors": 1, "hospitals": 1, "departments": 1}


@pytest.mark.parametrize("record, parsers", [
    (ingest.DoctorRecord, ingest._DOCTOR_PARSERS),
    (ingest.HospitalRecord, ingest._HOSPITAL_PARSERS),
    (ingest.DepartmentRecord, ingest._DEPARTMENT_PARSERS),
])
def test_parsed_columns_follow_their_record_fields(record, parsers):
    # parse_store builds each record from the parsed cells by position
    fields = [f.name for f in dataclasses.fields(record)]
    assert list(parsers) == fields[:len(parsers)]


def with_cell(header, row, column, value):
    cells = row.split(",")
    cells[header.split(",").index(column)] = value
    return ",".join(cells)


@pytest.mark.parametrize("table, column, value, reason", [
    ("doctors", "id", "P;2", "'P;2' holds ';' or ':', which membership cells reserve"),
    ("doctors", "hospital_ids", "H1;H1", "duplicate id 'H1'"),
    ("doctors", "department_ids", "D1:3",
     "weight given for 'D1', but membership weights are read only from departments.csv"),
    ("doctors", "qualification_score", "x", "not a number: 'x'"),
    ("doctors", "qualification_score", "-1", "-1.0 below 0.0"),
    ("doctors", "overall_experience_years", "inf", "'inf' is not a finite number"),
    ("doctors", "overall_experience_years", "-3", "-3.0 below 0.0"),
    ("doctors", "specialist_experience_years", "-1", "-1.0 below 0.0"),
    ("doctors", "like_pct", "150", "150.0 outside [0.0, 100.0]"),
    ("doctors", "like_pct", "-0.5", "-0.5 outside [0.0, 100.0]"),
    ("doctors", "vote_count", "1.5", "not an integer: '1.5'"),
    ("doctors", "review_count", "-2", "negative count"),
    ("doctors", "verified", "maybe", "expected true/false, got 'maybe'"),
    ("doctors", "claimed", "2", "expected true/false, got '2'"),
    ("hospitals", "id", "H:2", "'H:2' holds ';' or ':', which membership cells reserve"),
    ("hospitals", "rating", "nan", "'nan' is not a finite number"),
    ("hospitals", "rating", "5.5", "5.5 outside [0.0, 5.0]"),
    ("hospitals", "stories_count", "x", "not an integer: 'x'"),
    ("hospitals", "department_ids", "D1;D1", "duplicate id 'D1'"),
    ("departments", "id", " ", "must be non-empty"),
    ("departments", "doctor_ids", "P1:x", "bad weight 'x' for 'P1'"),
    ("departments", "hospital_ids", "H1:-1", "negative weight for 'H1'"),
])
def test_bad_cell_names_path_line_and_column(tmp_path, table, column, value, reason):
    # a one-sided bound names only its lower end; a two-sided one names both
    header, good, other = {
        "doctors": (DOCTOR_HEADER, GOOD_DOCTOR, "P2"),
        "hospitals": (HOSPITAL_HEADER, GOOD_HOSPITAL, "H2"),
        "departments": (DEPARTMENT_HEADER, GOOD_DEPARTMENT, "D2"),
    }[table]
    rows = {"doctors": [GOOD_DOCTOR], "hospitals": [GOOD_HOSPITAL],
            "departments": [GOOD_DEPARTMENT]}
    rows[table].append(with_cell(header, with_cell(header, good, "id", other), column, value))
    paths = write_tables(tmp_path, **rows)
    with pytest.raises(MalformedRowError) as excinfo:
        parse(paths)
    assert str(excinfo.value) == f"{paths[table]}:3: {column}: {reason}"


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
