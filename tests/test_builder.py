from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from trustprop import LayerId, build_inter_layer, build_intra_layer, build_network
from trustprop.builder import SimilarityMode, layer_attributes
from trustprop.errors import ConfigError, InputError
from trustprop.ingest import DepartmentRecord, DoctorRecord, EntityStore, HospitalRecord


def make_doctor(ident, hospitals, departments, score=5.0):
    return DoctorRecord(id=ident, hospital_ids=frozenset(hospitals),
                        department_ids=frozenset(departments), qualification_score=score,
                        overall_experience_years=10.0, specialist_experience_years=5.0,
                        like_pct=80.0, vote_count=10, review_count=5,
                        verified=True, claimed=True)


def make_hospital(ident, departments):
    return HospitalRecord(id=ident, rating=4.0, stories_count=3,
                          department_ids=frozenset(departments))


def make_department(ident, doctors, hospitals, doctor_weights=None, hospital_weights=None):
    return DepartmentRecord(id=ident, doctor_ids=frozenset(doctors),
                            hospital_ids=frozenset(hospitals),
                            doctor_weights=doctor_weights or {},
                            hospital_weights=hospital_weights or {})


def random_store(rng, n_hospitals=4, n_departments=4, n_doctors=6):
    """A random but internally consistent store with no explicit weights."""
    h_ids = [f"H{i}" for i in range(n_hospitals)]
    d_ids = [f"D{i}" for i in range(n_departments)]
    p_ids = [f"P{i}" for i in range(n_doctors)]
    doctors = {}
    dept_members: dict[str, set[str]] = {d: set() for d in d_ids}
    dept_hosts: dict[str, set[str]] = {d: set() for d in d_ids}
    hosp_depts: dict[str, set[str]] = {h: set() for h in h_ids}
    for p in p_ids:
        hs = list(rng.choice(h_ids, size=rng.integers(1, n_hospitals + 1), replace=False))
        ds = list(rng.choice(d_ids, size=rng.integers(1, n_departments + 1), replace=False))
        doctors[p] = make_doctor(p, hs, ds, score=float(rng.integers(1, 11)))
        for d in ds:
            dept_members[d].add(p)
            for h in hs:
                dept_hosts[d].add(h)
                hosp_depts[h].add(d)
    hospitals = {h: make_hospital(h, hosp_depts[h]) for h in h_ids}
    departments = {d: make_department(d, dept_members[d], dept_hosts[d]) for d in d_ids}
    return EntityStore(doctors=doctors, hospitals=hospitals, departments=departments)


def messy_store(rng, n_hospitals=4, n_departments=4, n_doctors=6):
    """A random store as raw tables may hold it, with no cleaning applied.

    Every record draws its memberships on its own, so some are declared on one
    side only, and ids X1 and X2 name no entity. About a third of the doctors
    have no qualification score. Each department carries explicit weights, 0
    among them, on declared pairs, undeclared pairs and the unknown ids. A size
    of 0 leaves that layer empty.
    """
    h_ids = [f"H{i}" for i in range(n_hospitals)]
    d_ids = [f"D{i}" for i in range(n_departments)]
    p_ids = [f"P{i}" for i in range(n_doctors)]

    def some(ids):
        pool = [*ids, "X1", "X2"]
        return set(rng.choice(pool, size=rng.integers(0, len(pool) + 1), replace=False).tolist())

    def weights(ids):
        return {i: float(rng.choice([0.0, 0.5, 1.0, 3.0])) for i in sorted(some(ids))}

    doctors = {p: make_doctor(p, some(h_ids), some(d_ids),
                              score=None if rng.random() < 0.3 else float(rng.integers(0, 11)))
               for p in p_ids}
    hospitals = {h: make_hospital(h, some(d_ids)) for h in h_ids}
    departments = {d: make_department(d, some(p_ids), some(h_ids), doctor_weights=weights(p_ids),
                                      hospital_weights=weights(h_ids))
                   for d in d_ids}
    return EntityStore(doctors=doctors, hospitals=hospitals, departments=departments)


@pytest.mark.parametrize("mode", list(SimilarityMode))
def test_intra_blocks_match_pairwise_set_formula(mode):
    rng = np.random.default_rng(5)
    for _ in range(25):
        store = random_store(rng, n_hospitals=5, n_departments=6, n_doctors=9)
        for layer in LayerId:
            block = build_intra_layer(store, layer, mode)
            ids, attrs = layer_attributes(store, layer)
            assert block.row_ids == block.col_ids == ids
            for i in range(len(ids)):
                for j in range(len(ids)):
                    shared = len(attrs[i] & attrs[j])
                    union = len(attrs[i] | attrs[j])
                    if i == j:
                        want = 0.0
                    elif mode is SimilarityMode.INTERSECTION_COUNT:
                        want = float(shared)
                    else:
                        want = shared / union if union else 0.0
                    assert block.weights[i, j] == want, (layer, ids[i], ids[j])
            if mode is SimilarityMode.JACCARD:
                assert ((block.weights >= 0.0) & (block.weights <= 1.0)).all()


def incidence_block(attrs, mode):
    """The block by its definition: ``B Bᵀ`` over the 0/1 incidence, diagonal zeroed."""
    columns = sorted(set().union(*attrs))
    incidence = np.array([[float(c in held) for c in columns] for held in attrs])
    incidence = incidence.reshape(len(attrs), len(columns))
    weights = incidence @ incidence.T
    np.fill_diagonal(weights, 0.0)
    if mode is SimilarityMode.JACCARD:
        degree = incidence.sum(axis=1)
        i, j = np.nonzero(weights)
        shared = weights[i, j]
        weights[i, j] = shared / (degree[i] + degree[j] - shared)
    return weights


@pytest.mark.parametrize("mode", list(SimilarityMode))
def test_intra_blocks_equal_the_incidence_product(mode):
    rng = np.random.default_rng(11)
    stores = [random_store(rng, n_hospitals=5, n_departments=6, n_doctors=9) for _ in range(10)]
    stores += [messy_store(rng, *sizes) for sizes in
               ((4, 4, 6), (0, 3, 5), (3, 0, 5), (3, 4, 0), (0, 0, 0)) for _ in range(3)]
    p_ids = [f"P{i}" for i in range(7)]
    # no doctor lists a hospital, and every hospital lists D0
    stores.append(EntityStore(
        doctors={p: make_doctor(p, [], ["D0"]) for p in p_ids},
        hospitals={h: make_hospital(h, ["D0", "D1"][:1 + k % 2])
                   for k, h in enumerate(("H0", "H1", "H2"))},
        departments={"D0": make_department("D0", p_ids, []), "D1": make_department("D1", [], [])}))
    # every doctor lists H0, every department lists every doctor, no hospital lists a department
    stores.append(EntityStore(
        doctors={p: make_doctor(p, ["H0", "H1", "H2"][:1 + k % 3], []) for k, p in enumerate(p_ids)},
        hospitals={h: make_hospital(h, []) for h in ("H0", "H1")},
        departments={d: make_department(d, p_ids, []) for d in ("D0", "D1", "D2")}))
    for store in stores:
        for layer in LayerId:
            weights = build_intra_layer(store, layer, mode).weights
            want = incidence_block(layer_attributes(store, layer)[1], mode)
            assert weights.shape == want.shape
            assert weights.tobytes() == want.tobytes(), layer


@pytest.mark.parametrize("mode", list(SimilarityMode))
def test_intra_block_needs_no_memory_beyond_the_block(mode):
    """Building the block holds nothing n x n or n x attributes besides the block itself."""
    rng = np.random.default_rng(3)
    h_ids = [f"H{i:04d}" for i in range(3000)]
    store = EntityStore(
        doctors={f"P{i:03d}": make_doctor(f"P{i:03d}", rng.choice(h_ids, size=rng.integers(1, 4),
                                                                   replace=False).tolist(), [])
                 for i in range(600)},
        hospitals={h: make_hospital(h, []) for h in h_ids})
    tracemalloc.start()
    try:
        block = build_intra_layer(store, LayerId.DOCTOR, mode)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (600, 600)
    assert (peak - held) / block.weights.nbytes <= 0.25


def test_demo_intra_blocks_exact(demo_store):
    expected = {
        LayerId.HOSPITAL: [[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
        LayerId.DEPARTMENT: [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]],
        LayerId.DOCTOR: [[0, 1, 2, 2, 1], [1, 0, 1, 1, 0], [2, 1, 0, 2, 1],
                         [2, 1, 2, 0, 1], [1, 0, 1, 1, 0]],
    }
    for layer, want in expected.items():
        block = build_intra_layer(demo_store, layer)
        assert block.weights.tolist() == [[float(x) for x in row] for row in want]


def test_intra_block_symmetric_zero_diagonal(demo_store):
    for layer in LayerId:
        block = build_intra_layer(demo_store, layer)
        assert (block.weights == block.weights.T).all()
        assert (np.diagonal(block.weights) == 0).all()


def test_node_order_is_lexicographic(demo_store):
    network = build_network(demo_store)
    for layer in LayerId:
        ids = network.node_ids(layer)
        assert list(ids) == sorted(ids)


def test_co_affiliation_matches_brute_force():
    """Both belongs-to blocks, cell by cell, against their rule written out per pair."""
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(60):
        store = messy_store(rng, *(int(n) for n in rng.integers(0, 5, size=3)))
        seen |= {f"no {kind}" for kind, records in
                 (("hospitals", store.hospitals), ("departments", store.departments),
                  ("doctors", store.doctors)) if not records}
        hd = build_inter_layer(store, LayerId.HOSPITAL, LayerId.DEPARTMENT)
        assert (hd.row_ids, hd.col_ids) == (tuple(sorted(store.hospitals)),
                                            tuple(sorted(store.departments)))
        for i, h in enumerate(hd.row_ids):
            for j, d in enumerate(hd.col_ids):
                dept = store.departments[d]
                count = sum(1 for doc in store.doctors.values()
                            if h in doc.hospital_ids and d in doc.department_ids)
                if not (d in store.hospitals[h].department_ids or h in dept.hospital_ids):
                    case, want = f"hd undeclared{' weighted' * (h in dept.hospital_weights)}", 0.0
                elif h in dept.hospital_weights:
                    want = dept.hospital_weights[h]
                    case = f"hd explicit{' 0' * (want == 0)}"
                else:
                    case, want = ("hd count", float(count)) if count else ("hd no doctor", 1.0)
                seen.add(case)
                assert hd.weights[i, j] == want, (h, d)
        dp = build_inter_layer(store, LayerId.DEPARTMENT, LayerId.DOCTOR)
        assert (dp.row_ids, dp.col_ids) == (hd.col_ids, tuple(sorted(store.doctors)))
        for i, d in enumerate(dp.row_ids):
            for j, p in enumerate(dp.col_ids):
                dept = store.departments[d]
                score = store.doctors[p].qualification_score
                if p not in dept.doctor_ids:
                    case, want = f"dp undeclared{' weighted' * (p in dept.doctor_weights)}", 0.0
                elif p in dept.doctor_weights:
                    want = dept.doctor_weights[p]
                    case = f"dp explicit{' 0' * (want == 0)}"
                else:
                    case, want = ("dp score", score) if score is not None else ("dp no score", 0.0)
                seen.add(case)
                assert dp.weights[i, j] == want, (d, p)
    # every path of both rules ran, empty layers included
    assert seen == {"no hospitals", "no departments", "no doctors",
                    *(f"{tag} {case}" for tag, cases in
                      (("hd", ("undeclared", "undeclared weighted", "explicit", "explicit 0",
                               "count", "no doctor")),
                       ("dp", ("undeclared", "undeclared weighted", "explicit", "explicit 0",
                               "score", "no score")))
                      for case in cases)}


def test_membership_gates_hospital_department_cells():
    # P1 works at H2 but D1 is not present at H2: no (H2, D1) edge
    store = EntityStore(
        doctors={"P1": make_doctor("P1", ["H1", "H2"], ["D1"])},
        hospitals={"H1": make_hospital("H1", ["D1"]), "H2": make_hospital("H2", [])},
        departments={"D1": make_department("D1", ["P1"], ["H1"])},
    )
    block = build_inter_layer(store, LayerId.HOSPITAL, LayerId.DEPARTMENT)
    assert block.weights.tolist() == [[1.0], [0.0]]


def test_declared_membership_without_doctors_keeps_edge():
    store = EntityStore(
        doctors={"P1": make_doctor("P1", ["H1"], ["D1"])},
        hospitals={"H1": make_hospital("H1", ["D1", "D2"])},
        departments={"D1": make_department("D1", ["P1"], ["H1"]),
                     "D2": make_department("D2", [], ["H1"])},
    )
    block = build_inter_layer(store, LayerId.HOSPITAL, LayerId.DEPARTMENT)
    assert block.weights.tolist() == [[1.0, 1.0]]


def test_explicit_hospital_weights_override(demo_store):
    block = build_inter_layer(demo_store, LayerId.HOSPITAL, LayerId.DEPARTMENT)
    assert block.weights.tolist() == [
        [2, 1, 1, 0], [1, 2, 0, 0], [2, 0, 0, 1], [1, 0, 0, 0]]


def test_department_doctor_block_uses_weights_then_scores(demo_store):
    block = build_inter_layer(demo_store, LayerId.DEPARTMENT, LayerId.DOCTOR)
    assert block.weights.tolist() == [
        [10, 6, 8, 0, 0], [0, 0, 4, 6, 0], [0, 8, 0, 0, 4], [0, 0, 0, 0, 6]]


def test_qualification_score_fallback():
    store = EntityStore(
        doctors={"P1": make_doctor("P1", ["H1"], ["D1"], score=7.0)},
        hospitals={"H1": make_hospital("H1", ["D1"])},
        departments={"D1": make_department("D1", ["P1"], ["H1"])},
    )
    block = build_inter_layer(store, LayerId.DEPARTMENT, LayerId.DOCTOR)
    assert block.weights.tolist() == [[7.0]]


def test_unsupported_pair_raises(demo_store):
    with pytest.raises(InputError, match=r"no belongs-to relation for \(hospital, doctor\)"):
        build_inter_layer(demo_store, LayerId.HOSPITAL, LayerId.DOCTOR)
    with pytest.raises(InputError, match=r"no belongs-to relation for \(department, hospital\)"):
        build_inter_layer(demo_store, LayerId.DEPARTMENT, LayerId.HOSPITAL)


def test_unknown_similarity_mode_is_a_config_error(demo_store):
    with pytest.raises(ConfigError, match="similarity mode"):
        build_intra_layer(demo_store, LayerId.HOSPITAL, "jaccard")
    with pytest.raises(ConfigError, match="similarity mode"):
        build_network(demo_store, "jaccard")


def test_build_network_provenance(demo_store):
    network = build_network(demo_store, SimilarityMode.JACCARD)
    assert network.provenance["similarity_mode"] == "jaccard"


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    store = random_store(rng)
    shuffled = EntityStore(
        doctors=dict(reversed(store.doctors.items())),
        hospitals=dict(reversed(store.hospitals.items())),
        departments=dict(reversed(store.departments.items())),
    )
    a = build_network(store)
    b = build_network(shuffled)
    for layer in LayerId:
        assert a.node_ids(layer) == b.node_ids(layer)
        assert (a.intra[layer].weights == b.intra[layer].weights).all()
    for pair in a.inter:
        assert (a.inter[pair].weights == b.inter[pair].weights).all()
