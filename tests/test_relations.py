"""Metamorphic relations of the in-process pipeline (build, trust, score).

Each relation transforms a generated store in a way that must leave trust and
scores unchanged, bit for bit. The stores come from ``test_builder``'s
``random_store`` (consistent memberships) and ``messy_store`` (one-sided
memberships, dangling ids, missing scores, explicit weights), each run as
given and after ``clean``:

- record order: the order of each table's records, and of each department's
  explicit weights, is not an input;
- doctor-side scale: doubling every qualification score and every explicit
  department->doctor weight scales the department x doctor block by a power of
  two, which row normalisation cancels exactly.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_builder import messy_store, random_store
from trustprop import build_network, clean, derive_network_trust
from trustprop.builder import SimilarityMode
from trustprop.ingest import EntityStore
from trustprop.model import LAYERS, LayerId
from trustprop.scoring import ConvergenceConfig, ResidualConfig, generate_residual, score_network

relation_settings = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def stores(draw):
    """A ``random_store`` (every layer non-empty) or a ``messy_store`` (a layer may be empty)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return random_store(rng, *(draw(st.integers(1, 6)) for _ in range(3)))
    return messy_store(rng, *(draw(st.integers(0, 6)) for _ in range(3)))


def runs(store, mode, feed):
    """Trust and scores of the store as given and of its cleaned copy."""
    out = []
    for version in (store, clean(store)):
        trusts = derive_network_trust(build_network(version, mode))
        residuals = {}
        for index, layer in enumerate(LAYERS):
            ids = trusts.intra[layer].row_ids
            residuals[layer] = generate_residual(ResidualConfig.uniform(seed=index), len(ids),
                                                 layer, ids)
        scored = score_network(trusts, residuals, ConvergenceConfig(max_iterations=40),
                               department_feed=feed)
        out.append((trusts, scored))
    return out


def assert_bit_identical(runs_a, runs_b):
    for (trusts_a, scored_a), (trusts_b, scored_b) in zip(runs_a, runs_b):
        for a, b in zip(trusts_a.all_matrices(), trusts_b.all_matrices()):
            assert (a.tag, a.row_ids, a.col_ids) == (b.tag, b.row_ids, b.col_ids)
            assert a.values.tobytes() == b.values.tobytes(), a.tag
        for layer in LAYERS:
            a, b = scored_a[layer].result, scored_b[layer].result
            assert a.scores.entity_ids == b.scores.entity_ids, layer
            assert a.scores.values.tobytes() == b.scores.values.tobytes(), layer
            assert (a.iterations, a.deltas) == (b.iterations, b.deltas), layer


modes = st.sampled_from(list(SimilarityMode))
feeds = st.sampled_from([LayerId.HOSPITAL, LayerId.DOCTOR])


@relation_settings
@given(stores(), modes, feeds, st.data())
def test_record_order_changes_no_bit(store, mode, feed, data):
    def shuffled(records):
        return {key: records[key] for key in data.draw(st.permutations(list(records)))}

    departments = {d: dataclasses.replace(dept, doctor_weights=shuffled(dept.doctor_weights),
                                          hospital_weights=shuffled(dept.hospital_weights))
                   for d, dept in store.departments.items()}
    reordered = EntityStore(doctors=shuffled(store.doctors), hospitals=shuffled(store.hospitals),
                            departments=shuffled(departments))
    assert_bit_identical(runs(store, mode, feed), runs(reordered, mode, feed))


@relation_settings
@given(stores(), modes, feeds)
def test_doubling_the_doctor_side_weights_changes_no_bit(store, mode, feed):
    doctors = {p: dataclasses.replace(doc, qualification_score=None
                                      if doc.qualification_score is None
                                      else 2.0 * doc.qualification_score)
               for p, doc in store.doctors.items()}
    departments = {d: dataclasses.replace(dept, doctor_weights={
        p: 2.0 * w for p, w in dept.doctor_weights.items()})
        for d, dept in store.departments.items()}
    scaled = EntityStore(doctors=doctors, hospitals=store.hospitals, departments=departments)
    assert_bit_identical(runs(store, mode, feed), runs(scaled, mode, feed))
