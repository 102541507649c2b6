"""Metamorphic relations of the in-process pipeline (build, trust, score).

Each relation transforms a generated store in a way that must leave trust and
scores unchanged. The stores come from ``test_builder``'s ``random_store``
(consistent memberships) and ``messy_store`` (one-sided memberships, dangling
ids, missing scores, explicit weights), each run as given and after ``clean``:

- record order: the order of each table's records, and of each department's
  explicit weights, is not an input;
- doctor-side scale: doubling every qualification score and every explicit
  department->doctor weight scales the department x doctor block by a power of
  two, which row normalisation cancels exactly;
- order-preserving renaming: replacing every id, dangling ones included, by
  its rank in sorted order at a fixed width (``N0000``, ``N0001``, ...) keeps
  every block, trust value and score, since node order is the ids' sorted order;
- disjoint union: a store joined with a copy of another whose every id is
  prefixed ``Z`` builds each block as the parts' blocks placed block-diagonally,
  and scores each part as it scores alone.

The first three hold bit for bit. The union's blocks do too, but its trust and
scores agree only within ``rtol=1e-12``: a row or a score vector that grows by
the other part's zeros is summed in a different grouping (numpy's pairwise
sum, BLAS's blocked products).
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
    """Blocks, trust and scores of the store as given and of its cleaned copy."""
    out = []
    for version in (store, clean(store)):
        network = build_network(version, mode)
        trusts = derive_network_trust(network)
        residuals = {}
        for index, layer in enumerate(LAYERS):
            ids = trusts.intra[layer].row_ids
            residuals[layer] = generate_residual(ResidualConfig.uniform(seed=index), len(ids),
                                                 layer, ids)
        scored = score_network(trusts, residuals, ConvergenceConfig(max_iterations=40),
                               department_feed=feed)
        out.append((network, trusts, scored))
    return out


def assert_bit_identical(runs_a, runs_b, name=lambda i: i):
    """Trust and scores agree bit for bit, where ``name`` maps an id of ``runs_a``
    to its id in ``runs_b``."""
    def names(ids):
        return tuple(map(name, ids))

    for (_, trusts_a, scored_a), (_, trusts_b, scored_b) in zip(runs_a, runs_b):
        for a, b in zip(trusts_a.all_matrices(), trusts_b.all_matrices()):
            assert (a.tag, names(a.row_ids), names(a.col_ids)) == (b.tag, b.row_ids, b.col_ids)
            assert a.values.tobytes() == b.values.tobytes(), a.tag
        for layer in LAYERS:
            a, b = scored_a[layer].result, scored_b[layer].result
            assert names(a.scores.entity_ids) == tuple(b.scores.entity_ids), layer
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


def renamed(store: EntityStore, name) -> EntityStore:
    """The store with every id, also those that name no entity, replaced by ``name(id)``."""
    def ids(values):
        return frozenset(name(v) for v in values)

    def keyed(weights):
        return {name(k): w for k, w in weights.items()}

    return EntityStore(
        doctors={name(p): dataclasses.replace(doc, id=name(p), hospital_ids=ids(doc.hospital_ids),
                                              department_ids=ids(doc.department_ids))
                 for p, doc in store.doctors.items()},
        hospitals={name(h): dataclasses.replace(hosp, id=name(h),
                                                department_ids=ids(hosp.department_ids))
                   for h, hosp in store.hospitals.items()},
        departments={name(d): dataclasses.replace(
            dept, id=name(d), doctor_ids=ids(dept.doctor_ids), hospital_ids=ids(dept.hospital_ids),
            doctor_weights=keyed(dept.doctor_weights), hospital_weights=keyed(dept.hospital_weights))
            for d, dept in store.departments.items()},
    )


def all_ids(store: EntityStore) -> set[str]:
    """Every id the store holds, dangling ones included: the ids ``renamed`` replaces."""
    seen: set[str] = set()
    renamed(store, lambda i: seen.add(i) or i)
    return seen


@relation_settings
@given(stores(), modes, feeds, st.data())
def test_order_preserving_renaming_changes_no_number(store, mode, feed, data):
    # first give the ids lengths that differ, so that an order by length is not the sorted one
    ids = sorted(all_ids(store))
    fresh = data.draw(st.lists(st.text("0123456789AZ", min_size=1, max_size=3), unique=True,
                               min_size=len(ids), max_size=len(ids)))
    store = renamed(store, dict(zip(ids, fresh)).__getitem__)
    rank = {name: f"N{r:04d}" for r, name in enumerate(sorted(all_ids(store)))}.__getitem__
    runs_a, runs_b = runs(store, mode, feed), runs(renamed(store, rank), mode, feed)
    assert_bit_identical(runs_a, runs_b, rank)
    for (network_a, *_), (network_b, *_) in zip(runs_a, runs_b):
        blocks_b = {**network_b.intra, **network_b.inter}
        for key, a in {**network_a.intra, **network_a.inter}.items():
            b = blocks_b[key]
            assert (tuple(map(rank, a.row_ids)), tuple(map(rank, a.col_ids))) == (
                b.row_ids, b.col_ids), key
            assert a.weights.tobytes() == b.weights.tobytes(), key


def block_diagonal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def constant_run(store, mode, feed):
    """Blocks, trust and scores after a fixed 40 iterations from constant residuals."""
    network = build_network(store, mode)
    trusts = derive_network_trust(network)
    residuals = {layer: generate_residual(ResidualConfig.constant(0.2), len(ids), layer, ids)
                 for layer, ids in network.graphs.items()}
    scored = score_network(trusts, residuals,
                           ConvergenceConfig(epsilon=1e-300, max_iterations=40),
                           department_feed=feed)
    return network, trusts, scored


@relation_settings
@given(stores(), stores(), modes, feeds)
def test_disjoint_union_scores_each_part_as_alone(first, second, mode, feed):
    second = renamed(second, lambda i: "Z" + i)
    union = EntityStore(**{table: {**getattr(first, table), **getattr(second, table)}
                           for table in ("doctors", "hospitals", "departments")})
    for versions in ((first, second, union), (clean(first), clean(second), clean(union))):
        (net_a, trusts_a, scored_a), (net_b, trusts_b, scored_b), (net, trusts, scored) = (
            constant_run(store, mode, feed) for store in versions)
        blocks_a, blocks_b = ({**n.intra, **n.inter} for n in (net_a, net_b))
        for key, joined in {**net.intra, **net.inter}.items():
            a, b = blocks_a[key], blocks_b[key]
            assert (joined.row_ids, joined.col_ids) == (a.row_ids + b.row_ids,
                                                        a.col_ids + b.col_ids), key
            assert joined.weights.tobytes() == block_diagonal(a.weights, b.weights).tobytes(), key
        for a, b, joined in zip(trusts_a.all_matrices(), trusts_b.all_matrices(),
                                trusts.all_matrices()):
            np.testing.assert_allclose(joined.values, block_diagonal(a.values, b.values),
                                       rtol=1e-12, atol=0, err_msg=joined.tag)
        for layer in LAYERS:
            a, b, joined = (s[layer].result.scores for s in (scored_a, scored_b, scored))
            assert joined.entity_ids == a.entity_ids + b.entity_ids, layer
            np.testing.assert_allclose(joined.values, np.concatenate([a.values, b.values]),
                                       rtol=1e-12, atol=0, err_msg=layer.value)
