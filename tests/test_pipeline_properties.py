"""Properties of the stages after ``clean`` on the generated dirty stores of
``test_clean_properties``: the network bundle round trip and the stress rebuild."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from test_clean_properties import dirty_stores, property_settings
from trustprop import build_network, clean, derive_network_trust
from trustprop.builder import SimilarityMode
from trustprop.cli import eval_columns
from trustprop.bundle import load_network, save_network
from trustprop.model import INTER_LAYER_PAIRS, LAYERS
from trustprop.stress import (GeneratorConfig, GeneratorMethod, export_edge_table,
                              generate_synthetic, rebuild_trust)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("bundle") / "network.json"


@property_settings
@given(dirty_stores())
def test_network_bundle_round_trip_on_cleaned_stores(path, store):
    cleaned = clean(store)
    for mode in SimilarityMode:
        network = build_network(cleaned, mode)
        network = replace(network, columns=eval_columns(cleaned, network))
        save_network(network, path)
        again = load_network(path)
        # each column in order, every float and every null of an unrated entity exact
        assert {layer: list(columns.items()) for layer, columns in again.columns.items()} == {
            layer: list(columns.items()) for layer, columns in network.columns.items()}
        for layer in LAYERS:
            assert again.node_ids(layer) == network.node_ids(layer)
            assert np.array_equal(again.intra[layer].weights, network.intra[layer].weights)
        for pair in INTER_LAYER_PAIRS:
            assert np.array_equal(again.inter[pair].weights, network.inter[pair].weights)
        assert again.provenance == network.provenance


@property_settings
@given(dirty_stores())
def test_rebuilt_trust_is_sound_on_the_original_support(store):
    trusts = derive_network_trust(build_network(clean(store))).by_tag()
    table = export_edge_table(trusts.values())
    for method in GeneratorMethod:
        for seed in (3, 4):
            synthetic = generate_synthetic(table, GeneratorConfig(method=method, seed=seed))
            rebuilt, _ = rebuild_trust(synthetic, trusts)
            for tag, matrix in rebuilt.items():
                assert matrix.violations() == [], (method, seed, tag)
                assert not ((matrix.values != 0) & (trusts[tag].values == 0)).any(), (method, seed, tag)
