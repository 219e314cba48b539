"""The contract staged features ride on: same answers, fewer statistics.

The literal table, the hashes and the explain document below were
generated at 8ef3ace — the last commit whose ``extract_features``
computed every statistic eagerly with ``np.unique`` — so they fail if a
decision, a reason string or one bit of a feature value moves.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.data import CATALOG
from repro.data.loader import load
from repro.select.features import FEATURE_ORDER, extract_features
from repro.select.policy import HeuristicPolicy, MeasuredPolicy, explain
from tests.select.test_features import vector_line

CHUNK = 4096

#: Chosen codec for the first four 4,096-element chunks of every catalog
#: dataset at seed 0; one name means all four chunks agree.
DECISIONS = {
    "msg-bt": "bitshuffle-zstd",
    "num-brain": "dzip",
    "num-control": "dzip",
    "rsim": "fpzip",
    "astro-mhd": "dzip",
    "astro-pt": "fpzip",
    "miranda3d": "fpzip",
    "turbulence": "fpzip",
    "wave": "dzip",
    "hurricane": "fpzip",
    "citytemp": "dzip",
    "ts-gas": "fpzip",
    "phone-gyro": "dzip",
    "wesad-chest": "dzip",
    "jane-street": "bitshuffle-zstd",
    "nyc-taxi": "dzip",
    "gas-price": "dzip",
    "solar-wind": "bitshuffle-zstd",
    "acs-wht": "fpzip",
    "hdr-night": "dzip",
    "hdr-palermo": "dzip",
    "hst-wfc3-uvis": "fpzip",
    "hst-wfc3-ir": "fpzip fpzip fpzip bitshuffle-zstd",
    "spitzer-irac": "fpzip",
    "g24-78-usb": "fpzip",
    "jws-mirimage": "bitshuffle-zstd",
    "tpcH-order": "buff",
    "tpcxBB-store": "dzip",
    "tpcxBB-web": "dzip",
    "tpcH-lineitem": "dzip",
    "tpcDS-catalog": "dzip",
    "tpcDS-store": "dzip",
    "tpcDS-web": "dzip",
}
REASONS_SHA256 = "4056041be5e63401dedf12e9fae1ff9b72fba0faa219b46610b85bfc1db355a9"
VECTORS_SHA256 = "9f404fb49f39406562b9c9a7ce331157dbf59d0c9ad7d863480cfc0a0471320e"


def _chunks(name):
    flat = load(name, 6 * CHUNK, 0).ravel()
    return [flat[start : start + CHUNK] for start in range(0, 4 * CHUNK, CHUNK)]


def test_every_catalog_decision_and_feature_bit_is_the_pinned_one():
    policy = HeuristicPolicy()
    table, reasons, vectors = {}, [], []
    for spec in CATALOG:
        decisions = [policy.decide(chunk) for chunk in _chunks(spec.name)]
        codecs = [decision.codec for decision in decisions]
        table[spec.name] = codecs[0] if len(set(codecs)) == 1 else " ".join(codecs)
        reasons += [f"{d.codec}:{d.reason}" for d in decisions]
        # Completed from what the rule chain left unread, not recomputed.
        vectors += [vector_line(d.features) for d in decisions]
    assert table == DECISIONS
    assert hashlib.sha256("\n".join(reasons).encode()).hexdigest() == REASONS_SHA256
    assert hashlib.sha256("\n".join(vectors).encode()).hexdigest() == VECTORS_SHA256


@pytest.mark.parametrize(
    "dataset, read",
    [
        ("tpcH-order", {"decimal_digits", "frac_unique"}),
        ("citytemp", {"decimal_digits", "frac_unique"}),
        ("msg-bt", {"decimal_digits", "frac_unique", "lag1_autocorr"}),
        ("hst-wfc3-ir", {"decimal_digits", "frac_unique", "lag1_autocorr"}),
    ],
)
def test_a_rule_pays_only_for_the_statistics_it_reads(dataset, read):
    chunk = _chunks(dataset)[0]
    decision = HeuristicPolicy().decide(chunk)
    assert decision.features.computed_fields() == read
    # Asking for the rest completes the vector, equal to the forced form.
    assert decision.features == extract_features(chunk)
    assert decision.features.computed_fields() == set(FEATURE_ORDER)


def test_measured_selection_computes_no_statistic_until_explained():
    chunk = _chunks("tpcH-order")[0][:512]
    policy = MeasuredPolicy(candidates=("gorilla", "chimp"), sample_elements=256)
    decision = policy.decide(chunk)
    assert decision.features.computed_fields() == set()
    (explained,) = explain(chunk, policy, CHUNK)["chunks"]
    assert explained["codec"] == decision.codec
    assert explained["features"] == extract_features(chunk).as_dict()


def _pinned_array():
    rng = np.random.default_rng(21)
    return np.concatenate(
        [
            np.round(rng.uniform(800.0, 60000.0, 64), 2),
            np.cumsum(rng.normal(0.0, 1.0, 64)),
            rng.normal(0.0, 1.0, 40),
        ]
    )


PINNED_EXPLAIN = (
    '{"policy": "heuristic", "candidates": ["bitshuffle-zstd", "dzip", "buff", '
    '"fpzip"], "chunks": [{"start": 0, "codec": "buff", "reason": '
    '"decimal-quantized to 2 digit(s), frac_unique 1.000 >= 0.98", "features": '
    '{"n_elements": 64, "sampled": 64, "frac_unique": 1.0, "byte_entropy": '
    '6.146132736502226, "delta_byte_entropy": 6.727574837509399, '
    '"lag1_autocorr": -0.06802726996015925, "xor_significant_fraction": '
    '0.8365575396825397, "xor_lead_fraction": 0.16344246031746032, '
    '"xor_trail_fraction": 0.03125, "exponent_count": 6, "decimal_digits": 2}}, '
    '{"start": 64, "codec": "fpzip", "reason": "smooth: lag-1 autocorr 0.889 >= '
    '0.8", "features": {"n_elements": 64, "sampled": 64, "frac_unique": 1.0, '
    '"byte_entropy": 7.338654422220606, "delta_byte_entropy": 7.096983517514547, '
    '"lag1_autocorr": 0.8893300434091453, "xor_significant_fraction": '
    '0.8655753968253969, "xor_lead_fraction": 0.13442460317460317, '
    '"xor_trail_fraction": 0.02058531746031746, "exponent_count": 10, '
    '"decimal_digits": -1}}, {"start": 128, "codec": "bitshuffle-zstd", "reason": '
    '"no structure detected (autocorr 0.090, frac_unique 1.000)", "features": '
    '{"n_elements": 40, "sampled": 40, "frac_unique": 1.0, "byte_entropy": '
    '6.920976632663848, "delta_byte_entropy": 7.014590795768779, '
    '"lag1_autocorr": 0.08951992263669888, "xor_significant_fraction": '
    '0.9206730769230769, "xor_lead_fraction": 0.07932692307692307, '
    '"xor_trail_fraction": 0.011618589743589744, "exponent_count": 6, '
    '"decimal_digits": -1}}]}'
)
#: sha256 of the served ``select-explain`` answer (the same document
#: through ``protocol.encode_json``) at the same commit.
PINNED_SERVED_SHA256 = (
    "5f84a7f93a9d45840fd0a480cc8bd55d19ad49728e8dacb3884619158ebb0c6a"
)


def test_explain_document_is_byte_identical_key_order_included():
    from repro.service.protocol import encode_json

    document = explain(_pinned_array(), HeuristicPolicy(), 64)
    assert json.dumps(document) == PINNED_EXPLAIN
    assert hashlib.sha256(encode_json(document)).hexdigest() == PINNED_SERVED_SHA256
