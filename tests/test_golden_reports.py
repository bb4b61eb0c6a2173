"""Seeded simulate reports pinned by digest.

Each digest is the SHA-256 of ``json.dumps(simulate(...))``, recorded once
and never edited: a change in any drawn packet, decoded flat, distance or
oracle verdict changes the bytes.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from skewmatroid import NetSpec, simulate

from conftest import random_layered_spec

DIAMOND = {
    "field": "2,4,2,1,19",
    "nodes": [
        {"id": "s", "role": "source"},
        {"id": "a", "role": "relay"},
        {"id": "b", "role": "relay"},
        {"id": "t", "role": "sink"},
    ],
    "edges": [["s", "a"], ["s", "b"], ["a", "t"], ["b", "t"]],
    "class": 0,
    "rank": 2,
    "trials": 100,
    "seed": 7,
}


def _diamond(**overrides) -> NetSpec:
    return NetSpec.from_json(json.dumps({**DIAMOND, **overrides}))


def _layered_f65536_rank3() -> NetSpec:
    spec = random_layered_spec(
        random.Random("golden-layered-16"), field="2,16,4,1", n_classes=15, trials=6,
        seed="golden",
    )
    return dataclasses.replace(spec, rank=3)


CASES = {
    "diamond_rlnc": (
        _diamond, "rlnc",
        "7ad750d8ef64a89146c10d16150a9700fbebf1c0c73945fe829427d2830b45a9",
    ),
    "layered_2_16_4_1_rank3": (
        _layered_f65536_rank3, None,
        "ee223d530d40a2142d97c9931f65529f796d66fb08e91f904d2bdf95bc952e66",
    ),
    "layered_2_16_4_1_rank3_rlnc": (
        _layered_f65536_rank3, "rlnc",
        "e8a60f9d4bd89abaa233daa1d85fb46faed28d093e710059b154a7a7af912954",
    ),
    "zero_class": (
        lambda: _diamond(**{"class": None, "rank": 1}), None,
        "8272d16bde40d28114b83bf71b16a8c5bbe4c0b9558732516e193acbbb9f6150",
    ),
    "rank_0": (
        lambda: _diamond(rank=0), None,
        "9e598d88bc0dd52022ef741b118a9a37ed4d4fcd017dae16db64e38b8d349b25",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_report_digest(name):
    make, oracle, expected = CASES[name]
    report = simulate(make(), oracle=oracle)
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == expected
