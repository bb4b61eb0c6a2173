"""Seeded simulate reports pinned by digest.

Each digest is the SHA-256 of ``json.dumps(simulate(spec, **kwargs))``,
recorded once and never edited: a change in any drawn packet, decoded flat, distance or
oracle verdict changes the bytes.
"""

import functools
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
    return spec._replace(rank=3)


def _layered(label: str, field: str, n_classes: int, rank: int, trials: int) -> NetSpec:
    spec = random_layered_spec(
        random.Random(label), field=field, n_classes=n_classes, trials=trials, seed=label
    )
    return spec._replace(rank=rank)


CASES = {
    "diamond_rlnc": (
        _diamond, {"oracle": "rlnc"},
        "7ad750d8ef64a89146c10d16150a9700fbebf1c0c73945fe829427d2830b45a9",
    ),
    "layered_2_16_4_1_rank3": (
        _layered_f65536_rank3, {},
        "ee223d530d40a2142d97c9931f65529f796d66fb08e91f904d2bdf95bc952e66",
    ),
    "layered_2_16_4_1_rank3_rlnc": (
        _layered_f65536_rank3, {"oracle": "rlnc"},
        "e8a60f9d4bd89abaa233daa1d85fb46faed28d093e710059b154a7a7af912954",
    ),
    "zero_class": (
        lambda: _diamond(**{"class": None, "rank": 1}), {},
        "8272d16bde40d28114b83bf71b16a8c5bbe4c0b9558732516e193acbbb9f6150",
    ),
    "rank_0": (
        lambda: _diamond(rank=0), {},
        "9e598d88bc0dd52022ef741b118a9a37ed4d4fcd017dae16db64e38b8d349b25",
    ),
    "diamond_overrides": (
        _diamond, {"trials": 37, "seed": "override"},
        "adbeddbc67ddb8cd8d2d87fa1b66cd380ff60be4c48e245bbe42bee4b31f76b9",
    ),
    "diamond_overrides_rlnc": (
        _diamond, {"trials": 37, "seed": "override", "oracle": "rlnc"},
        "ed913d942e1893f7d57c9f489eca166ae3ab62c27440d48d01e92e86e0081036",
    ),
    "layered_f16_0_rlnc": (
        functools.partial(_layered, "golden-f16-0", "2,4,2,1,19", 3, 2, 30), {"oracle": "rlnc"},
        "7317b406bb5d014e0e868825fc35476c6684b4779263df28a88999138e994c5b",
    ),
    "layered_f16_1_rlnc": (
        functools.partial(_layered, "golden-f16-1", "2,4,2,1,19", 3, 2, 30), {"oracle": "rlnc"},
        "325ecf3340f8a4fc383a89bab05e9ec9ed9095b1ac502871950e1143a20c7919",
    ),
    "layered_f16_2_rlnc": (
        functools.partial(_layered, "golden-f16-2", "2,4,2,1,19", 3, 2, 30), {"oracle": "rlnc"},
        "fdec9c25ea9d8dd4a67c12b931c358fc929869a0b825c4c58717f87254854461",
    ),
    "layered_2_20_4_1_rank3_rlnc": (
        functools.partial(_layered, "golden-20-2", "2,20,4,1", 15, 3, 6), {"oracle": "rlnc"},
        "fa18fbf20b9ec9c3b3ba574658ff7b1aba5fbb0d1301120fc069bc1d191b5f81",
    ),
    # q - 1 > 1 nonzero scalars share each line of a span here: odd p, s = 2, q = 16
    "layered_3_4_2_1_rank2_rlnc": (
        functools.partial(_layered, "golden-9-2-0", "3,4,2,1", 8, 2, 20), {"oracle": "rlnc"},
        "8b73611eb7fa9bc07e41f8b1771b6fd05f978c4e5de058817436300731f6eed9",
    ),
    "layered_2_6_2_2_rank2_rlnc": (
        functools.partial(_layered, "golden-64s2-2-2", "2,6,2,2", 3, 2, 20), {"oracle": "rlnc"},
        "5f11585b33d6f519d025590a0c5eb196aafabe1718b2664def61439050c83dee",
    ),
    "layered_2_6_2_2_rank3_rlnc": (
        functools.partial(_layered, "golden-64s2-3-2", "2,6,2,2", 3, 3, 20), {"oracle": "rlnc"},
        "f65866199b667d35de5bb5830c103f8dc283e2c4641a7b95b9d4a2597d1ef53d",
    ),
    "layered_2_16_4_1_rank2_rlnc": (
        functools.partial(_layered, "golden-16-2-2", "2,16,4,1", 15, 2, 20), {"oracle": "rlnc"},
        "559243a60dacafb7107cb49c12beeb9835c23a698db1a46f2a6fc38f0a8dfcc5",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_report_digest(name):
    make, kwargs, expected = CASES[name]
    report = simulate(make(), **kwargs)
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == expected
