"""Seeded simulate reports at high rank, pinned by digest.

The spec is the five-edge network s->a, s->b, a->t, b->t, s->t, class 0, two
trials.  Each digest is the SHA-256 of ``json.dumps(simulate(spec, oracle=...))``,
recorded once, while the preload still took the greedy P-basis of every point
of the message flat, and never edited.  The ranks cover both of the preload's
candidate streams (the flat's lines and the class scan) on each field.
"""

import hashlib
import json

import pytest

from skewmatroid import NetSpec, simulate

FIVE_EDGE = {
    "nodes": [
        {"id": "s", "role": "source"},
        {"id": "a", "role": "relay"},
        {"id": "b", "role": "relay"},
        {"id": "t", "role": "sink"},
    ],
    "edges": [["s", "a"], ["s", "b"], ["a", "t"], ["b", "t"], ["s", "t"]],
    "class": 0,
    "trials": 2,
}

# (field, rank) -> (digest without the oracle, digest with oracle="rlnc")
CASES = {
    ("2,20,4,1", 1): (
        "b74fd4118cbf821611c959ed6ac5ac6bdd5811326661c7506adeebc05479520e",
        "4a9cee914502aa9fcee1fdf74ba38308597b48cf24a9c9af461024ee469b3910",
    ),
    ("2,20,4,1", 2): (
        "86eb3ccdea8a8bd4f9b8e8e3f6bead9043826f3a8f603fb95492f39b2ee8e6d6",
        "148a87013fa1eb40039ba083fdbafbcc3a1d63f9ff2e8a1703794c57a3568c42",
    ),
    ("2,20,4,1", 3): (
        "258941c92321b9f3b81fd0fe95f51fbfd050252bb09cc8bb1463090729a5379f",
        "105512d84830189afee8227068550c8bdb4dc2620ff74407c7773e846a85f8b4",
    ),
    ("2,20,4,1", 4): (
        "bd0b553be263a657c34afaf75704be66106876256966f3c719e44aee764f1fcc",
        "1f47dc07cf2f6ba62bd39f66f56634f46d955b9429a11268113cfe94952a015a",
    ),
    ("2,20,4,1", 5): (
        "4c9d788ac685741282914f0aa98966fd0717e940a72d2b109fdd28fda59fa39c",
        "c784296f39d1764b97c392cb5b753afaabfd182f3cffe9156e09838c53b1fa8b",
    ),
    ("2,20,1,1", 4): (
        "c9b3b5979f7a55663c493a33e6c968d3e97f9ba9347eebbe23fd301fae685f14",
        "eba9ae12bf01dcc34f2b26c883dad04113f2cff41e825b3f5935f87e7fda42dd",
    ),
    ("2,20,1,1", 10): (
        "e858471fe42180d293134c6d445c6283a61f8a72334cb2a1ece18f9a96c0554e",
        "36fbcd47632a8a9320186f878376877645eaf1c0d9ccd389b35f0a930ad4cbaa",
    ),
    ("2,20,1,1", 13): (
        "34482de427248e19be343018dc8172ff9f3808d12728930464c697792e837174",
        "dca0043384d729c7096e41960aebc580ae9213ec0ac641832f2e7ec5d7a745f8",
    ),
    ("2,20,1,1", 14): (
        "69e16de1b9ba71ea6ca8cb2bf33ada757058ddfc3efd736c9af28ea4ad34c141",
        "f2c5c5530d5e4101c99ec6ed5e67a3c760196e103edc8f69cf291c351d6ed771",
    ),
    ("2,20,1,1", 16): (
        "e4747761b336a84636ac31f77449deda4e2660d06ab69b4b75e84d9ec831c869",
        "8527c1b038759c99fc22f5561240a0109cc618ee436f260fd7df72b6795a28a5",
    ),
    ("2,20,1,1", 20): (
        "6bdf2858060ccb6a6702be22fc840b437c905ec4d6d0c373a3da54a4b072eb34",
        "406fc742443dfff5d4e3703eb9eeb0045783eee78981f8e310c8f9967695b0ec",
    ),
}


def _spec(field: str, rank: int) -> NetSpec:
    doc = {**FIVE_EDGE, "field": field, "rank": rank, "seed": f"highrank:{field}:{rank}"}
    return NetSpec.from_json(json.dumps(doc))


@pytest.mark.parametrize("field,rank", sorted(CASES))
@pytest.mark.parametrize("oracle", [None, "rlnc"])
def test_high_rank_report_digest(field, rank, oracle):
    report = simulate(_spec(field, rank), oracle=oracle)
    expected = CASES[field, rank][oracle is not None]
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == expected
