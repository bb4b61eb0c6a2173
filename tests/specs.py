"""Seeded network specs that the tests and the scripts beside them share.

This module imports no pytest, so that scripts such as report_digest.py run
on an interpreter that has none; conftest.py re-exports what it defines.
"""

import json
import random

from skewmatroid import NetSpec


def random_layered_spec(
    rng: random.Random,
    field: str = "2,4,2,1,19",
    n_classes: int = 3,
    max_rank: int = 2,
    trials: int = 0,
    seed: int | str = 0,
) -> NetSpec:
    """Source, 1-3 relay layers, 1-3 sinks; every non-source node draws at
    least one predecessor from the previous layer, so all sinks are
    reachable and the spec always validates."""
    layers: list[list[str]] = [["s"]]
    for li in range(rng.randint(1, 3)):
        layers.append([f"r{li}_{j}" for j in range(rng.randint(1, 4))])
    layers.append([f"t{j}" for j in range(rng.randint(1, 3))])
    nodes = [{"id": "s", "role": "source"}]
    for layer in layers[1:-1]:
        nodes.extend({"id": nid, "role": "relay"} for nid in layer)
    nodes.extend({"id": nid, "role": "sink"} for nid in layers[-1])
    edges = []
    for prev, cur in zip(layers, layers[1:]):
        for nid in cur:
            for u in sorted(rng.sample(prev, rng.randint(1, len(prev)))):
                edges.append([u, nid])
    doc = {
        "field": field,
        "nodes": nodes,
        "edges": edges,
        "class": rng.randrange(n_classes),
        "rank": rng.randint(1, max_rank),
        "trials": trials,
        "seed": seed,
    }
    return NetSpec.from_json(json.dumps(doc))
