import json
import random

import pytest

from skewmatroid import NetSpec, get_field


@pytest.fixture(scope="session")
def f4():
    return get_field(2, 2, 1, 1)


@pytest.fixture(scope="session")
def f8():
    return get_field(2, 3, 1, 1)


@pytest.fixture(scope="session")
def f9():
    return get_field(3, 2, 1, 1)


@pytest.fixture(scope="session")
def f16():
    return get_field(2, 4, 2, 1)


@pytest.fixture(scope="session")
def f16m1():
    return get_field(2, 4, 4, 1)


@pytest.fixture(scope="session")
def f27s2():
    return get_field(3, 3, 1, 2)


@pytest.fixture(scope="session")
def f32s2():
    return get_field(2, 5, 1, 2)


@pytest.fixture(scope="session")
def f64():
    return get_field(2, 6, 1, 1)


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
