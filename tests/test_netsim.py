import ast
import functools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from skewmatroid import (
    EmptyInput,
    MixedClasses,
    NetSpec,
    ONE,
    RankOutOfRange,
    SpecInvalid,
    Subspace,
    ZERO,
    ZeroArgument,
    class_elements,
    class_flat,
    class_of,
    closure,
    encode_message,
    get_field,
    matroid_closure,
    relay_forward,
    rlnc_oracle_trial,
    run_trial,
    simulate,
    warp,
)
from skewmatroid import netsim
from skewmatroid.netsim import (
    build_message,
    canonical_line_rep,
    mirrored_source_vectors,
)

from conftest import random_layered_spec


def _spec(**overrides) -> NetSpec:
    doc = {
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
        "trials": 50,
        "seed": 7,
    }
    doc.update(overrides)
    return NetSpec.from_json(json.dumps(doc))


# -------------------------------------------------------------- spec parsing


def test_from_json_round_trip():
    spec = _spec()
    again = NetSpec.from_json(spec.to_json())
    assert again == spec
    assert spec.plan.source == "s"
    assert spec.plan.sinks == ("t",)
    assert spec.plan.order == ("s", "a", "b", "t")


def test_walk_plan_built_once_per_spec(monkeypatch):
    builds = []
    build = NetSpec.plan.func
    counted = functools.cached_property(lambda spec: builds.append(spec) or build(spec))
    counted.__set_name__(NetSpec, "plan")
    monkeypatch.setattr(NetSpec, "plan", counted)
    spec = _spec(trials=20)
    first = simulate(spec, oracle="rlnc")
    assert builds == [spec]  # validate, 20 walks and 20 oracle walks share it
    assert simulate(spec, oracle="rlnc") == first
    assert builds == [spec]


def test_trace_span_names_are_netsim_globals():
    # the benchmark's traced run swaps these netsim globals by name; read
    # them from its source so that a rename fails here, without importing it
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    if not path.is_file():
        pytest.skip("bench/tracing.py is not in this checkout")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (spans,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "NETSIM_SPANS" for t in node.targets)
    ]
    assert spans
    missing = [name for name in spans if not callable(getattr(netsim, name, None))]
    assert not missing


def test_from_json_rejects_malformed():
    good = json.loads(_spec().to_json())

    def broken(**changes):
        return json.dumps({**good, **changes})

    cases = [
        "not json at all",
        json.dumps([1, 2, 3]),
        broken(field=42),
        broken(nodes={"id": "s"}),
        broken(nodes=[{"id": "s"}]),
        broken(nodes=[{"id": "s", "role": "source", "x": 1}]),
        broken(nodes=[{"id": 5, "role": "source"}]),
        broken(edges=[["s"]]),
        broken(edges=[["s", 3]]),
        broken(edges="s->t"),
        json.dumps({k: v for k, v in good.items() if k != "rank"}),
        json.dumps({**good, "extra": 1}),
        broken(rank="2"),
        broken(rank=True),
        broken(trials=1.5),
        json.dumps({**good, "class": "0"}),
        json.dumps({**good, "class": True}),
        broken(seed=None),
    ]
    for text in cases:
        with pytest.raises(SpecInvalid):
            NetSpec.from_json(text)
    # a string seed is allowed
    NetSpec.from_json(json.dumps({**good, "seed": "run-1"}))


def test_validate_rejects_bad_topologies():
    bad = [
        # duplicate node id
        dict(nodes=[{"id": "s", "role": "source"}, {"id": "s", "role": "sink"}], edges=[]),
        # unknown role
        dict(nodes=[{"id": "s", "role": "source"}, {"id": "t", "role": "router"}], edges=[]),
        # edge references unknown node
        dict(edges=[["s", "zz"]]),
        # self-loop
        dict(edges=[["a", "a"], ["s", "t"]]),
        # no source
        dict(nodes=[{"id": "t", "role": "sink"}], edges=[]),
        # two sources
        dict(
            nodes=[
                {"id": "s", "role": "source"},
                {"id": "s2", "role": "source"},
                {"id": "t", "role": "sink"},
            ],
            edges=[["s", "t"], ["s2", "t"]],
        ),
        # source with incoming edge
        dict(edges=[["s", "a"], ["a", "s"], ["s", "t"], ["a", "t"]]),
        # cycle among relays
        dict(edges=[["s", "a"], ["a", "b"], ["b", "a"], ["a", "t"]]),
        # unreachable sink
        dict(edges=[["s", "a"], ["a", "b"]]),
        # negative trials
        dict(trials=-1),
    ]
    for changes in bad:
        with pytest.raises(SpecInvalid):
            _spec(**changes).validate()


def test_validate_field_dependent_bounds(f16):
    with pytest.raises(SpecInvalid):
        _spec(**{"class": 3}).validate(f16)  # classes are 0..2
    with pytest.raises(RankOutOfRange):
        _spec(rank=3).validate(f16)  # m == 2
    with pytest.raises(RankOutOfRange):
        _spec(**{"class": None, "rank": 2}).validate(f16)
    with pytest.raises(RankOutOfRange):
        _spec(rank=-1, **{"class": None}).validate(f16)
    _spec(**{"class": None, "rank": 1}).validate(f16)
    _spec(**{"class": None, "rank": 0}).validate(f16)


def test_topo_order_breaks_ties_by_insertion():
    spec = _spec(
        nodes=[
            {"id": "s", "role": "source"},
            {"id": "z", "role": "relay"},
            {"id": "a", "role": "relay"},
            {"id": "t", "role": "sink"},
        ],
        edges=[["s", "z"], ["s", "a"], ["z", "t"], ["a", "t"]],
    )
    assert spec.plan.order == ("s", "z", "a", "t")


def _naive_topo_order(spec: NetSpec) -> tuple[str, ...]:
    """Reference Kahn's algorithm that rescans every edge per node."""
    indeg = {nid: 0 for nid, _ in spec.nodes}
    for _, v in spec.edges:
        indeg[v] += 1
    order = []
    ready = [nid for nid, _ in spec.nodes if indeg[nid] == 0]
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for u, v in spec.edges:
            if u == nid:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
    return tuple(order)


def test_large_layered_dag_walk_order():
    rng = random.Random("large")
    layers = [["s"]] + [[f"n{li}_{j}" for j in range(10)] for li in range(100)]
    layers[-1] = [f"t{j}" for j in range(9)]
    edges = []
    for prev, cur in zip(layers, layers[1:]):
        for nid in cur:
            for u in rng.sample(prev, rng.randint(1, min(3, len(prev)))):
                edges.append([u, nid])
    edges += [list(e) for e in rng.sample(edges, 50)]  # parallel edges
    rng.shuffle(edges)
    relays = [nid for layer in layers[1:-1] for nid in layer]
    rng.shuffle(relays)  # insertion order is not the layer order
    nodes = (
        [{"id": nid, "role": "relay"} for nid in relays[:400]]
        + [{"id": "s", "role": "source"}]
        + [{"id": nid, "role": "relay"} for nid in relays[400:]]
        + [{"id": nid, "role": "sink"} for nid in layers[-1]]
    )
    spec = _spec(nodes=nodes, edges=edges)
    assert len(spec.nodes) == 1000
    spec.validate()
    assert spec.plan.order == _naive_topo_order(spec)
    succ = spec.plan.successors
    assert list(succ) == [nid for nid, _ in spec.nodes]
    for nid, heads in succ.items():
        assert heads == [v for u, v in spec.edges if u == nid]
    assert sum(map(len, succ.values())) == len(spec.edges)


# -------------------------------------------------------------------- relay


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def randrange(self, *args, **kwargs):
        self.calls += 1
        return super().randrange(*args, **kwargs)


def test_relay_single_packet_is_fixed(f16):
    rng = random.Random(0)
    for a in f16.nonzero_elements():
        for _ in range(5):
            assert relay_forward(f16, [a], rng) == a


def test_relay_zero_and_errors(f16):
    rng = random.Random(0)
    assert relay_forward(f16, [ZERO], rng) == ZERO
    assert relay_forward(f16, [ZERO, ZERO], rng) == ZERO
    with pytest.raises(EmptyInput):
        relay_forward(f16, [], rng)
    with pytest.raises(MixedClasses):
        relay_forward(f16, [ONE, class_elements(f16, 1)[0]], rng)
    with pytest.raises(MixedClasses):
        relay_forward(f16, [ONE, ZERO], rng)


def test_relay_output_stays_in_closure(f16, f9):
    rng = random.Random(1)
    for ctx in (f16, f9):
        for ell in range(ctx.q - 1):
            members = class_elements(ctx, ell)
            pkts = list(members[:2])
            allowed = set(closure(ctx, pkts))
            for _ in range(200):
                assert relay_forward(ctx, pkts, rng) in allowed


def test_relay_keeps_duplicates_in_stream(f16):
    # two copies of one packet still cost one draw each per attempt
    rng = CountingRandom(5)
    out = relay_forward(f16, [ONE, ONE], rng)
    assert out == ONE
    assert rng.calls % 2 == 0 and rng.calls >= 2


def test_relay_uniform_over_closure(f16):
    rng = random.Random(42)
    pkts = [ONE, 3]
    points = closure(f16, pkts)
    assert len(points) == 5
    n = 20000
    counts = Counter(relay_forward(f16, pkts, rng) for _ in range(n))
    assert set(counts) == set(points)
    expected = n / len(points)
    tolerance = 3 * (n * 0.2 * 0.8) ** 0.5
    for value, count in counts.items():
        assert abs(count - expected) <= tolerance, (value, count)


# ------------------------------------------------------------------ encoding


def test_encode_message_bounds(f16):
    rng = random.Random(0)
    for bad in (0, -1, 3):
        with pytest.raises(RankOutOfRange):
            encode_message(f16, 0, bad, rng)


def test_encode_message_rank_and_class(f16):
    rng = random.Random(9)
    for ell in range(3):
        for r in (1, 2):
            flat = encode_message(f16, ell, r, rng)
            assert flat.rank == r
            assert {class_of(f16, a) for a in flat.points} == {ell}


def test_encode_message_reaches_every_line(f16):
    rng = random.Random(3)
    seen = {encode_message(f16, 0, 1, rng).points for _ in range(400)}
    assert seen == {(a,) for a in class_elements(f16, 0)}


def test_build_message_variants(f16):
    spec = _spec(rank=0)
    assert build_message(f16, spec, random.Random(0)).points == ()
    spec = _spec(**{"class": None, "rank": 1})
    assert build_message(f16, spec, random.Random(0)).points == (ZERO,)
    spec = _spec()
    flat = build_message(f16, spec, random.Random(0))
    assert flat.rank == 2


# -------------------------------------------------------------------- trials


def test_run_trial_single_edge(f16):
    spec = _spec(
        nodes=[{"id": "s", "role": "source"}, {"id": "t", "role": "sink"}],
        edges=[["s", "t"]],
        rank=1,
    )
    message = encode_message(f16, 0, 1, random.Random(1))
    report = run_trial(f16, spec, message, seed=11)
    assert report.success
    assert report.packets_forwarded == 1
    (sink,) = report.sinks
    assert sink.decoded == message and sink.distance == 0
    assert sink.decoded.points == message.points


def test_run_trial_min_cut_one_cannot_carry_rank_two(f16):
    spec = _spec(
        nodes=[
            {"id": "s", "role": "source"},
            {"id": "a", "role": "relay"},
            {"id": "t", "role": "sink"},
        ],
        edges=[["s", "a"], ["a", "t"]],
    )
    message = encode_message(f16, 0, 2, random.Random(2))
    report = run_trial(f16, spec, message, seed=12)
    assert not report.success
    (sink,) = report.sinks
    assert len(sink.decoded.points) == 1  # a single line came through
    assert sink.distance == 1  # rank 2 + rank 1 - 2 * shared rank 1


def test_run_trial_deterministic(f16):
    spec = _spec()
    message = encode_message(f16, 0, 2, random.Random(4))
    a = run_trial(f16, spec, message, seed="fixed")
    b = run_trial(f16, spec, message, seed="fixed")
    assert a == b
    c = run_trial(f16, spec, message, seed="other")
    assert a.edge_packets != c.edge_packets  # same message, fresh randomness


def test_run_trial_closure_monotonicity(f16):
    rng = random.Random(31)
    for i in range(60):
        spec = random_layered_spec(rng, trials=0)
        message = build_message(f16, spec, random.Random(f"msg:{i}"))
        report = run_trial(f16, spec, message, seed=f"t:{i}")
        for sink in report.sinks:
            decoded = set(sink.decoded.points)
            assert decoded <= set(message.points)
            received_rank = matroid_closure(f16, sink.received).rank
            assert sink.success == (received_rank == message.rank)
            assert sink.success == (decoded == set(message.points))


# ------------------------------------------------------------ oracle mirror


def test_mirrored_source_vectors_are_lifts(f16):
    message = encode_message(f16, 1, 2, random.Random(6))
    vecs = mirrored_source_vectors(f16, message)
    assert len(vecs) == 2
    rebuilt = class_flat(f16, Subspace.from_vectors(f16, vecs), 1)
    assert rebuilt == message
    with pytest.raises(SpecInvalid):
        mirrored_source_vectors(f16, matroid_closure(f16, (ZERO,)))
    assert mirrored_source_vectors(f16, matroid_closure(f16, ())) == []


def test_diamond_mirrors_packet_for_packet(f16):
    spec = _spec()
    for i in range(30):
        message = build_message(f16, spec, random.Random(f"m:{i}"))
        seed = f"s:{i}"
        report = run_trial(f16, spec, message, seed)
        oracle = rlnc_oracle_trial(
            f16, spec, mirrored_source_vectors(f16, message), seed
        )
        assert report.packets_forwarded == oracle.packets_forwarded
        for (u, v, val), (ou, ov, vec) in zip(
            report.edge_packets, oracle.edge_packets
        ):
            assert (u, v) == (ou, ov)
            assert canonical_line_rep(f16, vec) == vec
            assert val == f16.mul(0, warp(f16, f16.uncoords(list(vec))))
        for s, os in zip(report.sinks, oracle.sinks):
            assert class_flat(f16, os.decoded, 0).points == s.decoded.points
            assert s.success == os.success
            assert s.distance == os.distance


def test_random_layered_specs_mirror(f16):
    rng = random.Random("mirror")
    for i in range(25):
        spec = random_layered_spec(rng, trials=0)
        ell = spec.class_index
        message = build_message(f16, spec, random.Random(f"mm:{i}"))
        seed = f"ss:{i}"
        report = run_trial(f16, spec, message, seed)
        oracle = rlnc_oracle_trial(
            f16, spec, mirrored_source_vectors(f16, message), seed
        )
        for s, os in zip(report.sinks, oracle.sinks):
            assert class_flat(f16, os.decoded, ell).points == s.decoded.points
            assert s.distance == os.distance


def test_canonical_line_rep(f16):
    for a in f16.nonzero_elements():
        line = canonical_line_rep(f16, f16.coords(a))
        # scale-invariant and idempotent
        for c in f16.subfield_elements[1:]:
            scaled = f16.coords(f16.mul(c, a))
            assert canonical_line_rep(f16, scaled) == line
        assert canonical_line_rep(f16, list(line)) == tuple(line)
        # picks the least discrete log on the line
        assert f16.uncoords(list(line)) == min(
            f16.mul(c, a) for c in f16.subfield_elements[1:]
        )
    with pytest.raises(ZeroArgument):
        canonical_line_rep(f16, [ZERO] * f16.m)


@pytest.mark.parametrize(
    "spec", ["2,2,1,1", "2,4,2,1", "3,2,1,1", "3,3,1,2", "2,5,1,2", "5,2,2,1", "2,6,3,1", "3,4,2,3"]
)
def test_canonical_line_rep_closed_form_matches_scan(spec):
    # the least-log multiple over every scalar of F_q*, on fields with
    # m = 1, odd p and s != 1
    ctx = get_field(*[int(t) for t in spec.split(",")])
    for a in ctx.nonzero_elements():
        best = min(ctx.mul(c, a) for c in ctx.subfield_elements[1:])
        assert canonical_line_rep(ctx, ctx.coords(a)) == tuple(ctx.coords(best))


# ----------------------------------------------------------------- simulate


_REPORT_KEYS = [
    "success_rate",
    "mean_distance",
    "per_sink",
    "trials",
    "seed",
    "packets_forwarded",
    "oracle",
]


def test_simulate_report_shape_and_determinism():
    spec = _spec(trials=40)
    a = simulate(spec)
    b = simulate(spec)
    assert json.dumps(a) == json.dumps(b)
    assert list(a.keys()) == _REPORT_KEYS
    for entry in a["per_sink"]:
        assert list(entry.keys()) == ["id", "success_rate", "mean_distance"]
    assert a["trials"] == 40 and a["seed"] == 7
    assert a["oracle"] is None
    assert 0.0 <= a["success_rate"] <= 1.0
    assert simulate(spec, seed=8) != a


def test_simulate_zero_trials():
    report = simulate(_spec(trials=0))
    assert report["success_rate"] is None
    assert report["mean_distance"] is None
    assert report["packets_forwarded"] == 0
    assert all(e["success_rate"] is None for e in report["per_sink"])


def test_simulate_diamond_rate_matches_theory():
    # two independent uniform lines out of five collide with chance 1/5
    report = simulate(_spec(trials=4000, seed="rate"))
    assert abs(report["success_rate"] - 0.8) <= 0.03


def test_simulate_degenerate_messages():
    zero_class = _spec(**{"class": None, "rank": 1, "trials": 20})
    report = simulate(zero_class)
    assert report["success_rate"] == 1.0 and report["mean_distance"] == 0.0
    rank0 = _spec(rank=0, trials=20)
    report = simulate(rank0)
    assert report["success_rate"] == 1.0
    assert report["packets_forwarded"] == 0


def test_simulate_with_rlnc_oracle():
    report = simulate(_spec(trials=200), oracle="rlnc")
    assert report["oracle"]["protocol"] == "rlnc"
    assert report["oracle"]["per_trial_match"] is True
    assert report["oracle"]["success_rate"] == report["success_rate"]
    assert list(report["oracle"].keys()) == [
        "protocol",
        "success_rate",
        "per_trial_match",
    ]


def test_simulate_oracle_errors():
    with pytest.raises(SpecInvalid):
        simulate(_spec(trials=1), oracle="fountain")
    with pytest.raises(SpecInvalid):
        simulate(_spec(**{"class": None, "rank": 1, "trials": 1}), oracle="rlnc")


def test_simulate_validates_spec():
    with pytest.raises(SpecInvalid):
        simulate(_spec(edges=[["s", "a"], ["a", "t"], ["b", "t"], ["t", "b"]]))
