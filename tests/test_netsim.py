import ast
import functools
import json
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from skewmatroid import (
    EmptyInput,
    MixedClasses,
    NetSpec,
    ONE,
    RankOutOfRange,
    SkewPoly,
    SpecInvalid,
    Subspace,
    ZERO,
    ZeroArgument,
    class_elements,
    class_flat,
    class_of,
    closure,
    conjugate,
    encode_message,
    get_field,
    matroid_closure,
    relay_forward,
    rlnc_oracle_trial,
    run_trial,
    simulate,
    warp,
)
from skewmatroid import matroid, minimal, netsim
from skewmatroid import field as field_module
from skewmatroid.minimal import p_basis
from skewmatroid.netsim import (
    build_message,
    canonical_line_rep,
    mirrored_source_vectors,
)

from oracles import draw_by_randrange, encode_by_subspace
from specs import random_layered_spec


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


def _spec_json(spec: NetSpec) -> str:
    """The JSON document that NetSpec.from_json reads back as spec."""
    doc = {
        "field": spec.field,
        "nodes": [{"id": nid, "role": role} for nid, role in spec.nodes],
        "edges": [list(e) for e in spec.edges],
        "class": spec.class_index,
        "rank": spec.rank,
        "trials": spec.trials,
        "seed": spec.seed,
    }
    return json.dumps(doc, indent=2)


# -------------------------------------------------------------- spec parsing


def test_from_json_round_trip():
    spec = _spec()
    again = NetSpec.from_json(_spec_json(spec))
    assert again == spec
    assert spec.plan.source == "s"
    assert spec.plan.sinks == ("t",)
    assert spec.plan.order == ("s", "a", "b", "t")
    # a spec made by _replace is a NetSpec that builds its own plan
    other = spec._replace(rank=1)
    assert type(other) is NetSpec and "plan" not in vars(other)
    assert other == _spec(rank=1) == NetSpec.from_json(_spec_json(other))
    assert other.plan == spec.plan and other.plan is not spec.plan


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


def _netsim_spans() -> dict:
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
    return spans


def test_trace_span_names_are_netsim_globals():
    missing = [name for name in _netsim_spans() if not callable(getattr(netsim, name, None))]
    assert not missing


def test_trace_span_names_are_called(monkeypatch):
    # a swapped global that simulate never looks up would trace nothing
    called = set()
    for name in _netsim_spans():
        fn = getattr(netsim, name)
        monkeypatch.setattr(
            netsim, name, lambda *a, _name=name, _fn=fn, **k: called.add(_name) or _fn(*a, **k)
        )
    simulate(_spec(trials=5), oracle="rlnc")
    assert called == set(_netsim_spans())


def test_from_json_rejects_malformed():
    good = json.loads(_spec_json(_spec()))

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


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,  # nested past the recursion limit
        '{"trials": ' + "1" * 5000 + "}",  # past int()'s digit limit
    ],
    ids=["deep", "long_int"],
)
def test_from_json_rejects_what_json_cannot_build(text):
    with pytest.raises(SpecInvalid):
        NetSpec.from_json(text)


def test_validate_rejects_bad_topologies(f16):
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
            _spec(**changes).validate(f16)


def test_unchecked_spec_fails_before_the_walk(f16):
    # the walk reads the plan, and the plan is the spec check
    message = encode_message(f16, 0, 2, random.Random(0))
    cases = [
        (dict(edges=[["s", "a"], ["a", "zz"], ["s", "t"]]), "references an unknown node"),
        (dict(edges=[["s", "a"], ["a", "b"]]), "sink 't' is unreachable"),
    ]
    for changes, match in cases:
        with pytest.raises(SpecInvalid, match=match):
            run_trial(f16, _spec(**changes), message, seed=1)
        with pytest.raises(SpecInvalid, match=match):
            rlnc_oracle_trial(f16, _spec(**changes), message, [])


def test_trial_cap_is_trials_times_edges(f16):
    limit = netsim._MAX_EDGE_TRIALS
    _spec(trials=limit // 4).validate(f16)  # the diamond has four edges
    lone = dict(nodes=[{"id": "s", "role": "source"}], edges=[])
    _spec(trials=limit, **lone).validate(f16)  # no edges counts as one
    for bad in (_spec(trials=limit // 4 + 1), _spec(trials=limit + 1, **lone)):
        with pytest.raises(SpecInvalid, match="capped"):
            bad.validate(f16)
    with pytest.raises(SpecInvalid, match="capped"):
        simulate(_spec(), trials=limit // 4 + 1)  # an override obeys the same rule


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
    spec.validate(spec.ctx())
    assert spec.plan.order == _naive_topo_order(spec)
    succ = spec.plan.successors
    assert list(succ) == [nid for nid, _ in spec.nodes]
    for nid, heads in succ.items():
        assert heads == [v for u, v in spec.edges if u == nid]
    assert sum(map(len, succ.values())) == len(spec.edges)


# -------------------------------------------------------------------- relay


class CountingRandom(random.Random):
    """Counts the draw's accepted reads: getrandbits values below q."""

    def __init__(self, seed, q):
        super().__init__(seed)
        self.q, self.calls = q, 0

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.calls += r < self.q
        return r


def test_relay_single_packet_is_fixed(f16):
    rng = random.Random(0)
    for a in f16.nonzero_elements():
        for _ in range(5):
            assert relay_forward(f16, [a], rng) == a


def test_a_one_packet_relay_still_draws(f16, monkeypatch):
    # the lone packet comes back, as warp kills F_q*, but through the shared
    # draw, so the seeded stream advances as the oracle's does
    draws = []
    draw = netsim._draw_nonzero_combination
    monkeypatch.setattr(
        netsim, "_draw_nonzero_combination", lambda *a: draws.append(a[1]) or draw(*a)
    )
    rng = CountingRandom(0, f16.q)
    for a in (ONE, class_elements(f16, 2)[3]):
        assert relay_forward(f16, [a], rng) == a
    assert [len(vectors) for vectors in draws] == [1, 1] and rng.calls >= 2


_DRAW_FIELDS = ["2,4,2,1", "2,1,1,1", "3,2,1,1", "3,4,2,1", "2,8,2,3", "2,5,1,2"]


@pytest.mark.parametrize("field", _DRAW_FIELDS + ["2,16,4,1", "7,2,1,1"])
def test_the_draw_reads_the_stream_randrange_reads(field):
    # pools of 1-5 nonzero elements with repeats: the draw returns what one
    # randrange(q) per item per attempt returns, and leaves the stream where
    # those calls leave it, on this interpreter's randrange
    ctx = get_field(*[int(t) for t in field.split(",")])
    pick = random.Random(field)
    for i in range(200):
        elements = [pick.randrange(ctx.order - 1) for _ in range(3)]
        pool = [pick.choice(elements) for _ in range(1 + i % 5)]
        got_rng, want_rng = random.Random(f"{field}:{i}"), random.Random(f"{field}:{i}")
        got = netsim._draw_nonzero_combination(ctx, pool, got_rng)
        assert got == draw_by_randrange(ctx, pool, want_rng)
        assert got_rng.random() == want_rng.random()


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
    # classes are named as classof prints them, the class of zero first
    with pytest.raises(MixedClasses, match=r"several classes: C\(0\), C\(1\), C\(g2\)$"):
        relay_forward(f16, [class_elements(f16, 2)[0], ZERO, ONE, ONE], rng)


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
    rng = CountingRandom(5, f16.q)
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


@pytest.mark.parametrize(
    "field",
    ["2,4,2,1", "2,16,4,1", "3,3,1,1", "2,5,1,2", "2,3,3,1", "3,2,2,1", "2,12,1,1", "3,6,1,1"],
)
def test_message_basis_is_the_canonical_p_basis(field):
    # the source sends message.basis; it is the greedy P-basis of the flat's
    # points in canonical order, at every rank and for the zero class, on
    # both sides of the switch from enumerating lines to scanning the class
    ctx = get_field(*[int(t) for t in field.split(",")])
    specs = [_spec(**{"class": None, "rank": 1})]
    for r in range(ctx.m + 1):
        for ell in range(min(ctx.q - 1, 3)):
            specs += [_spec(rank=r, **{"class": ell})] * (1 if r == ctx.m else 3)
    for i, spec in enumerate(specs):
        message = build_message(ctx, spec, random.Random(f"{field}:{i}"))
        assert message.basis == p_basis(ctx, message.points)


def test_run_trial_enumerates_nothing(f16, monkeypatch):
    calls = []
    monkeypatch.setattr(matroid, "closure", lambda *a: calls.append(a) or closure(*a))
    message = build_message(f16, _spec(), random.Random(0))
    calls.clear()  # encoding may enumerate the message, to choose its basis
    run_trial(f16, _spec(), message, seed=3)
    assert calls == []


@pytest.mark.parametrize("r", range(1, 13))
def test_encode_message_work_follows_the_cheaper_stream(r, monkeypatch):
    # evaluate and warp calls are at most 2 min(q^r, r^2 q^(m-r)); the
    # unstopped greedy over the enumerated flat alone costs about 2 q^r, a
    # warp per line and an evaluate per point
    ctx = get_field(2, 12, 1, 1)
    calls = Counter()
    evaluate, warp_ = SkewPoly.evaluate, minimal.warp
    monkeypatch.setattr(SkewPoly, "evaluate", lambda f, a: calls.update("e") or evaluate(f, a))
    monkeypatch.setattr(minimal, "warp", lambda c, a: calls.update("w") or warp_(c, a))
    message = encode_message(ctx, 0, r, random.Random(f"work:{r}"))
    assert message.rank == r
    q, m = ctx.q, ctx.m
    assert sum(calls.values()) <= 2 * min(q**r, r * r * q ** (m - r))


_ENCODE_FIELDS = [
    "2,4,2,1", "2,4,2,3", "2,5,1,2", "2,6,2,1", "2,6,3,1", "2,6,1,5", "2,8,2,3",
    "3,2,1,1", "3,3,1,2", "3,4,1,3", "3,4,2,1", "5,2,1,1", "5,3,1,2", "7,2,1,1",
    "2,4,4,1", "3,3,3,1",
]


@pytest.mark.parametrize("field", _ENCODE_FIELDS)
def test_encode_message_matches_the_subspace_route(field):
    # odd p, s != 1 and m = 1 among the fields; every rank, several classes,
    # and the stream left where the row-reduction route leaves it
    ctx = get_field(*[int(t) for t in field.split(",")])
    for r in range(1, ctx.m + 1):
        for ell in sorted({0, 1 % (ctx.q - 1), ctx.q - 2}):
            for i in range(3):
                seed = f"{field}:{r}:{ell}:{i}"
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                got = encode_message(ctx, ell, r, got_rng)
                want = encode_by_subspace(ctx, ell, r, want_rng)
                assert got.minpoly == want.minpoly
                assert got.basis == want.basis
                assert got_rng.random() == want_rng.random()


def _readers(attr, node, scope=()):
    """The scope, as a dotted name, of each load of attr under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _readers(attr, child, scope + (child.name,))
            continue
        name = getattr(child, "id", None) or getattr(child, "attr", None)
        if name == attr and isinstance(getattr(child, "ctx", None), ast.Load):
            yield ".".join(scope)
        yield from _readers(attr, child, scope)


def test_only_the_shared_draw_reads_the_generator():
    # the message's points, the relays' packets and the oracle's vectors all
    # come from one draw, so an identically seeded stream has one consumer
    tree = ast.parse(Path(netsim.__file__).read_text(encoding="utf-8"))
    assert set(_readers("getrandbits", tree)) == {"_draw_nonzero_combination"}
    assert list(_readers("randrange", tree)) == []


def test_simulate_without_the_oracle_reduces_no_rows(monkeypatch):
    # the message is drawn as its minimal polynomial, and equal flats are at
    # distance 0 without a common right divisor
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.update([name]) or fn(*a, **k))

    from_vectors = Subspace.from_vectors.__func__
    monkeypatch.setattr(
        Subspace, "from_vectors",
        classmethod(lambda cls, *a: calls.update(["from_vectors"]) or from_vectors(cls, *a)),
    )
    for module, name in ((field_module, "rref"), (matroid, "rref"), (matroid, "class_flat"),
                         (netsim, "class_flat"), (matroid, "grcd")):
        count(module, name)
    report = simulate(_spec(trials=30))
    assert report["success_rate"] > 0
    assert calls.keys() <= {"grcd"}  # sinks that decode another flat
    ctx = get_field(2, 4, 2, 1)
    x = build_message(ctx, _spec(), random.Random(0))
    y = matroid_closure(ctx, x.basis[:1])
    calls.clear()
    assert matroid.dist(x, x) == 0
    assert calls == Counter()
    assert matroid.dist(x, y) > 0
    assert calls == Counter(["grcd"])


def test_build_message_variants(f16):
    spec = _spec(rank=0)
    assert build_message(f16, spec, random.Random(0)).points == ()
    spec = _spec(**{"class": None, "rank": 1})
    assert build_message(f16, spec, random.Random(0)).points == (ZERO,)
    spec = _spec()
    flat = build_message(f16, spec, random.Random(0))
    assert flat.rank == 2


@pytest.mark.parametrize("field, overrides, once", [
    pytest.param("2,4,2,1", {"rank": 0}, True, id="rank-0"),
    pytest.param("2,4,2,1", {"class": None, "rank": 1}, True, id="zero-class"),
    pytest.param("2,4,2,1", {"rank": 2}, True, id="rank-m"),
    pytest.param("2,4,4,1", {"rank": 1}, True, id="rank-m-on-m1"),
    pytest.param("2,4,2,1", {"rank": 1}, False, id="rank-1"),
])
def test_a_message_with_one_choice_is_built_once_per_call(field, overrides, once, monkeypatch):
    # a class holds one flat of rank 0 and one of rank m, and the zero class
    # one flat, so simulate builds that message once; rank 1 of m = 2 draws
    # a message per trial
    built = []
    build = netsim.build_message
    monkeypatch.setattr(netsim, "build_message", lambda *a: built.append(a) or build(*a))
    spec = _spec(field=field, trials=12, **overrides)
    for seed in (1, 2):
        built.clear()
        simulate(spec, seed=seed)
        assert len(built) == (1 if once else 12)


def test_the_element_simulator_calls_no_add_scaled(monkeypatch):
    # relays and the message draw combine field elements through ctx.add
    calls = []
    add_scaled = netsim.add_scaled
    monkeypatch.setattr(netsim, "add_scaled", lambda *a: calls.append(a) or add_scaled(*a))
    for rank in (1, 2):
        assert simulate(_spec(rank=rank, trials=20))["packets_forwarded"] > 0
    assert calls == []


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


_TABLED_FIELDS = ["2,4,2,1", "2,4,4,1", "3,2,1,1", "3,4,2,1", "2,6,3,1", "2,8,2,3",
                  "5,2,1,1", "2,5,1,2", "2,1,1,1", "7,2,1,1"]


@pytest.mark.parametrize("field", _TABLED_FIELDS)
def test_mirrored_source_vectors_are_lifts(field):
    # at every rank, in the first and the last class (one class when q = 2),
    # the lifts span what class_flat maps back to the message, and each is
    # its line's least-log representative, so the oracle sends them unchanged
    ctx = get_field(*map(int, field.split(",")))
    rng = random.Random(f"lifts:{field}")
    for ell in sorted({0, ctx.q - 2}):
        for r in range(1, ctx.m + 1):
            message = encode_message(ctx, ell, r, rng)
            vecs = mirrored_source_vectors(ctx, message)
            assert len(vecs) == r
            for v in vecs:
                assert canonical_line_rep(ctx, v) == v
            assert class_flat(ctx, Subspace.from_vectors(ctx, vecs), ell) == message
    with pytest.raises(SpecInvalid):
        mirrored_source_vectors(ctx, matroid_closure(ctx, (ZERO,)))
    assert mirrored_source_vectors(ctx, matroid_closure(ctx, ())) == []


def test_diamond_mirrors_packet_for_packet(f16):
    spec = _spec()
    for i in range(30):
        message = build_message(f16, spec, random.Random(f"m:{i}"))
        record: list = []
        report = run_trial(f16, spec, message, f"s:{i}", record=record)
        oracle = rlnc_oracle_trial(f16, spec, message, record)
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
        record: list = []
        report = run_trial(f16, spec, message, f"ss:{i}", record=record)
        oracle = rlnc_oracle_trial(f16, spec, message, record)
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


def test_the_oracle_catches_a_relay_that_skips_its_draw(monkeypatch):
    # forwarding a lone packet as is gives the right element but shifts the
    # seeded stream, so the vector replay draws other combinations; this spec
    # has such a relay, and the oracle must see the fault
    spec = random_layered_spec(random.Random("skip:2"), trials=10, seed=2)
    assert simulate(spec, oracle="rlnc")["oracle"]["per_trial_match"] is True
    real = netsim.relay_forward

    def lazy_relay(ctx, in_packets, rng):
        return in_packets[0] if len(in_packets) == 1 else real(ctx, in_packets, rng)

    monkeypatch.setattr(netsim, "relay_forward", lazy_relay)
    assert simulate(spec, oracle="rlnc")["oracle"]["per_trial_match"] is False


def test_the_oracle_catches_a_draw_that_rejects_a_nonzero_combination(monkeypatch):
    # the first element draw of a relay throws its nonzero combination away
    # and draws again, so its recorded reads hold two attempts; the replay
    # accepts the first and leaves the second unread
    spec = _spec(trials=10)
    assert simulate(spec, oracle="rlnc")["oracle"]["per_trial_match"] is True
    draw, rejected = netsim._draw_nonzero_combination, []

    def rejecting_draw(ctx, items, rng):
        record = getattr(rng, "record", None)
        if record is None or rejected:
            return draw(ctx, items, rng)
        rejected.append(draw(ctx, items, rng))  # nonzero, yet thrown away
        assert record.pop() is None  # so both attempts' reads form one draw's
        return draw(ctx, items, rng)

    monkeypatch.setattr(netsim, "_draw_nonzero_combination", rejecting_draw)
    report = simulate(spec, oracle="rlnc")
    assert len(rejected) == 1
    assert report["oracle"]["per_trial_match"] is False


def test_the_oracle_catches_a_draw_that_reads_one_coefficient_too_many(monkeypatch):
    # each relay's draw reads a coefficient for its first packet twice: the
    # packets stay in the closure, and on this spec the sinks still decode
    # what a seeded oracle decodes, but each draw's record holds a read per
    # attempt that the replay, drawing over the pool held, never reads
    spec = random_layered_spec(random.Random("extra:0"), trials=10, seed=3)
    assert simulate(spec, oracle="rlnc")["oracle"]["per_trial_match"] is True
    real = netsim.relay_forward

    def greedy_relay(ctx, in_packets, rng):
        return real(ctx, [*in_packets, in_packets[0]], rng)

    monkeypatch.setattr(netsim, "relay_forward", greedy_relay)
    report = simulate(spec, oracle="rlnc")
    assert report["oracle"]["per_trial_match"] is False
    assert report["packets_forwarded"] > 0


def test_a_replay_must_read_exactly_the_recorded_reads(f16):
    # the oracle takes run_trial's record into a report that mirrors the
    # trial packet for packet, and returns None, never raising, for a record
    # with a read or a draw too many or too few, or with a read the draw
    # could not have made
    spec = _spec()
    message = build_message(f16, spec, random.Random("replay"))
    for i in range(20):
        record: list = []
        report = run_trial(f16, spec, message, f"r:{i}", record=record)
        assert record.count(None) == 4 and record[-1] is None  # one draw per edge
        oracle = rlnc_oracle_trial(f16, spec, message, list(record))
        assert [(u, v, f16.mul(0, warp(f16, f16.uncoords(list(vec)))))
                for u, v, vec in oracle.edge_packets] == list(report.edge_packets)
        first = record.index(None)
        faults = [
            record[:first] + [0] + record[first:],  # a draw's read too many
            record[: first - 1] + record[first:],  # a read too few
            record + record[:first + 1],  # a draw too many
            record[: record.index(None, first + 1) + 1],  # draws too few
            [record[0] - f16.q] + record[1:],  # a read below 0
        ]
        for fault in faults:
            assert rlnc_oracle_trial(f16, spec, message, fault) is None


def test_a_trial_seeds_one_generator(monkeypatch):
    # with the oracle on, a call seeds one generator per trial and one per
    # message it builds, each from a string: the oracle replays the element
    # walk's reads and builds no generator
    seeds, built = [], []
    seed, build = random.Random.seed, netsim.build_message
    monkeypatch.setattr(random.Random, "seed", lambda self, *a, **k: seeds.append(a) or seed(self, *a, **k))
    monkeypatch.setattr(netsim, "build_message", lambda *a: built.append(a) or build(*a))
    for spec in (_spec(trials=30), _spec(trials=30, rank=1), _three_sink_spec(rank=1, trials=30)):
        seeds.clear()
        built.clear()
        assert simulate(spec, oracle="rlnc")["oracle"]["per_trial_match"] is True
        assert len(seeds) == 30 + len(built) and len(built) in (1, 30)
        assert all(len(a) == 1 and isinstance(a[0], str) for a in seeds)


def test_without_the_oracle_nothing_is_recorded(monkeypatch):
    # a draw records when its generator carries a record, which only a call
    # with the oracle gives to the element walk's generators
    recording = []
    draw = netsim._draw_nonzero_combination

    def seen_draw(ctx, items, rng):
        recording.append(hasattr(rng, "record"))
        return draw(ctx, items, rng)

    monkeypatch.setattr(netsim, "_draw_nonzero_combination", seen_draw)
    simulate(_spec(trials=20))
    assert recording and not any(recording)
    recording.clear()
    simulate(_spec(trials=20), oracle="rlnc")
    assert recording.count(True) == 20 * 4  # the diamond's four element draws a trial


def _three_sink_spec(**overrides) -> NetSpec:
    # sinks t and v hear relays a and b, u hears a alone; each relay holds
    # one packet, so t and v always decode the same span
    return _spec(
        nodes=[{"id": "s", "role": "source"}, {"id": "a", "role": "relay"},
               {"id": "b", "role": "relay"}, {"id": "t", "role": "sink"},
               {"id": "u", "role": "sink"}, {"id": "v", "role": "sink"}],
        edges=[["s", "a"], ["s", "b"], ["a", "t"], ["b", "t"], ["a", "u"],
               ["a", "v"], ["b", "v"]],
        **overrides,
    )


def test_the_oracle_maps_each_decoded_row_space_once_per_call(monkeypatch):
    # t and v decode the same row space in a trial, and row spaces repeat
    # across trials; each distinct one is mapped through class_flat once
    spec = _three_sink_spec(trials=40)
    trials, per_trial, mapped = [], [], []
    trial, oracle_trial, image = netsim.run_trial, netsim.rlnc_oracle_trial, netsim.class_flat

    def run_trial(*a, **k):
        trials.append(a)
        return trial(*a, **k)

    def rlnc(*a, **k):
        report = oracle_trial(*a, **k)
        per_trial.append({s.decoded for s in report.sinks})
        return report

    def class_flat(ctx, v, ell):
        mapped.append(v)
        return image(ctx, v, ell)

    monkeypatch.setattr(netsim, "run_trial", run_trial)
    monkeypatch.setattr(netsim, "rlnc_oracle_trial", rlnc)
    monkeypatch.setattr(netsim, "class_flat", class_flat)
    assert simulate(spec, oracle="rlnc")["oracle"]["per_trial_match"] is True
    assert len(trials) == len(per_trial) == 40
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == set().union(*per_trial)
    assert any(len(spaces) == 2 for spaces in per_trial)  # u's space differed
    assert len(mapped) < sum(map(len, per_trial))  # and spaces recur across trials


def _parallel_spec(**overrides) -> NetSpec:
    # t hears the source on three parallel edges: at rank 2 its packets come
    # in any order and with repeats, so one set of packets arrives as many tuples
    return _spec(
        nodes=[{"id": "s", "role": "source"}, {"id": "t", "role": "sink"}],
        edges=[["s", "t"]] * 3,
        **overrides,
    )


@pytest.mark.parametrize("make, rank", [
    pytest.param(_three_sink_spec, 1, id="1"),
    pytest.param(_three_sink_spec, 2, id="2"),
    pytest.param(_parallel_spec, 2, id="parallel-2"),
])
def test_each_distinct_reception_is_decoded_once_per_call(make, rank, monkeypatch):
    # element decodes are matroid_closure calls and oracle decodes are the
    # row reductions, Subspace.from_vectors calls, other than the one per
    # distinct source: one per distinct (message, set of received packets);
    # each distinct message is mirrored once and each distinct row space
    # mapped once
    spec = make(rank=rank, trials=60, **{"class": 1})
    calls = Counter()
    reports = {"run_trial": [], "rlnc_oracle_trial": []}
    for name in ("matroid_closure", "_oracle_source", "mirrored_source_vectors", "class_flat"):
        fn = getattr(netsim, name)
        monkeypatch.setattr(
            netsim, name, lambda *a, _name=name, _fn=fn: calls.update([_name]) or _fn(*a)
        )
    from_vectors = Subspace.from_vectors.__func__
    monkeypatch.setattr(
        Subspace, "from_vectors",
        classmethod(lambda cls, *a: calls.update(["from_vectors"]) or from_vectors(cls, *a)),
    )
    for name, made in reports.items():
        fn = getattr(netsim, name)
        monkeypatch.setattr(
            netsim, name, lambda *a, _made=made, _fn=fn, **k: _made.append(_fn(*a, **k)) or _made[-1]
        )
    assert simulate(spec, oracle="rlnc")["oracle"]["per_trial_match"] is True

    def pairs(name):
        return [(r.message, frozenset(s.received)) for r in reports[name] for s in r.sinks]

    element, vector = pairs("run_trial"), pairs("rlnc_oracle_trial")
    messages = [r.message for r in reports["run_trial"]]
    spaces = [s.decoded for r in reports["rlnc_oracle_trial"] for s in r.sinks]
    assert len(element) == len(vector) == len(spec.plan.sinks) * 60
    assert calls["matroid_closure"] == len(set(element)) < len(element)
    assert calls["from_vectors"] - calls["_oracle_source"] == len(set(vector)) < len(vector)
    assert calls["mirrored_source_vectors"] == len(set(messages)) < len(messages)
    assert calls["_oracle_source"] == len(set(messages))
    assert calls["class_flat"] == len(set(spaces)) < len(spaces)
    tuples = {(r.message, s.received) for r in reports["run_trial"] for s in r.sinks}
    assert len(set(element)) < len(tuples)  # fewer sets than tuples, so fewer decodes


@pytest.mark.parametrize("field", _TABLED_FIELDS)
def test_tabled_trials_match_standalone_trials(field, monkeypatch):
    # a trial that reads and fills simulate's tables reports what a trial
    # with a fresh table reports; m = 1, odd p, s != 1 and rank 0, where
    # both simulators receive (), are among the inputs
    ctx = get_field(*map(int, field.split(",")))
    rng = random.Random(f"tabled:{field}")
    specs = [
        random_layered_spec(rng, field, ctx.q - 1, ctx.m, trials=12, seed=f"{field}:{i}")
        for i in range(2)
    ]
    specs.append(specs[0]._replace(rank=0))
    made = []
    for name in ("run_trial", "rlnc_oracle_trial"):
        fn = getattr(netsim, name)
        monkeypatch.setattr(
            netsim, name,
            lambda *a, _fn=fn, **k: made.append((_fn, a, k, _fn(*a, **k))) or made[-1][3],
        )
    for spec in specs:
        simulate(spec, oracle="rlnc")
    assert len(made) == 2 * 12 * len(specs)
    assert any(r.sinks[0].received == () for *_, r in made)
    for fn, a, k, report in made:
        assert k["decoded"] is not None
        assert fn(*a) == report


@pytest.mark.parametrize("field", _TABLED_FIELDS)
def test_warp_conjugate_and_placement_are_log_closed_forms(field, monkeypatch):
    # on every element: warp is the power twist - 1, conjugation multiplies
    # by that power, and a relay places its draw a in class ell as
    # g^ell * warp(a); m = 1, N = 1, odd p and s != 1 are among the fields
    ctx = get_field(*map(int, field.split(",")))
    e = ctx.twist - 1
    drawn = []
    monkeypatch.setattr(netsim, "_draw_nonzero_combination", lambda *a: drawn[-1])
    for a in ctx.nonzero_elements():
        assert warp(ctx, a) == ctx.pow(a, e)
        assert conjugate(ctx, ZERO, a) == ZERO
        for c in ctx.nonzero_elements():
            assert conjugate(ctx, a, c) == ctx.mul(a, ctx.pow(c, e))
        drawn.append(a)
        for ell in range(ctx.q - 1):
            assert relay_forward(ctx, [ell], None) == ctx.mul(ell, ctx.pow(a, e))


def test_each_table_holds_at_most_its_cap(monkeypatch):
    # at a cap of 2 the call's one table is cleared, never holds more than 2
    # entries, and the report is byte-identical
    spec = _three_sink_spec(rank=1, trials=40, **{"class": 1})
    expected = json.dumps(simulate(spec, oracle="rlnc"))
    memo, tables, cleared = netsim._memo, set(), set()

    def checked(table, *a):
        before = len(table)
        value = memo(table, *a)
        assert len(table) <= netsim._MAX_TABLE_ENTRIES
        tables.add(id(table))
        if len(table) < before:
            cleared.add(id(table))
        return value

    monkeypatch.setattr(netsim, "_MAX_TABLE_ENTRIES", 2)
    monkeypatch.setattr(netsim, "_memo", checked)
    assert json.dumps(simulate(spec, oracle="rlnc")) == expected
    assert len(tables) == 1 and cleared == tables


def test_a_run_without_repeats_keeps_its_tables_small():
    # eight sinks each hear two packets of a rank-2 message on 2,16,4,1:
    # 2,400 receptions that do not repeat fill the decode table to its cap of
    # 1,024 entries twice, and the run peaks at about 0.63 MiB; uncapped it
    # would reach 1.42 MiB
    nodes = [{"id": "s", "role": "source"}] + [{"id": f"t{j}", "role": "sink"} for j in range(8)]
    spec = _spec(
        field="2,16,4,1", nodes=nodes, edges=[["s", f"t{j}"] for j in range(8)] * 2,
        rank=2, trials=300, seed="no repeats", **{"class": 1},
    )
    assert netsim._MAX_TABLE_ENTRIES == 1_024  # the cap that README states
    simulate(spec, trials=1)  # the field and its caches are built outside the count
    tracemalloc.start()
    try:
        simulate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_sink_with_many_in_edges_keeps_the_table_small():
    # one sink hears the source on 244 parallel edges at rank 2 on 2,12,1,1:
    # each reception is 244 packets but a set of at most 3 points (or their
    # vectors), so 25 trials with the oracle peak near 0.25 MiB; a table
    # keyed by the received tuples held about 1.2 MiB
    nodes = [{"id": "s", "role": "source"}, {"id": "t", "role": "sink"}]
    spec = _spec(
        field="2,12,1,1", nodes=nodes, edges=[["s", "t"]] * 244,
        rank=2, trials=25, seed="in-degree", **{"class": 0},
    )
    simulate(spec, oracle="rlnc")  # the field and its caches are built outside the count
    tracemalloc.start()
    try:
        assert simulate(spec, oracle="rlnc")["oracle"]["per_trial_match"] is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_netsim_keeps_no_table_outside_a_call():
    # every table lives in one simulate call's frame: netsim binds no
    # module-level dict, list or set and uses no functools cache
    tree = ast.parse(Path(netsim.__file__).read_text(encoding="utf-8"))
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    builders = {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict", "deque"}
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and value is not None:
            assert not isinstance(value, displays), ast.unparse(node)
            func = value.func if isinstance(value, ast.Call) else None
            assert getattr(func, "id", getattr(func, "attr", None)) not in builders, ast.unparse(node)
    names = set()
    for node in ast.walk(tree):
        names.update(getattr(node, key) for key in ("id", "attr") if hasattr(node, key))
        if isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"cache", "lru_cache"}


def test_simulate_oracle_errors():
    with pytest.raises(SpecInvalid):
        simulate(_spec(trials=1), oracle="fountain")
    with pytest.raises(SpecInvalid):
        simulate(_spec(**{"class": None, "rank": 1, "trials": 1}), oracle="rlnc")


def test_simulate_validates_spec():
    with pytest.raises(SpecInvalid):
        simulate(_spec(edges=[["s", "a"], ["a", "t"], ["b", "t"], ["t", "b"]]))
