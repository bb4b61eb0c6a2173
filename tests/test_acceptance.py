"""Acceptance gate: one test per shipping criterion, each timed against its
budget and printing a single PASS line (run with -s to see them).
"""

import itertools
import random
import time
from collections import Counter

from skewmatroid import (
    ONE,
    ZERO,
    class_elements,
    class_flat,
    dist,
    flats,
    is_p_independent,
    rank_of,
    relay_forward,
    representation,
    rlnc_oracle_trial,
    run_trial,
    unwarp_method1,
    unwarp_method2,
    verify_isometry,
)
from skewmatroid.field import kernel, mat_rank
from skewmatroid.minimal import closure, lift
from skewmatroid.netsim import build_message
from skewmatroid.selftest import run_all

from oracles import columns_independent, decompose_check
from specs import random_layered_spec
from test_matroid import _check_independence_axioms, _check_rank_axioms


def _timed(budget_s: float):
    start = time.perf_counter()

    def done(n: int, label: str) -> None:
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"criterion {n} took {elapsed:.2f}s (> {budget_s}s)"
        print(f"PASS criterion {n}: {label} [{elapsed:.2f}s < {budget_s:.0f}s]")

    return done


def _dbracket(ctx, i: int) -> int:
    qs = ctx.q**ctx.s
    return (qs**i - 1) // (qs - 1)


def test_criterion_1_golden_examples():
    done = _timed(1.0)
    results = run_all()["checks"]
    failed = [r for r in results if not r["ok"]]
    assert not failed, f"golden checks failed: {[r['name'] for r in failed]}"
    done(1, f"all {len(results)} golden examples exact")


def test_criterion_2_exhaustive_f16_class_structure(f16):
    done = _timed(5.0)
    members = class_elements(f16, 0)
    assert len(members) == 5
    n_subsets = 0
    for size in range(len(members) + 1):
        for pts in itertools.combinations(members, size):
            n_subsets += 1
            vec_indep = mat_rank(f16, lift(f16, pts)) == len(pts)
            assert is_p_independent(f16, pts) == vec_indep
            assert len(closure(f16, pts)) == _dbracket(f16, rank_of(f16, pts))
    assert n_subsets == 2**5
    c1_flats = list(flats(f16, class_index=0))
    assert len(c1_flats) == 7
    n_pairs = 0
    for x, y in itertools.product(c1_flats, repeat=2):
        decompose_check(f16, x.points, y.points)  # raises on any violation
        n_pairs += 1
    done(2, f"{n_subsets} subsets + {n_pairs} flat-pair decompositions on C(1)")


def test_criterion_3_matroid_and_metric_axioms(f4, f16, f64):
    done = _timed(30.0)
    # exhaustive axioms
    _check_independence_axioms(tuple(f4.elements()), lambda s: is_p_independent(f4, s))
    _check_rank_axioms(tuple(f4.elements()), lambda s: rank_of(f4, s))
    ground16 = class_elements(f16, 0)
    _check_independence_axioms(ground16, lambda s: is_p_independent(f16, s))
    _check_rank_axioms(ground16, lambda s: rank_of(f16, s))
    # randomized rank axioms on the 64-element field
    rng = random.Random("criterion-3")
    ground64 = list(f64.elements())
    pairs = 0
    for _ in range(10_000):
        x = frozenset(rng.sample(ground64, rng.randint(0, 5)))
        y = frozenset(rng.sample(ground64, rng.randint(0, 5)))
        rx, ry = rank_of(f64, x), rank_of(f64, y)
        assert 0 <= rx <= len(x)
        assert rank_of(f64, x | y) + rank_of(f64, x & y) <= rx + ry
        assert rank_of(f64, x | y) >= max(rx, ry)  # monotone in both arguments
        pairs += 1
    # flat-metric axioms on every pair (and triangle on every triple)
    for flat_list in (list(flats(f4)), list(flats(f16, class_index=0))):
        table = {
            (i, j): dist(x, y)
            for i, x in enumerate(flat_list)
            for j, y in enumerate(flat_list)
        }
        n = len(flat_list)
        for i, j in itertools.product(range(n), repeat=2):
            assert table[i, j] == table[j, i] >= 0
            assert (table[i, j] == 0) == (flat_list[i] == flat_list[j])
        for i, j, k in itertools.product(range(n), repeat=3):
            assert table[i, k] <= table[i, j] + table[j, k]
    done(3, f"axioms exhaustive on F4/C(1) + {pairs} random F64 pairs + metric")


def test_criterion_4_representation_oracle(f16):
    done = _timed(30.0)
    rep = representation(f16)
    assert rep.script_shape == (7, 16)
    ground = list(f16.elements())
    n_subsets = 0
    for size in range(5):
        for pts in itertools.combinations(ground, size):
            assert columns_independent(rep, pts) == is_p_independent(f16, pts)
            n_subsets += 1
    done(4, f"{n_subsets} subsets match the 7x16 column-independence oracle")


def test_criterion_5_isometry(f8, f16):
    done = _timed(10.0)
    for ctx in (f16, f8):
        report = verify_isometry(ctx)
        assert report["bijective"] and report["isometric"]
        assert report["subspaces"] == report["flats"]
    done(5, "warp correspondence is a bijective isometry on F16 and F8")


def test_criterion_6_root_finding_agreement(f16):
    done = _timed(1.0)
    scalars = set(f16.subfield_elements) - {ZERO}
    checked = 0
    for ell in range(f16.q - 1):
        gamma_ell = ell % (f16.order - 1)
        for alpha in class_elements(f16, ell):
            r1 = unwarp_method1(f16, alpha, ell)
            r2 = unwarp_method2(f16, alpha, ell)
            assert f16.div(r1, r2) in scalars
            # kernel of v -> v^{q} - (alpha/gamma^ell) v has dimension 1
            beta = f16.div(alpha, gamma_ell)
            cols = [
                f16.coords(f16.sub(f16.frobenius(b, f16.s), f16.mul(beta, b)))
                for b in f16.basis
            ]
            rows = [[cols[j][i] for j in range(f16.m)] for i in range(f16.m)]
            assert len(kernel(f16, rows)) == 1
            checked += 1
    assert checked == 15
    done(6, "both unwarp methods agree up to scalars on all 15 elements")


def test_criterion_7_simulation_equivalence(f16):
    done = _timed(60.0)
    rng = random.Random("criterion-7")
    specs = packets = trial_count = 0
    while specs < 100 or packets < 100_000:
        spec = random_layered_spec(rng, trials=0)
        specs += 1
        ell = spec.class_index
        for t in range(40):
            message = build_message(f16, spec, random.Random(f"c7:m:{specs}:{t}"))
            # run_trial itself raises on any containment violation
            record: list = []
            report = run_trial(f16, spec, message, f"c7:s:{specs}:{t}", record=record)
            oracle = rlnc_oracle_trial(f16, spec, message, record)
            assert report.packets_forwarded == oracle.packets_forwarded
            for s, os in zip(report.sinks, oracle.sinks):
                assert class_flat(f16, os.decoded, ell).points == s.decoded.points
            packets += report.packets_forwarded
            trial_count += 1
    assert specs >= 100 and packets >= 100_000
    done(7, f"{specs} DAGs, {trial_count} mirrored trials, {packets} packets contained")


def test_criterion_8_relay_uniformity(f16):
    done = _timed(10.0)
    rng = random.Random("criterion-8")
    pkts = [ONE, 3]
    outcomes = closure(f16, pkts)
    assert len(outcomes) == 5
    n = 100_000
    counts = Counter(relay_forward(f16, pkts, rng) for _ in range(n))
    assert set(counts) == set(outcomes)
    for value, count in sorted(counts.items()):
        assert abs(count - 20_000) <= 380, (f16.format_element(value), count)
    done(8, "relay output uniform on 5 outcomes at 3 sigma over 100000 draws")
