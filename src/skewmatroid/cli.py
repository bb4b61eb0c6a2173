"""Command line front end.

One executable, verb-style subcommands.  Output is plain text by default and
single-line JSON with --json (fixed key order, safe to golden-file).  Exit
codes: 0 success, 1 domain error (the error class name is printed to
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from .conjugacy import class_elements, class_label, class_of, unwarp_method1, unwarp_method2
from .errors import DomainError
from .field import Fe, FieldCtx, field_from_spec
from .matroid import (
    dist,
    flats,
    matroid_closure,
    representation,
    verify_isometry,
)
from .minimal import closure, is_p_independent, minimal_poly, p_basis, rank_of
from .netsim import NetSpec, simulate
from .selftest import run_all
from .skewpoly import SkewPoly, grcd, llcm


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewmatroid",
        description="Skew-polynomial matroids over finite fields: arithmetic, "
        "closure and rank queries, representation matrices, metrics, and a "
        "network-coding simulator.",
    )
    parser.add_argument("--field", metavar="SPEC", help="field spec p,n,k,s[,modpoly]")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", metavar="SEED", help="seed override for randomized verbs")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    sub.add_parser("fieldinfo", help="describe the field context")

    for verb, help_text in (
        ("mul", "skew product of two polynomials"),
        ("divmod", "right quotient and remainder"),
        ("grcd", "greatest common right divisor"),
        ("llcm", "least left common multiple"),
    ):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("f", help="polynomial, e.g. 'g2*x^2 + x + 1'")
        sp.add_argument("g", help="polynomial")

    sp = sub.add_parser("eval", help="evaluate a polynomial at an element")
    sp.add_argument("f", help="polynomial")
    sp.add_argument("a", help="element token (0, 1, or g<i>)")

    sp = sub.add_parser("zeros", help="zero set of a polynomial")
    sp.add_argument("f", help="polynomial")

    sp = sub.add_parser("classof", help="conjugacy class of an element")
    sp.add_argument("a", help="element token")

    sp = sub.add_parser("classelems", help="list a conjugacy class")
    sp.add_argument("ell", type=int, help="class index (0 for the class of 1)")

    sp = sub.add_parser("unwarp", help="invert the warping map inside a class")
    sp.add_argument("alpha", help="element token")
    sp.add_argument("--class", dest="ell", type=int, default=None,
                    help="class index (default: the element's own class)")
    sp.add_argument("--method", choices=("1", "2", "both"), default="1",
                    help="kernel method, exponent method, or both")

    for verb, help_text in (
        ("minpoly", "minimal skew polynomial of a point set"),
        ("closure", "closure of a point set"),
        ("pindep", "is the point set P-independent?"),
        ("pbasis", "greedy P-basis of a point set"),
        ("rank", "matroid rank of a point set"),
    ):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("points", help="comma-separated element tokens, e.g. '1,g3'")

    sp = sub.add_parser("flats", help="enumerate flats (small fields only)")
    sp.add_argument("--class", dest="ell", type=int, default=None,
                    help="restrict to one class's submatroid")
    sp.add_argument("--max-rank", type=int, default=None)

    sub.add_parser("repmatrix", help="representation matrices over the base field")

    sp = sub.add_parser("dist", help="flat-metric distance between two point sets")
    sp.add_argument("x", help="comma-separated element tokens")
    sp.add_argument("y", help="comma-separated element tokens")

    sub.add_parser("isometry-check",
                   help="verify the subspace-to-flat correspondence is a bijective isometry")

    sp = sub.add_parser("simulate", help="run the network simulator on a JSON spec")
    sp.add_argument("--spec", required=True, metavar="FILE", help="NetSpec JSON file")
    sp.add_argument("--oracle", choices=("rlnc",), default=None,
                    help="mirror every trial on the vector simulator and compare")
    sp.add_argument("--trials", type=int, default=None, help="override the spec's trial count")

    sub.add_parser("selftest", help="run the built-in golden checks")
    return parser


def _parse_points(ctx: FieldCtx, text: str) -> tuple[Fe, ...]:
    return tuple(ctx.parse_element(tok.strip()) for tok in text.split(",") if tok.strip())


def _format_points(ctx: FieldCtx, points: Sequence[Fe]) -> str:
    return ", ".join(ctx.format_element(a) for a in points) if points else "(empty)"


def _point_list(ctx: FieldCtx, points: Sequence[Fe]) -> list[str]:
    return [ctx.format_element(a) for a in points]


def _emit(args, payload: dict, human: Callable[[], None]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        human()


def _cmd_fieldinfo(ctx: FieldCtx, args) -> int:
    info = {
        "order": ctx.order,
        "p": ctx.p,
        "n": ctx.n,
        "k": ctx.k,
        "s": ctx.s,
        "q": ctx.q,
        "m": ctx.m,
        "modpoly": ctx.modpoly_string(),
        "classes": ctx.q - 1,
        "class_size": ctx.class_size,
        "subfield_units": _point_list(ctx, ctx.subfield_elements[1:]),
    }

    def human() -> None:
        for key, value in info.items():
            if key == "subfield_units":
                value = ", ".join(value)
            print(f"{key}: {value}")

    _emit(args, info, human)
    return 0


def _cmd_poly_binop(ctx: FieldCtx, args) -> int:
    f = SkewPoly.parse(ctx, args.f)
    g = SkewPoly.parse(ctx, args.g)
    if args.verb == "mul":
        result = f * g
    elif args.verb == "grcd":
        result = grcd(f, g)
    elif args.verb == "llcm":
        result = llcm(f, g)
    else:  # divmod
        quo, rem = f.right_divmod(g)
        _emit(args, {"quotient": str(quo), "remainder": str(rem)},
              lambda: print(f"quotient: {quo}\nremainder: {rem}"))
        return 0
    _emit(args, {"result": str(result)}, lambda: print(result))
    return 0


def _cmd_eval(ctx: FieldCtx, args) -> int:
    value = SkewPoly.parse(ctx, args.f).evaluate(ctx.parse_element(args.a))
    token = ctx.format_element(value)
    _emit(args, {"result": token}, lambda: print(token))
    return 0


def _cmd_zeros(ctx: FieldCtx, args) -> int:
    zs = SkewPoly.parse(ctx, args.f).zeros()
    _emit(args, {"result": _point_list(ctx, zs)}, lambda: print(_format_points(ctx, zs)))
    return 0


def _cmd_classof(ctx: FieldCtx, args) -> int:
    cid = class_of(ctx, ctx.parse_element(args.a))
    label = class_label(ctx, cid)
    _emit(args, {"class": cid, "label": label}, lambda: print(label))
    return 0


def _cmd_classelems(ctx: FieldCtx, args) -> int:
    pts = class_elements(ctx, args.ell)
    _emit(args, {"result": _point_list(ctx, pts)}, lambda: print(_format_points(ctx, pts)))
    return 0


def _cmd_unwarp(ctx: FieldCtx, args) -> int:
    alpha = ctx.parse_element(args.alpha)
    ell = args.ell if args.ell is not None else class_of(ctx, alpha)
    if ell is None:
        raise DomainError("zero belongs to no nonzero class")
    if args.method == "both":
        one = ctx.format_element(unwarp_method1(ctx, alpha, ell))
        two = ctx.format_element(unwarp_method2(ctx, alpha, ell))
        _emit(args, {"method1": one, "method2": two},
              lambda: print(f"method1: {one}\nmethod2: {two}"))
        return 0
    fn = unwarp_method1 if args.method == "1" else unwarp_method2
    token = ctx.format_element(fn(ctx, alpha, ell))
    _emit(args, {"result": token}, lambda: print(token))
    return 0


def _cmd_minpoly(ctx: FieldCtx, args) -> int:
    f = minimal_poly(ctx, _parse_points(ctx, args.points))
    _emit(args, {"result": str(f)}, lambda: print(f))
    return 0


def _cmd_closure(ctx: FieldCtx, args) -> int:
    cl = closure(ctx, _parse_points(ctx, args.points))
    _emit(args, {"result": _point_list(ctx, cl)}, lambda: print(_format_points(ctx, cl)))
    return 0


def _cmd_pindep(ctx: FieldCtx, args) -> int:
    verdict = is_p_independent(ctx, _parse_points(ctx, args.points))
    _emit(args, {"result": verdict}, lambda: print("true" if verdict else "false"))
    return 0


def _cmd_pbasis(ctx: FieldCtx, args) -> int:
    basis = p_basis(ctx, _parse_points(ctx, args.points))
    _emit(args, {"result": _point_list(ctx, basis)}, lambda: print(_format_points(ctx, basis)))
    return 0


def _cmd_rank(ctx: FieldCtx, args) -> int:
    r = rank_of(ctx, _parse_points(ctx, args.points))
    _emit(args, {"result": r}, lambda: print(r))
    return 0


def _cmd_flats(ctx: FieldCtx, args) -> int:
    found = list(flats(ctx, class_index=args.ell, max_rank=args.max_rank))
    payload = {"result": [
        {"rank": f.rank, "points": _point_list(ctx, f.points)} for f in found
    ]}

    def human() -> None:
        for f in found:
            print(f"rank {f.rank}: {_format_points(ctx, f.points)}")
        print(f"total: {len(found)}")

    _emit(args, payload, human)
    return 0


def _cmd_repmatrix(ctx: FieldCtx, args) -> int:
    rep = representation(ctx)
    payload = {
        "basis": _point_list(ctx, ctx.basis),
        "modpoly": ctx.modpoly_string(),
        "a": [_point_list(ctx, row) for row in rep.a_rows],
        "script_a": [_point_list(ctx, row) for row in rep.script_rows],
        "labels": _point_list(ctx, rep.column_labels),
    }

    def human() -> None:
        print(f"basis: {', '.join(payload['basis'])}; modpoly: {payload['modpoly']}")
        print("A:")
        for row in payload["a"]:
            print("  " + " ".join(row))
        print("script_A:")
        for row in payload["script_a"]:
            print("  " + " ".join(row))
        print("labels: " + " ".join(payload["labels"]))

    _emit(args, payload, human)
    return 0


def _cmd_dist(ctx: FieldCtx, args) -> int:
    x = matroid_closure(ctx, _parse_points(ctx, args.x))
    y = matroid_closure(ctx, _parse_points(ctx, args.y))
    d = dist(x, y)
    _emit(args, {"result": d}, lambda: print(d))
    return 0


def _cmd_isometry_check(ctx: FieldCtx, args) -> int:
    report = verify_isometry(ctx)
    payload = {
        "subspaces": report.subspace_count,
        "flats": report.flat_count,
        "bijective": report.bijective,
        "isometric": report.isometric,
        "ok": report.ok,
    }

    def human() -> None:
        for key, value in payload.items():
            print(f"{key}: {str(value).lower() if isinstance(value, bool) else value}")

    _emit(args, payload, human)
    return 0 if report.ok else 1


def _cmd_simulate(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = NetSpec.from_json(fh.read())
    report = simulate(spec, trials=args.trials, seed=args.seed, oracle=args.oracle)
    print(json.dumps(report) if args.json else json.dumps(report, indent=2))
    return 0


def _cmd_selftest(args) -> int:
    results = run_all()
    failed = [r for r in results if not r.ok]
    if args.json:
        print(json.dumps({
            "passed": len(results) - len(failed),
            "failed": len(failed),
            "checks": [
                {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
            ],
        }))
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'} {r.name}" + (f" ({r.detail})" if r.detail else ""))
        print(f"passed {len(results) - len(failed)}/{len(results)}")
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "simulate":
            return _cmd_simulate(args)
        if args.verb == "selftest":
            return _cmd_selftest(args)
        if args.field is None:
            parser.error(f"verb {args.verb!r} requires --field")
        ctx = field_from_spec(args.field)
        handler = {
            "fieldinfo": _cmd_fieldinfo,
            "mul": _cmd_poly_binop,
            "divmod": _cmd_poly_binop,
            "grcd": _cmd_poly_binop,
            "llcm": _cmd_poly_binop,
            "eval": _cmd_eval,
            "zeros": _cmd_zeros,
            "classof": _cmd_classof,
            "classelems": _cmd_classelems,
            "unwarp": _cmd_unwarp,
            "minpoly": _cmd_minpoly,
            "closure": _cmd_closure,
            "pindep": _cmd_pindep,
            "pbasis": _cmd_pbasis,
            "rank": _cmd_rank,
            "flats": _cmd_flats,
            "repmatrix": _cmd_repmatrix,
            "dist": _cmd_dist,
            "isometry-check": _cmd_isometry_check,
        }[args.verb]
        return handler(ctx, args)
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
