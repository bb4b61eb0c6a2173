"""Command line front end.

One executable, verb-style subcommands.  The payload is the output: each
verb's handler returns a dict, and `main`, the one print site, prints it as
single-line JSON with --json (fixed key order, safe to golden-file) or else as
the verb's text form, by default the one `_text` derives from it (classof,
flats, repmatrix, simulate and selftest register their own).  Exit codes: 0
success, 1 domain error (its class name on stderr) or a payload whose "ok" is
false or whose "failed" count is nonzero, 2 usage error.

Each handler imports the modules it calls, so a cold call loads only what
its verb reads: fieldinfo, classof, classelems and unwarp load no module
beyond the field and its conjugacy classes.
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys
from typing import Sequence

from .conjugacy import class_elements, class_label, class_of, unwarp_method1, unwarp_method2
from .errors import DomainError, SpecInvalid
from .field import Fe, FieldCtx, field_from_spec


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
    parser.set_defaults(text=_text, needs_field=True)
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    sp = sub.add_parser("fieldinfo", help="describe the field context")
    sp.set_defaults(handler=_cmd_fieldinfo)

    for verb, help_text in (
        ("mul", "skew product of two polynomials"),
        ("divmod", "right quotient and remainder"),
        ("grcd", "greatest common right divisor"),
        ("llcm", "least left common multiple"),
    ):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("f", help="polynomial, e.g. 'g2*x^2 + x + 1'")
        sp.add_argument("g", help="polynomial")
        sp.set_defaults(handler=_cmd_poly_binop)

    sp = sub.add_parser("eval", help="evaluate a polynomial at an element")
    sp.add_argument("f", help="polynomial")
    sp.add_argument("a", help="element token (0, 1, or g<i>)")
    sp.set_defaults(handler=_cmd_eval)

    sp = sub.add_parser("zeros", help="zero set of a polynomial")
    sp.add_argument("f", help="polynomial")
    sp.set_defaults(handler=_cmd_zeros)

    sp = sub.add_parser("classof", help="conjugacy class of an element")
    sp.add_argument("a", help="element token")
    sp.set_defaults(handler=_cmd_classof, text=operator.itemgetter("label"))

    sp = sub.add_parser("classelems", help="list a conjugacy class")
    sp.add_argument("ell", type=int, help="class index (0 for the class of 1)")
    sp.set_defaults(handler=_cmd_classelems)

    sp = sub.add_parser("unwarp", help="invert the warping map inside a class")
    sp.add_argument("alpha", help="element token")
    sp.add_argument("--class", dest="ell", type=int, default=None,
                    help="class index (default: the element's own class)")
    sp.add_argument("--method", choices=("1", "2", "both"), default="1",
                    help="kernel method, exponent method, or both")
    sp.set_defaults(handler=_cmd_unwarp)

    for verb, help_text in (
        ("minpoly", "minimal skew polynomial of a point set"),
        ("closure", "closure of a point set"),
        ("pindep", "is the point set P-independent?"),
        ("pbasis", "greedy P-basis of a point set"),
        ("rank", "matroid rank of a point set"),
    ):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("points", help="comma-separated element tokens, e.g. '1,g3'")
        sp.set_defaults(handler=_cmd_points)

    sp = sub.add_parser("flats", help="enumerate flats (small fields only)")
    sp.add_argument("--class", dest="ell", type=int, default=None,
                    help="restrict to one class's submatroid")
    sp.add_argument("--max-rank", type=int, default=None)
    sp.set_defaults(handler=_cmd_flats, text=_flats_text)

    sp = sub.add_parser("repmatrix", help="representation matrices over the base field")
    sp.set_defaults(handler=_cmd_repmatrix, text=_repmatrix_text)

    sp = sub.add_parser("dist", help="flat-metric distance between two point sets")
    sp.add_argument("x", help="comma-separated element tokens")
    sp.add_argument("y", help="comma-separated element tokens")
    sp.set_defaults(handler=_cmd_dist)

    sp = sub.add_parser("isometry-check",
                        help="verify the subspace-to-flat correspondence is a bijective isometry")
    sp.set_defaults(handler=_cmd_isometry_check)

    sp = sub.add_parser("simulate", help="run the network simulator on a JSON spec")
    sp.add_argument("--spec", required=True, metavar="FILE", help="NetSpec JSON file")
    sp.add_argument("--oracle", choices=("rlnc",), default=None,
                    help="mirror every trial on the vector simulator and compare")
    sp.add_argument("--trials", type=int, default=None, help="override the spec's trial count")
    sp.set_defaults(handler=_cmd_simulate, text=functools.partial(_json, indent=2),
                    needs_field=False)

    sp = sub.add_parser("selftest", help="run the built-in golden checks")
    sp.set_defaults(handler=_cmd_selftest, text=_selftest_text, needs_field=False)
    return parser


def _parse_points(ctx: FieldCtx, text: str) -> tuple[Fe, ...]:
    return tuple(ctx.parse_element(tok.strip()) for tok in text.split(",") if tok.strip())


def _point_list(ctx: FieldCtx, points: Sequence[Fe]) -> list[str]:
    return [ctx.format_element(a) for a in points]


def _json(payload: dict, **kwargs) -> str:
    import json

    return json.dumps(payload, **kwargs)


def _text(payload: dict) -> str:
    """A lone "result" prints as its value, any other payload as "key: value" lines."""
    if list(payload) == ["result"]:
        return _text_value(payload["result"])
    return "\n".join(f"{key}: {_text_value(value)}" for key, value in payload.items())


def _text_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ", ".join(value) if value else "(empty)"
    return str(value)


def _cmd_fieldinfo(ctx: FieldCtx, args) -> dict:
    return {
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


def _cmd_poly_binop(ctx: FieldCtx, args) -> dict:
    from .skewpoly import SkewPoly, grcd, llcm

    f = SkewPoly.parse(ctx, args.f)
    g = SkewPoly.parse(ctx, args.g)
    if args.verb == "divmod":
        quo, rem = f.right_divmod(g)
        return {"quotient": str(quo), "remainder": str(rem)}
    op = {"mul": operator.mul, "grcd": grcd, "llcm": llcm}[args.verb]
    return {"result": str(op(f, g))}


def _cmd_eval(ctx: FieldCtx, args) -> dict:
    from .skewpoly import SkewPoly

    value = SkewPoly.parse(ctx, args.f).evaluate(ctx.parse_element(args.a))
    return {"result": ctx.format_element(value)}


def _cmd_zeros(ctx: FieldCtx, args) -> dict:
    from .skewpoly import SkewPoly

    return {"result": _point_list(ctx, SkewPoly.parse(ctx, args.f).zeros())}


def _cmd_classof(ctx: FieldCtx, args) -> dict:
    cid = class_of(ctx, ctx.parse_element(args.a))
    return {"class": cid, "label": class_label(ctx, cid)}


def _cmd_classelems(ctx: FieldCtx, args) -> dict:
    return {"result": _point_list(ctx, class_elements(ctx, args.ell))}


def _cmd_unwarp(ctx: FieldCtx, args) -> dict:
    alpha = ctx.parse_element(args.alpha)
    ell = args.ell if args.ell is not None else class_of(ctx, alpha)
    if ell is None:
        raise DomainError("zero belongs to no nonzero class")
    if args.method == "both":
        return {
            "method1": ctx.format_element(unwarp_method1(ctx, alpha, ell)),
            "method2": ctx.format_element(unwarp_method2(ctx, alpha, ell)),
        }
    fn = unwarp_method1 if args.method == "1" else unwarp_method2
    return {"result": ctx.format_element(fn(ctx, alpha, ell))}


def _cmd_points(ctx: FieldCtx, args) -> dict:
    from .minimal import closure, is_p_independent, minimal_poly, p_basis, rank_of

    fn = {"minpoly": minimal_poly, "closure": closure, "pindep": is_p_independent,
          "pbasis": p_basis, "rank": rank_of}[args.verb]
    result = fn(ctx, _parse_points(ctx, args.points))
    if isinstance(result, tuple):  # closure and pbasis return point sets
        result = _point_list(ctx, result)
    elif args.verb == "minpoly":
        result = str(result)
    return {"result": result}


def _cmd_flats(ctx: FieldCtx, args) -> dict:
    from .matroid import flats

    found = flats(ctx, class_index=args.ell, max_rank=args.max_rank)
    return {"result": [{"rank": f.rank, "points": _point_list(ctx, f.points)} for f in found]}


def _flats_text(payload: dict) -> str:
    lines = [f"rank {f['rank']}: {_text_value(f['points'])}" for f in payload["result"]]
    return "\n".join(lines + [f"total: {len(lines)}"])


def _cmd_repmatrix(ctx: FieldCtx, args) -> dict:
    from .matroid import representation

    rep = representation(ctx)
    return {
        "basis": _point_list(ctx, ctx.basis),
        "modpoly": ctx.modpoly_string(),
        "a": [_point_list(ctx, row) for row in rep.a_rows],
        "script_a": [_point_list(ctx, row) for row in rep.script_rows],
        "labels": _point_list(ctx, rep.column_labels),
    }


def _repmatrix_text(payload: dict) -> str:
    lines = [f"basis: {', '.join(payload['basis'])}; modpoly: {payload['modpoly']}", "A:"]
    lines += ["  " + " ".join(row) for row in payload["a"]]
    lines.append("script_A:")
    lines += ["  " + " ".join(row) for row in payload["script_a"]]
    lines.append("labels: " + " ".join(payload["labels"]))
    return "\n".join(lines)


def _cmd_dist(ctx: FieldCtx, args) -> dict:
    from .matroid import dist, matroid_closure

    x = matroid_closure(ctx, _parse_points(ctx, args.x))
    y = matroid_closure(ctx, _parse_points(ctx, args.y))
    return {"result": dist(x, y)}


def _cmd_isometry_check(ctx: FieldCtx, args) -> dict:
    from .matroid import verify_isometry

    return verify_isometry(ctx)


def _cmd_simulate(ctx: None, args) -> dict:
    from .netsim import NetSpec, simulate

    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SpecInvalid(f"not UTF-8: {exc}") from None
    spec = NetSpec.from_json(text)
    return simulate(spec, trials=args.trials, seed=args.seed, oracle=args.oracle)


def _cmd_selftest(ctx: None, args) -> dict:
    from .selftest import run_all

    return run_all()


def _selftest_text(payload: dict) -> str:
    lines = []
    for c in payload["checks"]:
        detail = f" ({c['detail']})" if c["detail"] else ""
        lines.append(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}{detail}")
    lines.append(f"passed {payload['passed']}/{len(payload['checks'])}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.needs_field and args.field is None:
        parser.error(f"verb {args.verb!r} requires --field")
    try:
        ctx = field_from_spec(args.field) if args.needs_field else None
        payload = args.handler(ctx, args)
        print(_json(payload) if args.json else args.text(payload))
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if payload.get("ok", True) and not payload.get("failed") else 1

