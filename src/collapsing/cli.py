"""Command-line interface.

Subcommands: verify, bound, table1, construct, gram, oracle, pipeline,
search.  Machine output is JSON (CSV for tables); rationals serialize as
"p/q" strings.  Exit codes: 0 success / condition holds, 1 condition fails
(witness emitted), 2 usage error, 3 internal invariant breach.  A
``KeyError``, ``TypeError`` or ``ValueError`` counts as a usage error only
while an input file or ``--params`` is read; raised anywhere else it is a
bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction

from .bounds import (
    best_bounds,
    ub_hadamard,
    lb_greedy,
    lb_polynomial,
    lb_trivial,
    table1,
    ub_asymptotic,
    ub_balanced,
    ub_euclidean,
    ub_hadamard_best,
    ub_near_euclidean,
    ub_rank_power,
    ub_rank_sharp,
    ub_smalldim,
    ub_volume_coloring,
)
from .constructions import (
    FiniteFieldParams,
    fixture_X,
    fixture_Y,
    greedy_unit_vectors,
    lift_almost_orthogonal,
    linf_cross,
    pk_polytope_norm,
    polynomial_vectors,
)
from .errors import CollapsingError, InvariantError, PreconditionError
from .family import (
    bnb_max_subfamily,
    check_full_collapsing,
    check_k_collapsing,
    check_strong_balancing,
    check_weak_balancing,
    family_from_json,
    family_to_json,
    make_family,
)
from .graphtools import bm_pipeline_check
from .matrixform import (
    gram_from_family,
    matrix_from_json,
    matrix_to_json,
    rank_certificate,
    row_normalize,
)
from .scalars import format_scalar
from .simplexopt import max_pow_general, max_sq_balanced, oracle_grid, vertex_oracle
from .spaces import linf_space, space_to_json

EXIT_OK = 0
EXIT_CONDITION_FAILS = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3

_LOG10_2 = math.log10(2)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_csv(header, rows) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(str(format_scalar(v)) if isinstance(v, Fraction) else str(v) for v in row))


def _load_json(path: str, build):
    """``build`` applied to the JSON in ``path``; malformed input is a usage error."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except CollapsingError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise PreconditionError(f"malformed input {path}: {detail}") from exc


def _parse_value(text: str):
    for conv in (int, Fraction, float):
        try:
            return conv(text)
        except ValueError:
            continue
    return text


def _parse_params(spec: str | None) -> dict:
    out: dict[str, object] = {}
    if not spec:
        return out
    for item in spec.split(","):
        key, sep, value = item.partition("=")
        if not sep:
            raise PreconditionError(f"bad --params item {item!r}; expected key=value")
        out[key.strip()] = _parse_value(value.strip())
    return out


def _param(params: dict, key: str, conv=int, default=None):
    """The ``--params`` value of ``key`` through ``conv``; a missing or
    malformed value is a usage error."""
    if key not in params:
        if default is None:
            raise PreconditionError(f"--params needs {key}=...")
        return default
    try:
        return conv(params[key])
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"bad --params value {key}={params[key]}: {exc}") from exc


def cmd_verify(args) -> int:
    # --threads does nothing (every scan runs in one process); a value below
    # 1 stays a usage error.
    if args.threads < 1:
        raise PreconditionError(f"need threads >= 1, got {args.threads}")
    family = _load_json(args.family, family_from_json)
    if args.condition == "kcollapsing":
        if args.k is None:
            raise PreconditionError("verify --condition kcollapsing needs --k")
        report = check_k_collapsing(family, args.k, budget=args.budget, seed=args.seed)
    elif args.condition == "full":
        report = check_full_collapsing(family)
    elif args.condition == "strong":
        report = check_strong_balancing(family)
    elif args.condition == "weak":
        report = check_weak_balancing(family)
    else:
        raise PreconditionError(f"unknown condition {args.condition!r}")
    _emit(report.to_json())
    return EXIT_OK if report.holds else EXIT_CONDITION_FAILS


def _check_printable(k: int, d: int, values) -> None:
    """Refuse, as a usage error, any (name, int) that ``json.dumps`` cannot
    print: Python turns no int of more than ``sys.get_int_max_str_digits()``
    digits into a string.  The digit count is read off ``bit_length``; only
    a value within one digit of the limit is compared with 10**limit."""
    # Absent before Python 3.10.7, where ints have no digit limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    for name, n in values:
        if n is None:
            continue
        n = abs(n)
        digits = int(n.bit_length() * _LOG10_2) + 1  # the digit count or one more
        if digits > limit + 1 or (digits == limit + 1 and n >= 10**limit):
            raise PreconditionError(
                f"{name} at (k={k}, d={d}) has more than {limit} digits, past Python's "
                f"int_max_str_digits limit; choose a smaller d"
            )


def cmd_bound(args) -> int:
    k, d = args.k, args.d
    if args.p is not None and args.p < 1:
        raise PreconditionError(f"need p >= 1, got {args.p}")
    if args.best or not args.all:
        bb = best_bounds(k, d)
        _check_printable(
            k, d, [("best_lower", bb.best_lower), ("best_upper", bb.best_upper), ("exact", bb.exact)]
        )
        _emit(bb.to_json())
        return EXIT_OK
    results = [
        ub_balanced(k, d),
        ub_rank_power(k, d),
        ub_rank_sharp(k, d),
        ub_smalldim(k, d),
        ub_volume_coloring(k, d),
        ub_hadamard_best(k, d) if args.p is None else ub_hadamard(k, d, args.p),
        lb_trivial(k, d),
        lb_greedy(k, d),
        lb_polynomial(k, d),
        *ub_asymptotic(k, d),
    ]
    if args.dist_sq is not None:
        results.append(ub_near_euclidean(k, dist_sq=args.dist_sq))
    if args.lam_sq is not None:
        results.append(ub_euclidean(k, lam_sq=args.lam_sq))
    _check_printable(k, d, [(r.name, r.value_int) for r in results])
    _emit([r.to_json() for r in results])
    return EXIT_OK


def cmd_table1(args) -> int:
    rows = table1(2, args.kmax)
    if args.format == "csv":
        _emit_csv(
            ["k", "gamma", "rank_power_base", "coloring_base", "greedy_base"],
            [(r.k, r.gamma, r.rank_power_base, r.coloring_base, r.greedy_base) for r in rows],
        )
    else:
        _emit([r.__dict__ for r in rows])
    return EXIT_OK


def _greedy(params: dict):
    return greedy_unit_vectors(
        _param(params, "d"), _param(params, "delta", float), _param(params, "seed"),
        _param(params, "trials", int, 100_000),
    )


def cmd_construct(args) -> int:
    params = _parse_params(args.params)
    kind = args.kind
    payload: dict
    if kind == "cross":
        family = linf_cross(_param(params, "d"))
        payload = family_to_json(family)
    elif kind == "pk":
        space = pk_polytope_norm(_param(params, "d"), _param(params, "k"))
        payload = {"space": space_to_json(space)}
    elif kind == "poly":
        aos = polynomial_vectors(FiniteFieldParams(_param(params, "q"), _param(params, "s")))
        payload = {
            "m": aos.m,
            "dim": aos.dim,
            "bound": format_scalar(aos.bound),
            "scale_sq": format_scalar(aos.scale_sq),
            "coords": [[format_scalar(c) for c in v] for v in aos.coords],
        }
    elif kind == "lift":
        source = _param(params, "source", str, "poly")
        if source == "poly":
            aos = polynomial_vectors(FiniteFieldParams(_param(params, "q"), _param(params, "s")))
        elif source == "greedy":
            aos = _greedy(params)
        else:
            raise PreconditionError(f"unknown lift source {source!r}")
        _, family = lift_almost_orthogonal(aos, _param(params, "k"))
        payload = family_to_json(family)
    elif kind == "greedy":
        aos = _greedy(params)
        payload = {"m": aos.m, "coords": [list(v) for v in aos.coords]}
    elif kind == "fixtureX":
        family = fixture_X(_param(params, "d"), _param(params, "eps", Fraction))
        payload = family_to_json(family)
    elif kind == "fixtureY":
        family = fixture_Y(_param(params, "d"))
        payload = family_to_json(family)
    else:
        raise PreconditionError(f"unknown construction kind {kind!r}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    else:
        _emit(payload)
    return EXIT_OK


def cmd_gram(args) -> int:
    if bool(args.family) == bool(args.matrix):
        raise PreconditionError("provide exactly one of --family or --matrix")
    if args.family:
        matrix = gram_from_family(_load_json(args.family, family_from_json))
    else:
        matrix = _load_json(args.matrix, matrix_from_json)
    if args.normalize:
        matrix = row_normalize(matrix)
    out = matrix_to_json(matrix)
    out["certificate"] = rank_certificate(matrix).to_json()
    _emit(out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.grid:
        rows = oracle_grid(range(4, args.mmax + 1), p_values=tuple(args.p_list))
        _emit_csv(
            ["m", "k", "p", "balanced", "closed_form", "oracle", "exactness"],
            rows,
        )
        return EXIT_OK
    if args.m is None or args.k is None:
        raise PreconditionError("oracle needs --m and --k, or --grid")
    closed = (
        max_sq_balanced(args.m, args.k)
        if args.balanced
        else max_pow_general(args.m, args.k, args.p)
    )
    oracle = vertex_oracle(args.m, args.k, args.p, balanced=args.balanced)
    _emit(
        {
            "m": args.m,
            "k": args.k,
            "p": args.p,
            "balanced": args.balanced,
            "closed_form": format_scalar(closed.value),
            "exactness": closed.exactness,
            "oracle": format_scalar(oracle.value),
            "oracle_vertex": [format_scalar(c) for c in oracle.attaining_vertex],
        }
    )
    return EXIT_OK


def cmd_pipeline(args) -> int:
    family = _load_json(args.family, family_from_json)
    report = bm_pipeline_check(family, args.k)
    _emit(report.to_json())
    ok = (
        report.collapsing_ok
        and report.norms_ok
        and report.degree_ok
        and report.coloring_ok
        and report.inequality_holds
    )
    return EXIT_OK if ok else EXIT_CONDITION_FAILS


def cmd_search(args) -> int:
    d, k = args.d, args.k
    space = linf_space(d)  # rejects d < 1 before the candidates are built
    values = (-1, 0, 1)
    candidates = [
        tuple(v)
        for v in itertools.product(values, repeat=d)
        if any(c != 0 for c in v)
    ]
    family = make_family(space, candidates)
    chosen = bnb_max_subfamily(family, k)
    _emit(
        {
            "d": d,
            "k": k,
            "max_size": len(chosen),
            "witness": [list(family.vectors[i - 1]) for i in chosen],
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsing",
        description="verify collapsing/balancing conditions, evaluate bounds, build families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a condition on a family JSON file")
    p.add_argument("--family", required=True)
    p.add_argument("--condition", default="kcollapsing",
                   choices=["kcollapsing", "full", "strong", "weak"])
    p.add_argument("--k", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=1,
                   help="ignored: the scan runs in one process")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="evaluate bounds at (k, d)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, default=None,
                   help="entrywise-power exponent p >= 1; default sweeps p in [1, 10]")
    p.add_argument("--all", action="store_true")
    p.add_argument("--best", action="store_true")
    p.add_argument("--dist-sq", type=float, default=None,
                   help="squared distance to Euclidean space for the per-space bound")
    p.add_argument("--lam-sq", type=float, default=None,
                   help="squared subset-sum cap for the inner-product bound")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table1", help="the per-k comparison table of bound bases")
    p.add_argument("--kmax", type=int, default=9)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("construct", help="emit a constructed family/space as JSON")
    p.add_argument("--kind", required=True,
                   choices=["cross", "pk", "lift", "greedy", "poly", "fixtureX", "fixtureY"])
    p.add_argument("--params", default="")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "gram", help="pairing matrix and rank certificate of a family or matrix"
    )
    p.add_argument("--family")
    p.add_argument("--matrix")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("oracle", help="closed forms vs the vertex oracle")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--grid", action="store_true")
    p.add_argument("--mmax", type=int, default=10)
    p.add_argument("--p-list", type=int, nargs="+", default=[1])
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("pipeline", help="degree/coloring/volume pipeline on a family")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("search", help="largest k-collapsing set of sign vectors")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (CollapsingError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
