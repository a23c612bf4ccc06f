"""Command-line interface for the clique-polynomial toolkit.

Every numeric answer is printed from exact rationals; ``--format`` switches
between human text, JSON, and CSV.  Exit status is 0 iff no census of
``pcpoly survey`` reported a violation, and 2 on a user error (a malformed
graph, a size out of range, an input beyond a work bound), which prints one
``pcpoly: error:`` line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

# parsing, _describe and _emit need only these; each verb imports its own
# module when it runs, so start-up and --help load no verb module
from .exactpoly import DEFAULT_WIDTH, QuadSurd, RootEnclosure
from .graphs import parse_graph, to_edge_list, to_graph6


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        import json  # only here: text output loads no json module

        print(json.dumps(payload, default=str, sort_keys=True))
    elif fmt == "csv":
        import csv  # only here: start-up loads no csv module

        keys = sorted(payload)
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(keys)
        out.writerow([str(payload[k]) for k in keys])  # a list or dict stays one quoted field
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _describe(value):
    if isinstance(value, RootEnclosure):
        return {
            "lo": str(value.lo),
            "hi": str(value.hi),
            "multiplicity": value.multiplicity,
            "approx": float(value.midpoint),
        }
    if isinstance(value, QuadSurd):
        if value.is_rational():
            return {"exact": str(value.as_fraction()), "approx": float(value)}
        return {"closed_form": f"({value.a} + {value.sgn}*sqrt({value.b}))/{value.c}",
                "approx": float(value)}
    if isinstance(value, Fraction):
        return {"exact": str(value), "approx": float(value)}
    return str(value)


class _CensusNames:
    """The names of ``survey.CENSUSES``, read only when argparse checks or lists one."""

    def __iter__(self):
        from .survey import CENSUSES

        return iter(CENSUSES)


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--width", type=_fraction, default=argparse.SUPPRESS,
                        help="enclosure width for root computations")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(prog="pcpoly", description=__doc__,
                                     parents=[common])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda
                                **kw: argparse.ArgumentParser(parents=[common], **kw))

    def add_graph_arg(p):
        p.add_argument("graph")
        p.add_argument("--fmt", choices=("named", "graph6", "edge-list"), default="named")

    p = sub.add_parser("poly", help="clique-type polynomial of a graph")
    add_graph_arg(p)
    p.add_argument("--kind", choices=("pc", "dependence", "clique", "independence"),
                   default="pc")

    p = sub.add_parser("beta", help="growth-rate enclosure")
    add_graph_arg(p)

    p = sub.add_parser("profile", help="clique counts by size")
    add_graph_arg(p)

    p = sub.add_parser("monoid", help="normal-form counts and Lie dimensions")
    add_graph_arg(p)
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--lie", type=int, default=0, help="also print this many Lie dims")

    p = sub.add_parser("transform", help="Kelmans step or threshold reduction")
    add_graph_arg(p)
    p.add_argument("--kelmans", nargs=2, type=int, metavar=("U", "V"))
    p.add_argument("--reduce", action="store_true")

    p = sub.add_parser("extremal", help="extremal graphs over G(n,k)")
    p.add_argument("kind", choices=("max", "min"))
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("planar", help="planar extremes for (n,k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("nordhaus-gaddum", help="beta(G)+beta(co-G) and product")
    add_graph_arg(p)

    p = sub.add_parser("random", help="random-graph polynomial quantities")
    p.add_argument("what", choices=("pc", "beta", "ladder", "beta0", "series"))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--p", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--t", type=int, default=40)

    p = sub.add_parser("lll", help="local-lemma threshold or feasibility check")
    add_graph_arg(p)
    p.add_argument("--probs", nargs="*", type=_fraction,
                   help="per-event probabilities; omit for the threshold")

    p = sub.add_parser("matching", help="matching polynomial and largest root")
    add_graph_arg(p)

    p = sub.add_parser("adjoint", help="adjoint polynomial")
    add_graph_arg(p)

    p = sub.add_parser("survey", help="exhaustive censuses")
    # the metavar keeps argparse from listing the choices, and so loading survey, at build time
    p.add_argument("what", choices=_CensusNames(), metavar="what", help="one of %(choices)s")
    p.add_argument("n", type=int)

    p = sub.add_parser("spectral", help="adjacency spectral radius")
    add_graph_arg(p)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # global flags may appear before or after the verb; fill the fallbacks here
    # (parser-level set_defaults would mutate the shared parent actions)
    if not hasattr(args, "width"):
        args.width = DEFAULT_WIDTH
    if not hasattr(args, "format"):
        args.format = "text"
    try:
        return _run(args)
    except ValueError as exc:  # GraphError included: input and range checks
        print(f"pcpoly: error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    g = parse_graph(args.graph, args.fmt) if "graph" in args else None
    code = 0
    if args.command == "poly":
        from .cliquepoly import clique_type_polynomial

        poly = clique_type_polynomial(g, args.kind)
        payload = {"kind": args.kind, "coefficients_ascending": list(poly)}
    elif args.command == "beta":
        from .cliquepoly import beta

        payload = _describe(beta(g, args.width))
    elif args.command == "profile":
        from .cliquepoly import clique_profile, independence_at_minus_one

        prof = clique_profile(g)
        payload = {"counts": list(prof.counts), "clique_number": prof.clique_number}
        if g.n <= 20:
            value, phi = independence_at_minus_one(g)
            payload["independence_at_minus_one"] = value
            payload["decycling_number"] = phi
    elif args.command == "monoid":
        from .monoid import lie_dimensions, m_sequence

        counts = m_sequence(g, args.length)
        payload = {"recurrence": counts, "count_at_length": counts[-1]}
        if args.lie:
            payload["lie_dims"] = list(lie_dimensions(g, args.lie).dims)
    elif args.command == "transform":
        from .transforms import kelmans, reduce_to_threshold, steps_to_json

        if args.kelmans:
            out = kelmans(g, *args.kelmans)
            payload = {"graph6": to_graph6(out), "edge_list": to_edge_list(out)}
        elif args.reduce:
            vec, steps = reduce_to_threshold(g)
            payload = {"threshold_vector": str(vec), "steps": steps_to_json(steps)}
        else:
            raise ValueError("transform needs --kelmans or --reduce")
    elif args.command == "extremal":
        from .extremal import max_beta_graph, min_beta_graph

        fn = max_beta_graph if args.kind == "max" else min_beta_graph
        res = fn(args.n, args.k)
        payload = {
            "graph6": to_graph6(res.graph),
            "beta": _describe(res.predicted_beta),
        }
        if res.conditional:
            payload["conditional"] = res.conditional
    elif args.command == "planar":
        from .extremal import planar_extremes

        res = planar_extremes(args.n, args.k)
        payload = {
            "lambda_minus": _describe(res.lambda_minus),
            "lambda_plus": _describe(res.lambda_plus),
            "g_minus": to_graph6(res.g_minus),
            "g_plus": to_graph6(res.g_plus),
        }
    elif args.command == "nordhaus-gaddum":
        from .extremal import nordhaus_gaddum

        s, pr = nordhaus_gaddum(g, args.width)
        payload = {
            "sum_lo": str(s.lo), "sum_hi": str(s.hi),
            "product_lo": str(pr.lo), "product_hi": str(pr.hi),
        }
    elif args.command == "random":
        from .randomgraph import (
            beta0_constant,
            beta_random,
            beta_series,
            ladder_limit_roots,
            pc_random,
        )

        if args.what == "pc":
            rpc = pc_random(args.n, args.p)
            payload = {"coefficients_ascending": [str(c) for c in rpc.poly]}
        elif args.what == "beta":
            enc, closed = beta_random(args.n, args.p, args.width)
            payload = _describe(enc)
            if closed is not None:
                payload["closed_form_lo"] = str(closed.lo)
                payload["closed_form_hi"] = str(closed.hi)
        elif args.what == "ladder":
            payload = _describe(ladder_limit_roots(args.r, args.p, args.t, args.width))
        elif args.what == "beta0":
            payload = _describe(beta0_constant(max(args.width, Fraction(1, 10**30))))
        else:
            series = beta_series(args.r)
            payload = {"r": series.r, "coefficients": [str(c) for c in series.coeffs]}
    elif args.command == "lll":
        from .weighted import lll_check, lll_threshold

        if args.probs:
            res = lll_check(g, args.probs)
            if res.feasible:
                payload = {"feasible": True, "bound": str(res.bound)}
            else:
                payload = {"feasible": False, "witness_lo": str(res.witness_lo),
                           "witness_hi": str(res.witness_hi)}
        else:
            enc = lll_threshold(g, args.width)
            payload = {"threshold_lo": str(enc.lo), "threshold_hi": str(enc.hi)}
    elif args.command == "matching":
        from .matching import _matching_and_t

        pair, t = _matching_and_t(g, args.width)
        payload = {
            "mu_ascending": list(pair.mu),
            "generating": list(pair.generating),
        }
        if t is not None:
            payload["t_largest"] = _describe(t)
    elif args.command == "adjoint":
        from .matching import adjoint_polynomial

        payload = {"adjoint_ascending": list(adjoint_polynomial(g))}
    elif args.command == "spectral":
        from .cliquepoly import spectral_radius

        payload = _describe(spectral_radius(g, args.width))
    else:  # survey
        from .survey import CENSUSES, run

        res = run(args.what, args.n, args.width)
        payload = CENSUSES[args.what].show(res)
        code = 1 if res.violations else 0
    if isinstance(payload, str):  # the per-graph dump is CSV text in every format
        print(payload, end="")
    else:
        _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
