"""Command-line interface.

Exit codes: 0 yes/success, 1 no, 2 error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import portfolio, reductions
from .core import (
    compute_params,
    format_election,
    format_instance,
    FormatError,
    Instance,
    parse_instance,
    score,
)
from .oracle import BudgetExceededError
from .portfolio import AllSolversExceededError

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3

# each entry checks the route's rule and degree gate before it runs
ALGOS = {solver.algo: solver for solver in portfolio.SOLVERS}

# each reduce --from source's converter, as (n, edges, kappa, ell) -> Instance
REDUCTIONS = {
    "vc": lambda n, edges, kappa, ell: reductions.vc_to_mav(n, edges, kappa),
    "ids": lambda n, edges, kappa, ell: reductions.ids_to_ccav(n, edges, kappa),
    "mvs": reductions.mvs_to_pav,
    "pvc": reductions.pvc_to_ccav,
}


def _read_instance(path):
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _write(text, path):
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def cmd_solve(args):
    instance = _read_instance(args.file)
    res = ALGOS[args.algo](instance)
    print(f"decision: {'yes' if res.decision else 'no'}")
    if res.opt_score is not None:
        print(f"optScore: {res.opt_score}")
    print(f"algorithm: {res.algorithm}")
    if args.witness and res.witness is not None:
        print("witness: " + ",".join(str(c) for c in res.witness))
    return EXIT_YES if res.decision else EXIT_NO


def cmd_score(args):
    instance = _read_instance(args.file)
    committee = [int(x) for x in args.committee.split(",")] if args.committee else []
    m = instance.election.m
    for i, c in enumerate(committee):
        if not 0 <= c < m:
            raise ValueError(f"committee candidate {c} not in [0, {m})")
        if c in committee[:i]:
            raise ValueError(f"committee repeats candidate {c}")
    s = score(instance.election, instance.rule, committee)
    print(f"{s.numerator}/{s.denominator}" if s.denominator != 1 else str(s.numerator))
    return EXIT_YES


def cmd_params(args):
    instance = _read_instance(args.file)
    p = compute_params(instance)
    for name in ("m", "n", "k", "kbar", "delta_v", "delta_c", "tw_upper", "alpha"):
        print(f"{name}: {getattr(p, name)}")
    return EXIT_YES


def cmd_gen(args):
    config = portfolio.GeneratorConfig(
        m=args.m, n=args.n, max_dv=args.max_dv, max_dc=args.max_dc
    )
    election = portfolio.generate(config, args.seed)
    text = format_election(election)
    if args.rule is not None:
        d = Fraction(args.d) if args.d is not None else Fraction(0)
        text = format_instance(
            Instance(election=election, rule=args.rule, k=args.k, d=d)
        )
    return _write(text, args.out)


def cmd_reduce(args):
    with open(args.graphfile, encoding="utf-8") as fh:
        n, edges = reductions.parse_graph(fh.read())
    instance = REDUCTIONS[args.source](n, edges, args.kappa, args.ell)
    return _write(format_instance(instance), args.out)


def cmd_verify(args):
    ok, report = portfolio.verify(args.dir, budget=args.budget)
    for row in report:
        print("\t".join(f"{key}={value}" for key, value in row.items()))
    print(f"entries: {len(report)}, ok: {ok}")
    return EXIT_YES if ok else EXIT_NO


def cmd_bench(args):
    return _write(portfolio.bench(args.dir), args.csv)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="approvalwd",
        description="Exact winner determination for MAV, CCAV, and PAV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance file")
    p.add_argument("file")
    p.add_argument("--algo", choices=sorted(ALGOS), default="auto")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("score", help="score a committee on an instance file")
    p.add_argument("file")
    p.add_argument("--committee", default="")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("params", help="print derived parameters")
    p.add_argument("file")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("gen", help="generate a random election or instance")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-dv", type=int, default=None)
    p.add_argument("--max-dc", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rule", choices=("mav", "ccav", "pav"), default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--d", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="convert a graph problem to an instance")
    p.add_argument("graphfile")
    p.add_argument("--from", dest="source", choices=tuple(REDUCTIONS), required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="cross-check a corpus against the oracle")
    p.add_argument("dir")
    p.add_argument("--budget", type=int, default=22)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="benchmark dispatch over a corpus")
    p.add_argument("dir")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, AllSolversExceededError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - exit 1 means "no", never a crash
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
