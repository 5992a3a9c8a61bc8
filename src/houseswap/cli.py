"""Command-line front end.

Exit codes: 0 for a found allocation or a verified core member, 2 for
an empty core or a blocked allocation, 1 for bad input (usage errors,
unreadable files, parse or validation errors, ``oracle``'s cap
overruns, out of memory).  Every error is one ``error: <message>``
line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import NoReturn

from .fileformat import (
    ParseError,
    load_market,
    parse_allocation_text,
    read_text,
    serialize_allocation,
    serialize_market,
)
from .gen import GenParams, InvalidParams, random_market
from .htts import (
    OpCounter,
    blocking_coalition,
    format_trace,
    htts_solve,
    solve_with_tiebreak,
)
from .market import Market, ValidationError
from .oracle import CapExceeded, enumerate_strict_core


def _read_market(path: str) -> Market:
    return load_market(read_text(path))


def cmd_solve(args: argparse.Namespace) -> int:
    market = _read_market(args.market)
    if args.tiebreak_seed is None:
        outcome = htts_solve(market)
    else:
        outcome = solve_with_tiebreak(market, args.tiebreak_seed)
    if outcome.core_found:
        sys.stdout.write(serialize_allocation(market, outcome.allocation))
    else:
        print(f"EMPTY CORE at step {outcome.failed_step}", file=sys.stderr)
    if args.trace and outcome.trace:
        print(format_trace(market, outcome.trace), file=sys.stderr)
    if args.stats:
        c = OpCounter.of(market, outcome)
        feas = c.feasibility_comparisons
        print(f"arcs={c.arcs_built} scc={c.scc_work} feas={feas}", file=sys.stderr)
    return 0 if outcome.core_found else 2


def cmd_verify(args: argparse.Namespace) -> int:
    market = _read_market(args.market)
    allocation = parse_allocation_text(read_text(args.allocation), market)
    if not market.feasible_allocation(allocation.assignment):
        raise ValidationError("allocation does not match the endowment counts")
    # The solve's trace names a coalition blocking any feasible
    # allocation other than the core, at any size.
    certificate = blocking_coalition(market, htts_solve(market), allocation)
    if certificate is None:
        return 0
    names = ",".join(market.agent_name(i) for i in certificate.coalition)
    print(f"BLOCKED by {{{names}}}")
    for i in certificate.coalition:
        house = certificate.sub_allocation[i]
        print(f"  {market.agent_name(i)} -> {market.house_name(house)}")
    return 2


def cmd_oracle(args: argparse.Namespace) -> int:
    market = _read_market(args.market)
    core = enumerate_strict_core(market)
    if core:
        sys.stdout.write(serialize_allocation(market, core[0]))
        return 0
    print("EMPTY CORE", file=sys.stderr)
    return 2


def cmd_gen(args: argparse.Namespace) -> int:
    params = GenParams(args.agents, args.houses, args.seed)
    sys.stdout.write(serialize_market(random_market(params)))
    return 0


def _fit_slope(points: list[tuple[int, int]]) -> float | None:
    """Least-squares slope of log(total) against log(size)."""
    if len(points) < 2:
        return None
    xs = [math.log(h) for h, _ in points]
    ys = [math.log(max(t, 1)) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        sizes = []
    if not sizes or any(not 1 <= s <= sys.maxsize for s in sizes):
        raise InvalidParams(f"invalid size list {args.sizes!r}")
    if not (args.ratio >= 1 and math.isfinite(args.ratio * max(sizes))):
        raise InvalidParams(f"invalid ratio {args.ratio}")
    # Check every size's parameters before any market is built.
    size_params = [
        GenParams(round(args.ratio * houses), houses, args.seed)
        for houses in sizes
    ]

    # The table is printed whole, so a failed size leaves stdout empty.
    rows = ["H I wall_ns arcs scc feas"]
    totals: dict[int, int] = {}
    for params in size_params:
        houses, agents = params.house_count, params.agent_count
        market = random_market(params)
        start = time.perf_counter_ns()
        outcome = htts_solve(market)
        wall = time.perf_counter_ns() - start
        counter = OpCounter.of(market, outcome)
        rows.append(
            f"{houses} {agents} {wall} {counter.arcs_built} "
            f"{counter.scc_work} {counter.feasibility_comparisons}"
        )
        totals[houses] = counter.total()

    slope = _fit_slope(sorted(totals.items()))
    rows.append("slope=n/a" if slope is None else f"slope={slope:.3f}")
    print("\n".join(rows))
    return 0


def _seed(text: str) -> int:
    """A splitmix64 seed: an integer in [0, 2**64), which the stream
    uses unreduced."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2**64), got {text!r}"
        )
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one ``error:`` line, like any other bad
    input; argparse's own exit 2 would read as an empty core.  Subparsers
    are built from the same class, so they inherit this."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="houseswap",
        description=(
            "Decide whether a house-swapping market with duplicate house "
            "types has a strict-core allocation, and compute it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a market file")
    p.add_argument("market")
    p.add_argument("--trace", action="store_true", help="print segment lines")
    p.add_argument(
        "--tiebreak-seed", type=_seed, default=None, metavar="N",
        help="choose each step's root type with a splitmix64 stream seeded "
        "with N in [0, 2**64) instead of the smallest live type",
    )
    p.add_argument("--stats", action="store_true", help="print operation counts")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check an allocation for strict-core membership")
    p.add_argument("market")
    p.add_argument("allocation")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force the strict core (small markets)")
    p.add_argument("market")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a random market file")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--houses", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="operation-count scaling table")
    p.add_argument("--sizes", required=True, help="comma-separated house counts")
    p.add_argument(
        "--ratio", type=float, default=2.0, help="agents per house type, at least 1"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError, ValidationError, InvalidParams, CapExceeded, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
