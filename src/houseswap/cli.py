"""Command-line front end.

Exit codes: 0 for a found allocation or a verified core member, 2 for
an empty core or a blocked allocation, 1 for bad input (usage errors,
unreadable files, out of memory, and any ``ValidationError``: a bad file,
``gen`` or ``bench`` value, or ``oracle``'s cap overrun) and for a failed
write to stdout, its final flush included, or a closed stdout.  Every
error is one ``error: <message>`` line on stderr.  A process started
with stderr closed drops these diagnostics and writes nothing in their
place; its exit code still reports the outcome.

Where ``os.fork`` and ``os.sched_getaffinity`` both exist (not on macOS,
which lacks the second and so works serially), ``gen`` and the market
load split their work into one contiguous slice of agent lines per CPU
the process may use.  ``houseswap._forked.Helpers`` runs the work of
each slice after the first in a forked helper, or here if it cannot
fork, and carries back what it yields; a failed helper makes the command
exit 1 with one error line, and none outlives it.  ``gen`` writes
nothing until every slice's text has arrived, so its output is
byte-identical on any CPU count.  ``solve``, ``verify`` and ``oracle``
load their market file that way: this process checks the ``houses:``
line and the first slice while each helper checks its own slice and
yields its rows as house ids.  On any fault, in a slice or across two,
the file is read again serially with ``load_market``, so every error
line is the same on any CPU count.

``run`` is the process entry: once its command has finished it ends the
process without interpreter teardown.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time

from .fileformat import (
    load_market,
    parse_allocation_text,
    read_text,
    serialize_allocation,
    serialize_market,
)
from .gen import GenParams, random_market
from .htts import (
    OpCounter,
    blocking_coalition,
    format_trace,
    htts_solve,
    solve_with_tiebreak,
)
from .market import Market, ValidationError


def _eprint(line: str) -> None:
    """Print ``line`` on stderr, or nothing when the process started with
    file descriptor 2 closed: ``print`` would send it to stdout."""
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def _read_market(path: str) -> Market:
    text = read_text(path)
    cpus = _usable_cpus()
    if cpus == 1:
        return load_market(text)
    from ._forked import load_in_slices  # loaded only where it slices
    return load_in_slices(text, cpus)


def cmd_solve(args: argparse.Namespace) -> int:
    market = _read_market(args.market)
    if args.tiebreak_seed is None:
        outcome = htts_solve(market)
    else:
        outcome = solve_with_tiebreak(market, args.tiebreak_seed)
    if outcome.core_found:
        sys.stdout.write(serialize_allocation(market, outcome.allocation))
    else:
        _eprint(f"EMPTY CORE at step {outcome.failed_step}")
    if args.trace and outcome.trace:
        _eprint(format_trace(market, outcome.trace))
    if args.stats:
        c = OpCounter.of(market, outcome)
        feas = c.feasibility_comparisons
        _eprint(f"arcs={c.arcs_built} scc={c.scc_work} feas={feas}")
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
    from .oracle import enumerate_strict_core  # no other command loads it
    market = _read_market(args.market)
    core = enumerate_strict_core(market)
    if core:
        sys.stdout.write(serialize_allocation(market, core[0]))
        return 0
    _eprint("EMPTY CORE")
    return 2


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``os.sched_getaffinity``
    or ``os.fork`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _slice_text(market: Market, lo: int, hi: int) -> str:
    """The ``houses:`` line and the lines of agents ``lo`` to ``hi - 1``."""
    return serialize_market(Market(
        market.house_names,
        market.agent_names[lo:hi],
        market.endowments[lo:hi],
        market.prefs[lo:hi],
    ))


def _agent_lines(market: Market, lo: int, hi: int):
    """Yield the lines of agents ``lo`` to ``hi - 1`` once: gen's work."""
    yield _slice_text(market, lo, hi).partition("\n")[2]


def cmd_gen(args: argparse.Namespace) -> int:
    market = random_market(GenParams(args.agents, args.houses, args.seed))
    # Agent lines are independent: one contiguous slice per usable CPU,
    # each after slice 0 formatted in a forked helper.
    n = market.agent_count
    slices = min(_usable_cpus(), n)
    bounds = [n * k // slices for k in range(slices + 1)]
    from ._forked import Helpers  # on one CPU too, unlike the load
    with Helpers() as helpers:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            helpers.fork(_agent_lines, market, lo, hi)
        parts = [_slice_text(market, 0, bounds[1]), *helpers.results("gen")]
    # Every slice arrived whole, so stdout gets all of them or nothing.
    for part in parts:
        sys.stdout.write(part)
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
        sizes = [int(tok) for tok in args.sizes.split(",")]
    except ValueError:
        sizes = []
    # A repeated size would print a second row and a second slope point.
    distinct = len(set(sizes)) == len(sizes)
    if not (sizes and distinct and all(1 <= s <= sys.maxsize for s in sizes)):
        raise ValidationError(f"invalid size list {args.sizes!r}")
    if not (args.ratio >= 1 and math.isfinite(args.ratio * max(sizes))):
        raise ValidationError(f"invalid ratio {args.ratio}")
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

    def error(self, message: str) -> None:  # never returns
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
        if sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError(errno.EBADF, "stdout is closed")
        code = args.func(args)
        # A buffered stdout fails here, if at all, with its last write.
        sys.stdout.flush()
        return code
    except (ValidationError, OSError) as exc:
        _eprint(f"error: {exc}")
        return 1
    except MemoryError:
        _eprint("error: out of memory")
        return 1


def run() -> None:  # never returns
    """Run ``main`` on the process's arguments and exit with its code.

    Interpreter teardown is skipped: freeing a large market object by
    object costs more than a small solve, and the OS reclaims the memory
    anyway.  That is safe because nothing is left to finish: no
    ``atexit`` handler is registered, every file is closed by its
    ``with``, every forked helper is reaped before its ``with`` block
    ends, and ``main`` has flushed stdout.  Usage errors and ``--help``
    still leave through argparse's ``SystemExit``, with nothing large to
    free.
    """
    code = main()
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
