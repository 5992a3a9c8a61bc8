"""Exponential-time ground truth for small markets.

These routines decide strict-core membership by definition: enumerate
every feasible allocation, and for each one search every coalition for a
sub-allocation that redistributes the coalition's own endowment so that
all members are weakly better off and at least one strictly.  They exist
to cross-check the polynomial solver, so they share no code with it.
The CLI's ``oracle`` command runs them; ``verify`` does not, since it
reads its blocking coalitions from a solve (``htts.blocking_coalition``).

Everything is capped at a fixed 8 agents (``DEFAULT_CAP``); beyond that
the search space is unreasonable and callers get ``CapExceeded``.  Only
``ttc_solve`` takes a ``cap``, so the benchmark can run it at scale.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence

from .market import AgentId, Allocation, BlockingCertificate, HouseId, Market

DEFAULT_CAP = 8


class CapExceeded(ValueError):
    """Market is too large for exhaustive enumeration."""


def _check_cap(market: Market, cap: int) -> None:
    if market.agent_count > cap:
        raise CapExceeded(
            f"{market.agent_count} agents exceeds enumeration cap {cap}"
        )


def _rank_tables(market: Market) -> list[list[int]]:
    tables = []
    for i in range(market.agent_count):
        rank = [0] * market.house_count
        for r, h in enumerate(market.prefs[i]):
            rank[h] = r
        tables.append(rank)
    return tables


@lru_cache(maxsize=16)
def _coalition_masks(n: int) -> tuple[int, ...]:
    # Ascending size first so cheap certificates are found early.
    return tuple(sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m)))


class _BlockSearch:
    """Per-market state for repeated blocking-coalition searches."""

    def __init__(self, market: Market):
        self.market = market
        self.rank = _rank_tables(market)
        endow = market.endowments
        self.groups = []
        for mask in _coalition_masks(market.agent_count):
            members = [i for i in range(market.agent_count) if mask >> i & 1]
            counts = [0] * market.house_count
            pool = 0
            for i in members:
                counts[endow[i]] += 1
                pool |= 1 << endow[i]
            self.groups.append((members, tuple(counts), pool))

    def find(self, mu: Sequence[HouseId]) -> BlockingCertificate | None:
        rank = self.rank
        type_count = self.market.house_count
        n = self.market.agent_count
        mu_rank = [rank[i][mu[i]] for i in range(n)]
        # weak[i]: bitmask of types agent i weakly prefers to mu[i]
        weak = []
        for i in range(n):
            ri = rank[i]
            limit = mu_rank[i]
            w = 0
            for t in range(type_count):
                if ri[t] <= limit:
                    w |= 1 << t
            weak.append(w)

        for members, counts0, pool in self.groups:
            viable = True
            for i in members:
                if not weak[i] & pool:
                    viable = False
                    break
            if not viable:
                continue
            counts = list(counts0)
            chosen: list[HouseId] = []
            if self._assign(members, counts, chosen, mu_rank, 0, False):
                return BlockingCertificate(
                    coalition=tuple(members),
                    sub_allocation=dict(zip(members, chosen)),
                )
        return None

    def _assign(
        self,
        members: list[AgentId],
        counts: list[int],
        chosen: list[HouseId],
        mu_rank: list[int],
        k: int,
        any_strict: bool,
    ) -> bool:
        # Depth-first over members, types ascending; prune any branch
        # that would leave a member strictly worse off.
        if k == len(members):
            return any_strict
        i = members[k]
        ri = self.rank[i]
        limit = mu_rank[i]
        for t in range(len(counts)):
            if counts[t] and ri[t] <= limit:
                counts[t] -= 1
                chosen.append(t)
                if self._assign(
                    members, counts, chosen, mu_rank, k + 1,
                    any_strict or ri[t] < limit,
                ):
                    return True
                chosen.pop()
                counts[t] += 1
        return False


def enumerate_feasible_allocations(market: Market) -> Iterator[Allocation]:
    """Every distinct allocation matching the endowment multiset, in
    lexicographic order.  Copies of a type are interchangeable, so the
    count is agent_count! divided by the product of per-type
    endowment-count factorials."""
    _check_cap(market, DEFAULT_CAP)

    def generate() -> Iterator[Allocation]:
        for assignment in sorted(set(itertools.permutations(market.endowments))):
            yield Allocation(assignment)

    return generate()


def enumerate_strict_core(market: Market) -> list[Allocation]:
    """All strict-core allocations, by definition.

    The result always has size 0 or 1 for markets in this model; that is
    asserted here and independently re-tested by the property suite.
    """
    # Before _BlockSearch, which lists all 2**n coalitions.
    _check_cap(market, DEFAULT_CAP)
    search = _BlockSearch(market)
    core = [
        mu
        for mu in enumerate_feasible_allocations(market)
        if search.find(mu.assignment) is None
    ]
    assert len(core) <= 1
    return core


def ttc_solve(market: Market, cap: int = DEFAULT_CAP) -> Allocation:
    """Classic top-trading-cycles for injective endowments.

    Each agent points at the owner of their favorite remaining house;
    following pointers from the lowest-id unassigned agent must reach a
    cycle, whose members trade and leave.  With distinct house types and
    strict preferences this yields the unique strict-core allocation.
    A market with any other endowment raises ``ValueError``.

    TTC runs in polynomial time, but by default it keeps the brute
    force's 8-agent cap and raises ``CapExceeded`` above it; a large
    market passes ``cap=market.agent_count``, as ``perfbench/run.py`` does.
    """
    _check_cap(market, cap)
    n = market.agent_count
    if any(len(owners) != 1 for owners in market.owners_by_house):
        raise ValueError("every house type needs exactly one owner")

    owner_of = [owners[0] for owners in market.owners_by_house]
    remaining = set(range(market.house_count))
    assignment: list[HouseId] = [-1] * n
    unassigned = n

    while unassigned:
        start = next(i for i in range(n) if assignment[i] == -1)
        seen_at: dict[AgentId, int] = {}
        path: list[AgentId] = []
        favorites: list[HouseId] = []
        i = start
        while i not in seen_at:
            seen_at[i] = len(path)
            path.append(i)
            favorite = next(h for h in market.prefs[i] if h in remaining)
            favorites.append(favorite)
            i = owner_of[favorite]
        for k in range(seen_at[i], len(path)):
            assignment[path[k]] = favorites[k]
        for k in range(seen_at[i], len(path)):
            remaining.discard(market.endowments[path[k]])
            unassigned -= 1

    return Allocation(tuple(assignment))
