"""Seeded markets with a planted, non-empty strict core and ``k`` steps.

Construction, for ``segment_count = k``:

1. Endowments come from ``random_market`` with the same sizes and seed,
   so every type has an owner and duplicates follow the usual generator.
2. A second splitmix64 stream, seeded with ``seed ^ PLANT_SALT``,
   Fisher-Yates shuffles the house types; consecutive slices of the
   shuffle (sizes differing by at most one) are the segments S1..Sk.
3. Per segment, in segment order, the segment's owners (the owners of its
   types, ascending id) are shuffled into a cycle; each owner's planted
   type is the endowment of the next owner on the cycle.  Supply equals
   demand per type, and the segment's type graph is strongly connected.
4. Per segment, owners in ascending id draw one type uniformly from each
   earlier segment, in segment order.  An owner's ranking is those draws,
   then its planted type, then every other type in ascending id.

At step ``t`` every owner in S_j, j > t, points at its draw from S_t and
every owner in S_t at its planted type, so S_t is the only sink SCC and
it is feasible.  The solve therefore takes exactly ``k`` steps, in order,
under every tie-break seed, and returns the planted allocation.
"""

from __future__ import annotations

from collections.abc import Sequence

from houseswap import gen
from houseswap.market import Market
from houseswap.rng import SplitMix64, fisher_yates

PLANT_SALT = 0x5A17ED0C0E5EED


class PlantedPrefs(Sequence):
    """A ranking given by an explicit head followed by every other house
    type in ascending id.  The solver reads only the head, so the tail
    is computed per access and never stored."""

    __slots__ = ("head", "n", "_sorted_head")

    def __init__(self, head: tuple[int, ...], n: int) -> None:
        self.head = head
        self.n = n
        self._sorted_head: list[int] | None = None

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> int:
        if isinstance(k, slice):
            raise TypeError("slicing not supported")
        if k < 0:
            k += self.n
        if not 0 <= k < self.n:
            raise IndexError(k)
        if k < len(self.head):
            return self.head[k]
        if self._sorted_head is None:
            self._sorted_head = sorted(self.head)
        # The (k - len(head))-th smallest type not in the head.
        value = k - len(self.head)
        for h in self._sorted_head:
            if h > value:
                break
            value += 1
        return value


def planted_market(
    agent_count: int, house_count: int, segment_count: int, seed: int
) -> tuple[Market, tuple[int, ...]]:
    """Build the planted market and return it with its planted allocation
    (``planted[i]`` is agent ``i``'s type)."""
    if not 1 <= segment_count <= house_count:
        raise ValueError(
            f"segment_count must be in [1, {house_count}], got {segment_count}"
        )
    base = gen.random_market(gen.GenParams(agent_count, house_count, seed))
    endowments = base.endowments
    owners_by_house = base.owners_by_house
    rng = SplitMix64(seed ^ PLANT_SALT)
    below = rng.below

    types = fisher_yates(list(range(house_count)), rng)
    segments = [
        types[j * house_count // segment_count : (j + 1) * house_count // segment_count]
        for j in range(segment_count)
    ]

    planted = [0] * agent_count
    prefs: list[PlantedPrefs | None] = [None] * agent_count
    for j, segment in enumerate(segments):
        owners = sorted(i for h in segment for i in owners_by_house[h])
        cycle = fisher_yates(list(owners), rng)
        for p, i in enumerate(cycle):
            planted[i] = endowments[cycle[(p + 1) % len(cycle)]]
        earlier = segments[:j]
        for i in owners:
            head = [s[below(len(s))] for s in earlier]
            head.append(planted[i])
            prefs[i] = PlantedPrefs(tuple(head), house_count)

    market = Market(
        house_names=base.house_names,
        agent_names=base.agent_names,
        endowments=endowments,
        prefs=tuple(prefs),
    )
    return market, tuple(planted)
