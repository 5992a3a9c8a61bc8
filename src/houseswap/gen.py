"""Seeded random market generation.

Output is a pure function of ``(agent_count, house_count, seed)`` and is
bit-identical across platforms.  The draw layout is pinned so frozen
fixtures survive reimplementation:

1. One splitmix64 stream is seeded with ``seed``.
2. Agent ids are Fisher-Yates shuffled with that stream.  The first
   ``house_count`` agents of the shuffle receive house types
   ``0, 1, ...`` in order, which guarantees every type has an owner.
3. Each remaining agent of the shuffle, in shuffle order, draws a
   uniform type via ``below(house_count)``.
4. For each agent in ascending id order, one ``next_u64`` draw seeds
   that agent's preference permutation, produced by the lazy
   Fisher-Yates shuffle of ``range(house_count)``.

Preference lists materialize on demand, so very large markets only pay
for the prefixes the solver actually reads.

Duplication pressure is steered by the house/agent ratio alone: equal
counts give an injective endowment, smaller house counts give more
copies per type.  ``GenParams`` rejects bad knobs with ``ValidationError``.
"""

from __future__ import annotations

import sys

from .market import Market, ValidationError, _Record
from .rng import ShuffledRange, SplitMix64, fisher_yates


class GenParams(_Record):
    """Generation knobs ``agent_count``, ``house_count`` and ``seed``;
    ``1 <= house_count <= agent_count <= sys.maxsize`` and ``0 <= seed <
    2**64`` required (splitmix64 would reduce a larger seed mod 2**64 and
    repeat another seed's market)."""

    _fields = ("agent_count", "house_count", "seed")

    def __init__(self, agent_count: int, house_count: int, seed: int) -> None:
        if agent_count < 1:
            raise ValidationError("agent_count must be at least 1")
        if agent_count > sys.maxsize:
            raise ValidationError(f"agent_count must be at most {sys.maxsize}")
        if not 1 <= house_count <= agent_count:
            raise ValidationError(
                "house_count must be in [1, agent_count], got "
                f"{house_count} with {agent_count} agents"
            )
        if not 0 <= seed < 1 << 64:
            raise ValidationError("seed must be in [0, 2**64)")
        super().__init__(agent_count, house_count, seed)


def random_market(params: GenParams) -> Market:
    """Generate a valid market from ``params`` (see module docstring
    for the pinned draw layout)."""
    n, hc = params.agent_count, params.house_count
    rng = SplitMix64(params.seed)

    shuffled_agents = fisher_yates(list(range(n)), rng)
    endowments = [0] * n
    for k in range(hc):
        endowments[shuffled_agents[k]] = k
    for k in range(hc, n):
        endowments[shuffled_agents[k]] = rng.below(hc)

    prefs = tuple(ShuffledRange(hc, rng.next_u64()) for _ in range(n))

    return Market(
        house_names=tuple(f"h{h + 1}" for h in range(hc)),
        agent_names=tuple(f"a{i + 1}" for i in range(n)),
        endowments=tuple(endowments),
        prefs=prefs,
    )
