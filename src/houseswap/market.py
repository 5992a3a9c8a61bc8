"""Domain model for house-swapping markets with duplicate house types.

A market has a set of agents, each endowed with one house of some type,
and a complete strict preference order over house *types* for every
agent.  Copies of a type are interchangeable: allocations assign agents
to types, and an allocation is feasible when its per-type counts match
the endowment counts.

Internally houses and agents are dense integer ids; external names live
only in the symbol tables carried by :class:`Market`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

HouseId = int
AgentId = int


class ValidationError(ValueError):
    """A raw market description violates the model's assumptions."""


class DuplicateName(ValidationError):
    pass


class UnknownName(ValidationError):
    pass


class IncompletePreferences(ValidationError):
    """An agent's preference list does not cover every house type."""


class DuplicateInPreferences(ValidationError):
    pass


class UnendowedHouseType(ValidationError):
    """A declared house type that no agent is endowed with."""


@dataclass(frozen=True)
class RawAgent:
    """One agent line as parsed from a market file, names unresolved."""

    name: str
    endowment: str
    prefs: tuple[str, ...]


@dataclass(frozen=True)
class RawMarket:
    """Syntactically parsed market description, prior to validation."""

    houses: tuple[str, ...]
    agents: tuple[RawAgent, ...]


@dataclass(frozen=True)
class Market:
    """A validated market.

    ``endowments[i]`` is the house type agent ``i`` owns; ``prefs[i]`` is
    agent ``i``'s strict ranking of all house types, most preferred
    first.  Preference sequences may be lazy (see
    :class:`houseswap.rng.ShuffledRange`); every consumer touches them
    only through ``len`` and indexing.

    Instances are immutable and safe to share across threads.  Construct
    untrusted input through :func:`validate_market`; the raw constructor
    trusts its arguments.
    """

    house_names: tuple[str, ...]
    agent_names: tuple[str, ...]
    endowments: tuple[HouseId, ...]
    prefs: tuple[Sequence[HouseId], ...]

    @property
    def house_count(self) -> int:
        return len(self.house_names)

    @property
    def agent_count(self) -> int:
        return len(self.agent_names)

    @cached_property
    def house_index(self) -> dict[str, HouseId]:
        return {name: h for h, name in enumerate(self.house_names)}

    @cached_property
    def agent_index(self) -> dict[str, AgentId]:
        return {name: i for i, name in enumerate(self.agent_names)}

    @cached_property
    def owners_by_house(self) -> tuple[tuple[AgentId, ...], ...]:
        """Agents endowed with each house type, ascending agent id."""
        owners: list[list[AgentId]] = [[] for _ in range(self.house_count)]
        for i, h in enumerate(self.endowments):
            owners[h].append(i)
        return tuple(tuple(o) for o in owners)

    def house_name(self, house: HouseId) -> str:
        return self.house_names[house]

    def agent_name(self, agent: AgentId) -> str:
        return self.agent_names[agent]

    def feasible_allocation(self, assignment: Sequence[HouseId]) -> bool:
        """True iff per-type counts of ``assignment`` match the endowment."""
        if len(assignment) != self.agent_count:
            return False
        counts = [0] * self.house_count
        for h in assignment:
            if not 0 <= h < self.house_count:
                return False
            counts[h] += 1
        return all(
            counts[h] == len(self.owners_by_house[h])
            for h in range(self.house_count)
        )

    def check_invariants(self) -> None:
        """Re-assert every model invariant.  Materializes preference
        lists, so intended for small instances (tests, fixtures)."""
        n, hc = self.agent_count, self.house_count
        assert len(self.endowments) == n and len(self.prefs) == n
        assert len(set(self.house_names)) == hc
        assert len(set(self.agent_names)) == n
        full = set(range(hc))
        for i in range(n):
            assert self.endowments[i] in full
            ranking = list(self.prefs[i])
            assert len(ranking) == hc and set(ranking) == full
        assert all(self.owners_by_house[h] for h in range(hc))


@dataclass(frozen=True)
class Allocation:
    """Assignment of every agent to a house type, indexed by agent id."""

    assignment: tuple[HouseId, ...]

    def __getitem__(self, agent: AgentId) -> HouseId:
        return self.assignment[agent]

    def __len__(self) -> int:
        return len(self.assignment)


def validate_market(raw: RawMarket) -> Market:
    """Check a raw description against the model and build a Market.

    Rejects duplicate or unknown names, preference lists that are not
    permutations of the declared house types, and house types nobody is
    endowed with.  An empty market (no houses, no agents) is valid.
    """
    house_index: dict[str, HouseId] = {}
    for name in raw.houses:
        if name in house_index:
            raise DuplicateName(f"duplicate house name {name!r}")
        house_index[name] = len(house_index)

    agent_names: list[str] = []
    seen_agents: set[str] = set()
    endowments: list[HouseId] = []
    prefs: list[tuple[HouseId, ...]] = []
    for agent in raw.agents:
        if agent.name in seen_agents:
            raise DuplicateName(f"duplicate agent name {agent.name!r}")
        seen_agents.add(agent.name)
        if agent.endowment not in house_index:
            raise UnknownName(
                f"agent {agent.name!r} endowed with unknown house "
                f"{agent.endowment!r}"
            )
        ranking: list[HouseId] = []
        seen_houses: set[str] = set()
        for house in agent.prefs:
            if house not in house_index:
                raise UnknownName(
                    f"agent {agent.name!r} ranks unknown house {house!r}"
                )
            if house in seen_houses:
                raise DuplicateInPreferences(
                    f"agent {agent.name!r} ranks house {house!r} twice"
                )
            seen_houses.add(house)
            ranking.append(house_index[house])
        if len(ranking) != len(raw.houses):
            raise IncompletePreferences(
                f"agent {agent.name!r} ranks {len(ranking)} of "
                f"{len(raw.houses)} house types"
            )
        agent_names.append(agent.name)
        endowments.append(house_index[agent.endowment])
        prefs.append(tuple(ranking))

    endowed = set(endowments)
    for name, h in house_index.items():
        if h not in endowed:
            raise UnendowedHouseType(f"house type {name!r} has no owner")

    return Market(
        house_names=tuple(raw.houses),
        agent_names=tuple(agent_names),
        endowments=tuple(endowments),
        prefs=tuple(prefs),
    )
