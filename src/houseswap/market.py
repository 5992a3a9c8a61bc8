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

from collections.abc import Iterable, Sequence
from functools import cached_property

HouseId = int
AgentId = int


class ValidationError(ValueError):
    """A market description violates the model's assumptions; the
    message names the first fault."""


# How the record constructor writes fields past the refusing __setattr__.
_setfield = object.__setattr__


class _Record:
    """Base of the package's immutable records.

    ``_fields`` names a record's fields in order, once: the one
    constructor takes their values by position or by keyword, raises
    ``TypeError`` for a missing, extra, repeated or unknown argument,
    and writes each value with ``_setfield``.  Two records are equal
    when they are of one class and their ``_key``s match, and hash reads
    ``_key`` too; repr shows every field.  No attribute can be assigned
    or deleted after construction, yet a ``cached_property`` still
    caches: it writes the instance dict directly.  Copies and pickles
    rebuild a record through its constructor, by position.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if len(values) > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} arguments"
                f" but {len(values)} were given"
            )
        for name, value in zip(fields, values):
            _setfield(self, name, value)
        for name in fields[len(values):]:
            if name not in named:
                raise TypeError(
                    f"{type(self).__name__}() missing argument {name!r}"
                )
            _setfield(self, name, named.pop(name))
        for name in named:  # a leftover keyword is a repeat or unknown
            fault = "multiple values for" if name in fields else "an unexpected"
            raise TypeError(f"{type(self).__name__}() got {fault} argument {name!r}")

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values  # what equality and hash read; Segment's is narrower

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), self._values()


class Market(_Record):
    """A validated market: ``house_names``, ``agent_names``,
    ``endowments`` and ``prefs``, in that order.

    ``endowments[i]`` is the house type agent ``i`` owns; ``prefs[i]`` is
    agent ``i``'s strict ranking of all house types, most preferred
    first.  Preference sequences may be lazy (see
    :class:`houseswap.rng.ShuffledRange`); every consumer touches them
    only through ``len``, indexing and iteration; a consumer that reads
    whole rankings may want ``ShuffledRange``'s note on doing so cheaply.

    Instances are immutable and safe to share across threads.  Construct
    untrusted input through :func:`validate_market`; the raw constructor
    trusts its arguments.
    """

    _fields = ("house_names", "agent_names", "endowments", "prefs")

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


class Allocation(_Record):
    """``assignment``: every agent's house type, indexed by agent id."""

    _fields = ("assignment",)

    def __getitem__(self, agent: AgentId) -> HouseId:
        return self.assignment[agent]

    def __len__(self) -> int:
        return len(self.assignment)


class BlockingCertificate(_Record):
    """A ``coalition`` of agent ids and its ``sub_allocation``, agent to
    house type, witnessing a strict-core violation.

    The sub-allocation redistributes exactly the coalition's endowment
    multiset; every member weakly improves on the blocked allocation and
    at least one strictly improves.
    """

    _fields = ("coalition", "sub_allocation")


def validate_market(
    houses: Sequence[str], agents: Iterable[tuple[str, str, Sequence[str]]]
) -> Market:
    """Check a market description against the model and build a Market.

    ``houses`` are the house type names and ``agents`` the agents'
    ``(name, endowment, prefs)`` rows, names unresolved.  The rows are
    read lazily, one at a time, and not past the first faulty row; no
    row is kept once its house ids are built.

    Rejects names that are not single whitespace-free tokens (the text
    formats could not carry them), duplicate or unknown names, agent
    names that start with ``#`` (their allocation lines would read as
    comments), preference lists that are not permutations of the
    declared house types, and house types nobody is endowed with.  An
    empty market (no houses, no agents) is valid.

    A preference list is checked in one pass, popping its names in order
    from a copy of the house index: its first failed pop is its first
    fault, an unknown or a repeated name, and a copy left non-empty
    means it is incomplete.
    """
    house_index: dict[str, HouseId] = {}
    for name in houses:
        if name.split() != [name]:
            raise ValidationError(f"house name {name!r} is not a single token")
        if name in house_index:
            raise ValidationError(f"duplicate house name {name!r}")
        house_index[name] = len(house_index)

    agent_names: list[str] = []
    seen_agents: set[str] = set()
    endowments: list[HouseId] = []
    prefs: list[tuple[HouseId, ...]] = []
    unranked = house_index.copy()
    for name, endowment, ranked in agents:
        if name.split() != [name]:
            raise ValidationError(f"agent name {name!r} is not a single token")
        if name.startswith("#"):
            raise ValidationError(f"agent name {name!r} starts with '#'")
        if name in seen_agents:
            raise ValidationError(f"duplicate agent name {name!r}")
        seen_agents.add(name)
        if endowment not in house_index:
            raise ValidationError(
                f"agent {name!r} endowed with unknown house {endowment!r}"
            )
        try:
            ranking = tuple(map(unranked.pop, ranked))
        except KeyError as fault:
            house = fault.args[0]
            if house in house_index:
                raise ValidationError(
                    f"agent {name!r} ranks house {house!r} twice"
                ) from None
            raise ValidationError(
                f"agent {name!r} ranks unknown house {house!r}"
            ) from None
        if unranked:
            raise ValidationError(
                f"agent {name!r} ranks {len(ranking)} of {len(house_index)}"
                " house types"
            )
        # Free the spent copy, then copy again before the next row is
        # split, so each copy reuses the last one's block; copies made
        # after the split fragment the heap (+0.8 MB RSS at 1200x600).
        del unranked
        unranked = house_index.copy()
        agent_names.append(name)
        endowments.append(house_index[endowment])
        prefs.append(ranking)

    endowed = set(endowments)
    for name, h in house_index.items():
        if h not in endowed:
            raise ValidationError(f"house type {name!r} has no owner")

    return Market(
        house_names=tuple(houses),
        agent_names=tuple(agent_names),
        endowments=tuple(endowments),
        prefs=tuple(prefs),
    )
