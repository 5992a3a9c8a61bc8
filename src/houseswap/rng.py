"""Deterministic integer randomness shared by the generator and the solver.

Everything here is fixed-width integer arithmetic so that a market built
from a seed is bit-identical on every platform and in every language that
reimplements the same scheme.  The scheme is pinned:

* stream: splitmix64 (golden-gamma increment, 64-bit finalizer),
* bounded draw: ``(next_u64() * n) >> 64``,
* shuffle: Fisher-Yates from the front, ``j = i + below(n - i)``.

``ShuffledRange`` produces exactly the permutation the eager shuffle
would, but materializes elements on demand, so a market whose preference
lists are only ever read up to some prefix never pays for the full lists.
Its one shuffle loop runs the stream, held as one int, and the bounded
draw inline, so indexed reads and iteration both run at the draw floor;
iteration materializes at most about twice the prefix it has yielded.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 stream; ``seed`` is reduced mod 2**64."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) via the multiply-shift reduction."""
        return (self.next_u64() * n) >> 64


def fisher_yates(items: list, rng: SplitMix64) -> list:
    """Shuffle ``items`` in place with the pinned draw pattern."""
    n = len(items)
    for i in range(n - 1):
        j = i + rng.below(n - i)
        items[i], items[j] = items[j], items[i]
    return items


class ShuffledRange(Sequence):
    """Lazy uniform permutation of ``range(n)``.

    Element ``k`` is computed on first access by running the Fisher-Yates
    shuffle forward to position ``k``, with the splitmix64 draws fused
    into the loop on the int ``_state`` (the reduced seed at first);
    pending swaps are kept in a dict so memory stays proportional to the
    materialized prefix.  Iteration yields the materialized prefix and,
    on running out at position ``k``, extends it to ``2k``: a caller
    that stops after ``p`` elements (``in``, ``index``, ``next(...)``
    over a filter) has materialized at most ``2p + 1``.  Two instances
    compare equal iff they have the same ``(n, seed)``, which implies the
    same full sequence.
    """

    __slots__ = ("n", "seed", "_state", "_done", "_ahead")

    def __init__(self, n: int, seed: int) -> None:
        self.n = n
        self.seed = self._state = seed & _MASK64
        self._done: list[int] = []
        self._ahead: dict[int, int] = {}

    def _extend_to(self, k: int) -> None:
        # ``SplitMix64.next_u64`` and ``below`` inlined: the stream state
        # stays in a local and is stored back once, after the loop.
        done = self._done
        ahead = self._ahead
        n = self.n
        state = self._state
        i = len(done)
        while i <= k:
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            j = i + (((z ^ (z >> 31)) * (n - i)) >> 64)
            val_i = ahead.pop(i, i)
            if j == i:
                done.append(val_i)
            else:
                done.append(ahead.pop(j, j))
                ahead[j] = val_i
            i += 1
        self._state = state

    def __iter__(self) -> Iterator[int]:
        # ``it`` walks ``done`` by position.  It is never run to the end
        # (an exhausted list iterator stays exhausted), so it resumes
        # after each extension.
        done = self._done
        n = self.n
        it = iter(done)
        k = 0
        while k < n:
            if k == len(done):
                self._extend_to(min(n - 1, 2 * k))
            m = len(done)
            yield from islice(it, m - k)
            k = m

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> int:
        if isinstance(k, slice):
            raise TypeError("slicing not supported")
        if k < 0:
            k += self.n
        if not 0 <= k < self.n:
            raise IndexError(k)
        if k >= len(self._done):
            self._extend_to(k)
        return self._done[k]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ShuffledRange):
            return self.n == other.n and self.seed == other.seed
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.seed))

    def __repr__(self) -> str:
        return f"ShuffledRange(n={self.n}, seed={self.seed})"
