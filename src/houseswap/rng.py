"""Deterministic integer randomness shared by the generator and the solver.

Everything here is fixed-width integer arithmetic so that a market built
from a seed is bit-identical on every platform and in every language that
reimplements the same scheme.  The scheme is pinned:

* stream: splitmix64 (golden-gamma increment, 64-bit finalizer),
* bounded draw: ``(next_u64() * n) >> 64``,
* shuffle: Fisher-Yates from the front, ``j = i + below(n - i)``.

The k-th splitmix64 output depends only on ``state + k * gamma``, so
``_draw_block`` computes a whole run of draws at once.  ``_shuffle``
runs Fisher-Yates over a plain list from such a run; ``fisher_yates``
and the completion of a ``ShuffledRange`` both call it.  ``SplitMix64``
serves its one-at-a-time draws from such runs too, ``_FILL`` at a time.

``ShuffledRange`` produces exactly the permutation the eager shuffle
would, but materializes elements on demand, so a market whose preference
lists are only ever read up to some prefix never pays for the full lists.
It has two states: a sparse prefix, then the whole shuffle.  A sparse
read, iteration's extensions included, runs its steps in ``__getitem__``.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# ``ShuffledRange`` completes its shuffle on the first extension that
# covers at least 1/16 of the positions still pending.  Completing is one
# pass over those positions, so that pass and its memory are at most 16
# times what the extension asked for, while the solver's one-position
# reads on long lists stay on the dict, whose cost is per materialized
# element only.
_DENSE_SHARE = 16

# ``_draw_block`` finalizes at most _BLOCK lanes at a time, so each
# whole-int operation works on a few kilobytes.
_BLOCK = 256

# A ``SplitMix64`` buffers ``_FILL`` draws at each fill, and ``below``
# and ``next_u64`` pop them straight from that buffer.  Fills of 256
# draws left a planted 6000x3000 build's peak resident set about 330 KB
# higher (VmHWM, glibc malloc, CPython 3.11) with the same live bytes by
# tracemalloc: their kilobyte-sized temporaries fragment the heap between
# the build's own allocations.  Fills of 64 left it unchanged.  A fill
# reads its lane constants from ``_FILL_LANES``, built once at import.
_FILL = 64


def _packed(values: Iterable[int]) -> int:
    """``values`` in successive 128-bit lanes of one int, lowest first."""
    lanes = b"".join(v.to_bytes(16, "little") for v in values)
    return int.from_bytes(lanes, "little")


# The lane constants for ``_BLOCK`` lanes: 1 in every lane, ``(k + 1) *
# gamma`` in lane ``k``, and the low 64 bits of every lane set.
_ONES = _packed([1] * _BLOCK)
_STEPS = _packed(k * _GAMMA for k in range(1, _BLOCK + 1))
_LOW = _packed([_MASK64] * _BLOCK)

# The same constants for a run of exactly ``_FILL`` lanes, the length of
# every ``SplitMix64`` refill: their top ``_FILL`` lanes, shifted down
# once here rather than at each refill.
_FILL_LANES = tuple(c >> 128 * (_BLOCK - _FILL) for c in (_ONES, _STEPS, _LOW))


class SplitMix64:
    """splitmix64 stream; ``seed`` is reduced mod 2**64.

    ``next_u64`` and ``below`` each pop their output straight from a
    buffer of at most ``_FILL`` pending draws, refilled by
    ``_draw_block`` from lane constants built once at import.  So a
    subclass that overrides ``next_u64`` does not see ``below``'s draws;
    count draws by ``state`` instead.  ``state`` is the stream's logical
    position: the state after the last output returned, whatever the
    buffer holds.  Assigning it (reduced mod 2**64) moves the stream there
    and empties the buffer, so ``fisher_yates``, which reads the state,
    shuffles from block draws and writes the state back, sees the same
    stream as one-at-a-time draws would.
    """

    __slots__ = ("_end", "_pending")

    def __init__(self, seed: int) -> None:
        self.state = seed

    @property
    def state(self) -> int:
        # ``_end`` is the state after the last buffered output.
        return (self._end - len(self._pending) * _GAMMA) & _MASK64

    @state.setter
    def state(self, value: int) -> None:
        self._end = value & _MASK64
        self._pending = []

    def next_u64(self) -> int:
        try:
            return self._pending.pop()
        except IndexError:
            return self._refill()

    def _refill(self) -> int:
        """Buffer the next ``_FILL`` outputs and return the first."""
        draws, self._end = _draw_block(self._end, _FILL)
        draws.reverse()  # so that ``pop`` serves them in stream order
        self._pending = draws
        return draws.pop()

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) via the multiply-shift reduction.

        Served straight from the buffer, as ``next_u64`` is: calling it
        would add a call to every draw."""
        try:
            return (self._pending.pop() * n) >> 64
        except IndexError:
            return (self._refill() * n) >> 64


def _draw_block(state: int, count: int) -> tuple[list[int], int]:
    """The next ``count`` outputs of the splitmix64 stream at ``state``,
    and the stream state after them.

    Lane ``k`` of one int holds the stream's state after ``k + 1`` steps.
    Masked, a lane is below 2**64, so its product with a 64-bit constant
    stays inside its 128 bits.  The bits a shift spills into a lane's
    upper half are cleared by the repeated 64-bit mask, and after the
    last shift they are left out when the lanes are read back.

    The lanes are read back as machine words of the int's bytes in host
    order: lane ``k``'s low half is word ``2k`` of the little-endian
    bytes and word ``-2k - 1`` of the big-endian ones.  A ``memoryview``
    reads them without the ``array`` extension module, whose loading adds
    about 75 KB to the resident set of every process that imports this
    module (CPython 3.11, Linux x86-64).
    """
    out: list[int] = []
    while count > 0:
        c = min(count, _BLOCK)
        # Drop the low ``spare`` lanes and start that many steps back.
        # A refill's run of ``_FILL`` lanes finds them dropped already.
        spare = _BLOCK - c
        if c == _FILL:
            ones, steps, low = _FILL_LANES
        else:
            ones, steps, low = _ONES, _STEPS, _LOW
            if spare:
                ones >>= 128 * spare
                steps >>= 128 * spare
                low >>= 128 * spare
        z = (((state - spare * _GAMMA) & _MASK64) * ones + steps) & low
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        z ^= z >> 31
        words = memoryview(z.to_bytes(16 * c, sys.byteorder)).cast("Q")
        out += words[::2] if sys.byteorder == "little" else words[::-2]
        state = (state + c * _GAMMA) & _MASK64
        count -= c
    return out, state


def _shuffle(items: list, state: int) -> int:
    """Shuffle ``items`` in place with the pinned Fisher-Yates, one draw
    for every position but the last, from the stream at ``state``;
    return the state after those draws."""
    n = len(items)
    draws, state = _draw_block(state, max(n - 1, 0))
    for i, r in enumerate(draws):
        j = i + ((r * (n - i)) >> 64)
        items[i], items[j] = items[j], items[i]
    return state


def fisher_yates(items: list, rng: SplitMix64) -> list:
    """Shuffle ``items`` in place with the pinned draw pattern: one draw
    for every position but the last."""
    rng.state = _shuffle(items, rng.state)
    return items


class ShuffledRange(Sequence):
    """Lazy uniform permutation of ``range(n)``.

    Element ``k`` is computed on first access: ``self[k]`` runs the
    Fisher-Yates shuffle forward to position ``k`` on the stream state
    ``_state`` (the reduced seed at first).  An extension that covers less
    than ``1/_DENSE_SHARE`` of the pending positions runs the sparse loop
    in that same call, with the splitmix64 step fused in and the pending
    swaps in the dict ``_ahead``, so memory stays proportional to the
    materialized prefix.  The first extension that covers at least that
    share completes the shuffle: the pending positions go into one list,
    shuffled with block draws and appended to ``_done`` (``_ahead``
    becomes ``None``).  Iteration yields the materialized prefix and, on
    running out at position ``k``, extends it to ``2k`` by reading
    ``self[2k]``: a caller that stops after ``p`` elements (``in``,
    ``index``, ``next(...)`` over a filter) has materialized at most
    ``2p + 1``, or all ``n`` once that extension reaches
    ``1/_DENSE_SHARE`` of the pending positions.  A caller that reads
    every element should read position ``n - 1`` first: that completes
    the shuffle at once, where iteration's doubling would first run the
    sparse loop over about ``n / _DENSE_SHARE`` positions.  Two instances
    compare equal iff they have the same ``(n, seed)``, which implies the
    same full sequence.
    """

    __slots__ = ("n", "seed", "_state", "_done", "_ahead")

    def __init__(self, n: int, seed: int) -> None:
        self.n = n
        self.seed = self._state = seed & _MASK64
        self._done: list[int] = []
        self._ahead: dict[int, int] | None = {}

    def _extend_dense(self) -> None:
        """Complete the shuffle in one block-drawn pass."""
        done = self._done
        i = len(done)
        rest = list(range(i, self.n))
        for j, val in self._ahead.items():
            rest[j - i] = val
        self._ahead = None
        _shuffle(rest, self._state)
        done += rest  # in place: live iterators walk this list

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
                self[min(n - 1, 2 * k)]  # extends ``done``
            m = len(done)
            yield from islice(it, m - k)
            k = m

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> int:
        if isinstance(k, slice):
            raise TypeError("slicing not supported")
        n = self.n
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError(k)
        done = self._done
        i = len(done)
        if k < i:
            return done[k]
        if (k + 1 - i) * _DENSE_SHARE >= n - i:
            self._extend_dense()
            return done[k]
        # The sparse step runs here rather than in a helper, so a miss is
        # one call; most misses extend by one element.  ``SplitMix64``'s
        # step is inlined too: the stream state stays in a local, stored
        # back once.  A one-draw ``_draw_block`` call takes about 3.4 us
        # against 0.8 us for the inline step (CPython 3.11, x86-64).  The
        # test above keeps this loop short of position n - 1.
        ahead = self._ahead
        state = self._state
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
        return done[k]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ShuffledRange):
            return self.n == other.n and self.seed == other.seed
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.seed))

    def __repr__(self) -> str:
        return f"ShuffledRange(n={self.n}, seed={self.seed})"
