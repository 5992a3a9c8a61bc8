"""Work split over forked helper processes, one slice per usable CPU.

``Helpers`` is the only code that forks or touches a helper's pipe.  A
helper sends each value its work yields as one block, a 4-byte length
then the value's ``marshal`` bytes, and a ``ValidationError`` as one
zero length.  Work that cannot fork runs in this process instead.
``gen`` formats slices of agents in helpers, and ``load_in_slices``, the
CLI's market load, checks slices of agent lines.  ``gen`` imports this
module on any CPU count, the load only on more than one.
"""

from __future__ import annotations

import marshal
import os
from itertools import chain

from . import fileformat
from .fileformat import _agent_rows, _house_names, _significant_lines
from .market import Market, ValidationError, _checked_rows, _house_index


class Helpers(list):
    """Forked helpers, as ``(pid, pipe read end)`` pairs until each is
    reaped, and ``(None, values)`` for work that could not fork.  Leaving
    the ``with`` block kills and reaps every helper still listed, so none
    outlives a fault."""

    def __enter__(self) -> Helpers:
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self:
            import signal  # loaded only here, so no other path pays for it
            for pid, read_end in self:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    os.close(read_end)
            self.clear()

    def fork(self, work, *args: object) -> None:
        """Fork a helper that sends what ``work(*args)`` yields and exits,
        0 only if ``work`` finished or raised ``ValidationError``.  If no
        pipe or process can be had, ``work`` is kept to run here."""
        try:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
        except OSError:  # a process limit, say: the one-CPU outcome still holds
            self.append((None, work(*args)))
            return
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    try:
                        for value in work(*args):
                            block = marshal.dumps(value)
                            pipe.write(len(block).to_bytes(4, "little"))
                            pipe.write(block)
                    except ValidationError:
                        pipe.write(bytes(4))
                status = 0
            finally:
                os._exit(status)  # never returns into the caller's stack
        os.close(write_end)
        self.append((pid, read_end))

    def results(self, command: str):
        """Each helper's values in fork order; its ``ValidationError``
        raises one here.  A pipe cut short ends at its last whole block,
        and reaping a failed helper raises ``ChildProcessError``."""
        while self:
            pid, source = self[0]
            if pid is None:
                yield from source
                del self[0]
                continue
            with open(source, "rb", closefd=False) as pipe:
                while len(head := pipe.read(4)) == 4:
                    size = int.from_bytes(head, "little")
                    if not size:
                        raise ValidationError(f"{command} helper found a fault")
                    block = pipe.read(size)
                    if len(block) < size:
                        break
                    yield marshal.loads(block)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del self[0]
            os.close(source)
            if status < 0:
                raise ChildProcessError(f"{command} helper killed by signal {-status}")
            if status:
                raise ChildProcessError(f"{command} helper exited with status {status}")


def line_cuts(text: str, slices: int) -> list[int]:
    """Offsets that cut ``text`` into at most ``slices`` runs of whole
    lines, from 0 to ``len(text)``: the first line, the ``houses:`` line
    of any file ``gen`` writes, then about equal shares of the rest."""
    start = text.find("\n") + 1
    size = len(text) - start
    cuts = {0, len(text)}
    for k in range(1, slices):
        cuts.add(text.find("\n", start + size * k // slices) + 1 or len(text))
    return sorted(cuts)


# Rows per marshal block a load helper sends.  A whole slice in one
# block would hold its serialized copy and its rows at once.
BLOCK_ROWS = 256


def checked_blocks(text: str, lo: int, hi: int, houses: list[str]):
    """Check the agent lines ``text[lo:hi]``, then yield their rows in
    lists of ``BLOCK_ROWS``: a load helper's work.  Nothing goes out before
    the whole slice is checked, so it never waits on a full pipe mid-check."""
    rows = list(_checked_rows(
        _house_index(houses),
        _agent_rows(_significant_lines(text[lo:hi])),
        set(),
    ))
    for k in range(0, len(rows), BLOCK_ROWS):
        yield rows[k:k + BLOCK_ROWS]


def load_in_slices(text: str, slices: int) -> Market:
    """The market ``load_market(text)`` builds, or its error, read in at
    most ``slices`` slices: helpers check every slice after the first
    while this process checks the first, which holds the ``houses:``
    line."""
    cuts = line_cuts(text, slices)
    if len(cuts) > 2:
        try:
            lines = _significant_lines(text[:cuts[1]])
            houses = _house_names(text, lines)
            with Helpers() as helpers:
                for lo, hi in zip(cuts[1:-1], cuts[2:]):
                    helpers.fork(checked_blocks, text, lo, hi, houses)
                # Called on its module, as ``load_market`` calls it, so a
                # traced run times this process's slice, the wait and the
                # merge as one ``validate_market`` span.
                return fileformat.validate_market(
                    houses,
                    _agent_rows(lines),
                    _checked=chain.from_iterable(helpers.results("load")),
                )
        except ValidationError:
            pass  # read again serially: the same error on any CPU count
    return fileformat.load_market(text)
