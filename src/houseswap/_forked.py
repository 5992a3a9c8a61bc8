"""Work split over forked helper processes, one slice per usable CPU.

``Helpers`` forks and reaps the helpers of ``gen`` and of the market
load.  ``load_in_slices`` is the CLI's market load: it cuts the agent
lines after the ``houses:`` line into slices of whole lines, checks the
first in this process while a helper checks each other slice, and sends
the checked rows back as marshalled blocks.  Only the commands that fork
import this module.
"""

from __future__ import annotations

import marshal
import os

from . import fileformat
from .fileformat import _agent_rows, _house_names, _significant_lines
from .market import Market, ValidationError, _checked_rows, _house_index


class Helpers(list):
    """Forked helpers, as ``(pid, pipe read end)`` pairs until each is
    reaped.  Leaving the ``with`` block kills and reaps every helper
    still listed, so none outlives a fault."""

    def __enter__(self) -> Helpers:
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self:
            import signal  # loaded only here, so no other path pays for it
            for pid, read_end in self:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read_end)
            self.clear()

    def fork(self, work, *args: object) -> None:
        """Fork a helper that runs ``work(pipe, *args)``, ``pipe`` the
        binary write end of a new pipe, and exits, 0 only if ``work``
        returned.  EOF on the pipe means it is done."""
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    work(pipe, *args)
                status = 0
            finally:
                os._exit(status)  # never returns into the caller's stack
        os.close(write_end)
        self.append((pid, read_end))

    def outputs(self, command: str):
        """Each helper's pipe as a binary file, in fork order.  Once the
        caller asks for the next, the helper is reaped; a failed one
        raises ``ChildProcessError``."""
        while self:
            pid, read_end = self[0]
            with open(read_end, "rb", closefd=False) as pipe:
                yield pipe
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del self[0]
            os.close(read_end)
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


def send_rows(pipe, text: str, lo: int, hi: int, houses: list[str]) -> None:
    """Check the agent lines ``text[lo:hi]`` and write their rows as
    blocks: a 4-byte length, then a marshalled list of rows.  A faulty
    slice is one zero length.  Nothing is written before the whole slice
    is checked, so the helper never waits on a full pipe mid-check."""
    try:
        rows = list(_checked_rows(
            _house_index(houses),
            _agent_rows(_significant_lines(text[lo:hi])),
            set(),
        ))
    except ValidationError:
        pipe.write(bytes(4))
        return
    for k in range(0, len(rows), BLOCK_ROWS):
        block = marshal.dumps(rows[k:k + BLOCK_ROWS])
        pipe.write(len(block).to_bytes(4, "little"))
        pipe.write(block)


def received_rows(pipes):
    """The rows of each helper's pipe in turn.  A helper's faulty slice
    raises ``ValidationError``; a pipe cut short ends at the last whole
    block, and reaping its helper reports how it failed."""
    for pipe in pipes:
        while len(head := pipe.read(4)) == 4:
            size = int.from_bytes(head, "little")
            if not size:
                raise ValidationError("a later slice is faulty")
            block = pipe.read(size)
            if len(block) < size:
                break
            yield from marshal.loads(block)


def load_in_slices(text: str, slices: int) -> Market:
    """The market ``load_market(text)`` builds, or its error, read in at
    most ``slices`` slices: helpers check every slice after the first
    while this process checks the first, which holds the ``houses:``
    line."""
    cuts = line_cuts(text, slices)
    if len(cuts) > 2:
        try:
            return _load_slices(text, cuts)
        except ValidationError:
            pass  # read again serially: the same error on any CPU count
    return fileformat.load_market(text)


def _load_slices(text: str, cuts: list[int]) -> Market:
    lines = _significant_lines(text[:cuts[1]])
    houses = _house_names(text, lines)
    with Helpers() as helpers:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            helpers.fork(send_rows, text, lo, hi, houses)
        # Called on its module, as ``load_market`` calls it, so a traced
        # run times this process's slice, the wait and the merge as one
        # ``validate_market`` span.
        return fileformat.validate_market(
            houses,
            _agent_rows(lines),
            _checked=received_rows(helpers.outputs("load")),
        )
