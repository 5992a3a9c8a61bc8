"""Run one houseswap command with spans, then write the spans as JSON.

    python3 perfbench/traced_cli.py SPANS_OUT PARENT_SPAN_ID COMMAND [ARGS...]

Needs ``src`` on ``PYTHONPATH``.  Exits with the command's exit code; the
root span ``cli.main`` is parented to PARENT_SPAN_ID of the calling
process.
"""

from __future__ import annotations

import json
import os
import sys

from houseswap import cli
from spans import Tracer


def main() -> int:
    out, parent, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(prefix=f"{os.getpid()}.", root_parent=parent)
    with tracer.installed(), tracer.span("cli.main", command=argv[0]):
        code = cli.main(argv)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as f:
        json.dump(tracer.finish(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
