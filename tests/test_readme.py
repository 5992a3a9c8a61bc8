"""Every ``python`` example in ``README.md`` runs against the package.

Each fenced block runs in a fresh namespace, so an example that names a
removed function, attribute or exception fails here instead of drifting
from the API.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize(
    "source", EXAMPLES, ids=[f"example{k}" for k in range(len(EXAMPLES))]
)
def test_example_runs(source):
    exec(compile(source, str(README), "exec"), {})
