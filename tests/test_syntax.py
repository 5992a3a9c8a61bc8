"""Every source file parses as Python 3.10, the oldest version that
``pyproject.toml`` declares.

This is best-effort: ``ast.parse(..., feature_version=(3, 10))`` rejects
3.11-only grammar such as ``except*``, but it does not catch PEP 646
star annotations (``*Ts`` in a subscript or parameter annotation), and it
cannot see calls into stdlib names added in 3.11 (``tomllib``,
``asyncio.TaskGroup`` and the like).  Only running the suite on 3.10
checks those.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src", "tests", "perfbench", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def test_sources_found():
    assert any(path.name == "htts.py" for path in SOURCES)


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_parses_as_python_3_10(path):
    ast.parse(
        path.read_text(encoding="utf-8"),
        filename=str(path),
        feature_version=(3, 10),
    )


def test_rejects_3_11_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
