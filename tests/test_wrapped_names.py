"""The functions the benchmark's span tracer wraps in ``journet.corpus`` and
``journet.pajek`` still exist.

``bench/spans.py`` names the functions it times in ``WRAPPED``; a name that
no longer exists is left out of the trace without an error, and the
``corpus.load_s`` and ``pajek.*`` figures built from it go with it.  The
names are read from that file as it is; nothing under ``bench/`` runs.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def wrapped_names() -> dict[str, tuple[str, ...]]:
    """``WRAPPED`` of ``bench/spans.py``, read as a literal."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no WRAPPED")


@pytest.mark.parametrize("module", ["corpus", "pajek"])
def test_every_function_the_bench_wraps_exists(module):
    names = wrapped_names()[module]
    namespace = importlib.import_module(f"journet.{module}")
    assert names and [n for n in names if not callable(getattr(namespace, n, None))] == []
