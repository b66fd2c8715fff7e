"""Every function the benchmark's span tracer wraps still exists.

``bench/spans.py`` names the functions it times in ``WRAPPED``; a name that
no longer exists is left out of the trace without an error, and the
figures built from it (``corpus.load_s``, ``communities.modularity_s``,
``pajek.*`` and the rest) go with it.  The names are read from that file
as it is; nothing under ``bench/`` runs.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# Names the tracer still lists though the function is gone; the benchmark's
# own change mends them (ROADMAP item 3).
STALE = {("layers", "build_bipartite"): "deleted function still in WRAPPED (ROADMAP item 3)"}


def wrapped_names() -> dict[str, tuple[str, ...]]:
    """``WRAPPED`` of ``bench/spans.py``, read as a literal."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no WRAPPED")


WRAPPED = [
    pytest.param(module, name, id=f"{module}.{name}", marks=[
        pytest.mark.xfail(strict=True, reason=STALE[module, name])] if (module, name) in STALE else [])
    for module, names in wrapped_names().items() for name in names
]


@pytest.mark.parametrize("module, name", WRAPPED)
def test_every_function_the_bench_wraps_exists(module, name):
    assert callable(getattr(importlib.import_module(f"journet.{module}"), name, None))
