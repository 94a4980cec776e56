"""The exported names and the traced benchmark's span targets stay resolvable."""

import ast
import importlib
from pathlib import Path

import placedet

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _bench_spans() -> tuple[str, ...]:
    # parsed, not imported, so reading it leaves bench/ untouched
    for node in ast.parse(SPANS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS in {SPANS_FILE}")


def test_public_names_and_bench_spans_resolve():
    missing = [name for name in placedet.__all__ if not hasattr(placedet, name)]
    assert not missing, missing
    spans = _bench_spans()
    assert spans
    for span in spans:
        module, *path = span.split(".")
        target = importlib.import_module(f"placedet.{module}")
        for attr in path:
            target = getattr(target, attr)
        assert callable(target), span
