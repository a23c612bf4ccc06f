"""The bench tracer's layer targets name functions that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_bench_layer_target_resolves():
    # the tracer replaces module attributes and, for methods, entries of the class dict
    missing = []
    for layer, targets in _layers().items():
        for target in targets:
            module_name, qualname = target.split(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for name in path:
                owner = getattr(owner, name, None)
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append((layer, target))
    assert missing == []
