"""Every program function the benchmark's traced pass times is still bound
where it looks for it, so a refactor cannot silently zero a per-layer
metric. Reads perfbench/ and leaves it as it is."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_finds_every_binding():
    layers, spans = load("layers"), load("spans")
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        # the hit-miss family is gone from the program; the benchmark still
        # wraps its builder, so that one binding, and only it, is missing
        assert tracer.missing == ["vertexcuts.oracle.build_hit_miss_family"]
    finally:
        tracer.unwrap_all()
