"""The benchmark's tracer wraps pvsmooth attributes by name (perfbench/tracing.py).

A rename in the package would otherwise surface only when a traced benchmark
run installs its wraps.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_lives_on_its_owner():
    tracing = load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.WRAPS
        if attr not in vars(owner)
    ]
    assert missing == []
    # the loop's self time is read off the engine spans
    assert set(tracing.ENGINES) <= {name for _, _, name in tracing.WRAPS}
