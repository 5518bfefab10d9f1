"""The benchmark's trace hooks name functions that exist.

``perfbench/spans.py`` replaces ``owner.__dict__[attribute]`` for each
entry of its TARGETS, so renaming a traced function (say
``linalg.solve_square``) breaks ``perfbench/run.py --trace 1`` with a
KeyError.  The module is run from its source text here, so nothing is
written beside it."""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists():
    targets = load_spans().TARGETS
    assert len(targets) >= 19
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in vars(owner)]
    assert missing == []
