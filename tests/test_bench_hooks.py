"""The benchmark's hooks and answer checks hold on the package.

``perfbench/spans.py`` replaces ``owner.__dict__[attribute]`` for each
entry of its TARGETS, so renaming a traced function (say
``linalg.solve_square``) breaks ``perfbench/run.py --trace 1`` with a
KeyError.  ``perfbench/checks.py`` decides whether a benchmark answer is
right; its verdicts on every workload are checked here.
``perfbench/worker.py`` clears the package's memos before every pass,
so that each pass pays for the work it times.  The modules are run from
their source text, so nothing is written beside them."""

import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cayley_theta import characters, groups

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """perfbench/<name>.py as a module; registered in ``sys.modules``
    before it runs, because its dataclasses look their module up
    there."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists():
    targets = load("spans").TARGETS
    assert len(targets) >= 19
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("workload", ["efp_grid", "abelian_wide"])
def test_benchmark_checks_accept_every_theta_answer(workload, tmp_path):
    """Every operation of the workload, run as the benchmark runs it, is
    judged "ok" by the benchmark's own checks (the abelian references
    come from scipy's HiGHS)."""
    if workload == "abelian_wide":
        pytest.importorskip("scipy.optimize")
    workloads, checks = load("workloads"), load("checks")
    tables = {}
    verdicts = []
    for op in workloads.make_ops(workload, 0):
        output = workloads.run_op(op, tables, str(tmp_path))
        verdicts.append((op.label, *checks.check_op(op, output, 0)))
    assert [v for v in verdicts if v[1] != "ok"] == []
    assert sum(label.startswith("theta") for label, *_ in verdicts) >= 3


def test_benchmark_checks_accept_every_cayley_graph_answer(tmp_path):
    """The cayley_graph operations (alpha on S_6, GL(2,5) and Z_1500, and
    the formulation-(A) export of S_6), run as the benchmark runs them,
    are judged "ok" by its checks, which read the Graph, the SDP
    instance and the exported bytes."""
    workloads, checks = load("workloads"), load("checks")
    verdicts = []
    for op in workloads.make_ops("cayley_graph", 0):
        output = workloads.run_op(op, {}, str(tmp_path))
        verdicts.append((op.label, *checks.check_op(op, output, 0)))
    assert [v for v in verdicts if v[1] != "ok"] == []
    assert [op.kind for op in workloads.make_ops("cayley_graph", 0)] == \
        ["alpha", "alpha", "sdpa", "alpha"]


def test_benchmark_checks_fail_a_certificate_of_nans(tmp_path):
    """The first float theta answer of efp_grid, with its certificate
    replaced by NaNs, is judged "failed" by the benchmark's checks."""
    workloads, checks = load("workloads"), load("checks")
    tables = {}
    for op in workloads.make_ops("efp_grid", 0):
        output = workloads.run_op(op, tables, str(tmp_path))
        if op.kind == "theta" and not op.exact:
            break
    spec, table, cert = output
    nan = float("nan")
    bad = replace(cert, a=(nan,) * len(cert.a), objective=nan,
                  dual=(nan,) * len(cert.dual))
    assert checks.check_op(op, output, 0)[0] == "ok"
    assert checks.check_op(op, (spec, table, bad), 0)[0] == "failed"


@pytest.fixture
def worker(monkeypatch):
    """perfbench/worker.py as a module; its own imports (``hostspeed``,
    ``workloads``) are found on sys.path, written no bytecode for, and
    dropped from ``sys.modules`` afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield load("worker")
    for name in ("hostspeed", "workloads"):
        sys.modules.pop(name, None)


def test_every_memo_the_benchmark_clears_can_be_cleared(worker):
    assert set(worker.MEMOS) == {characters.mn_character, groups.partitions}
    assert all(callable(getattr(memo, "cache_clear", None))
               for memo in worker.MEMOS)


def test_no_memo_outside_the_cleared_ones_keeps_the_s_n_table(worker):
    """After the benchmark's memos are cleared, each S_8 table is built
    anew: a cached builder would let every pass after the first skip
    the work the benchmark times."""
    for memo in worker.MEMOS:
        memo.cache_clear()
    first, second = (characters.symmetric_character_table(8)
                     for _ in range(2))
    assert first is not second
    assert not np.shares_memory(first.entries, second.entries)
    assert not np.shares_memory(characters.mn_table(8),
                                characters.mn_table(8))
