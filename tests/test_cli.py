import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cayley_theta import simplex
from cayley_theta.cli import cli_dispatch
from cayley_theta.graphs import export_action, export_graph, Graph
from cayley_theta.groups import (action_from_table, export_cayley_table,
                                 make_abelian_product, make_symmetric)


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_theta_exact_s3(capsys):
    code, out, _ = run(capsys, "theta", "--group", "sym:3",
                       "--connection", "efp:1", "--exact")
    assert code == 0
    assert "theta = 2 (exact)" in out


def test_theta_float_cycle5(capsys):
    code, out, _ = run(capsys, "theta", "--group", "cyclic:5",
                       "--connection", "classes:1,4")
    assert code == 0
    assert "2.2360680" in out


def test_theta_json_report(capsys, tmp_path):
    report = tmp_path / "run.json"
    code, out, _ = run(capsys, "theta", "--group", "sym:4",
                       "--connection", "efp:2", "--exact",
                       "--json", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["schema"] == 1
    assert data["mode"] == "exact"
    assert data["results"]["theta"] == "2"
    assert "runtime_ms" in data


def test_theta_bad_group_exit_code(capsys):
    code, _, err = run(capsys, "theta", "--group", "sym:99",
                       "--connection", "efp:1")
    assert code == 2
    assert "error:" in err


def test_theta_exact_and_float_are_exclusive(capsys):
    code, out, err = run(capsys, "theta", "--group", "sym:3",
                         "--connection", "efp:1", "--exact", "--float")
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


def test_theta_exact_rejected_for_float_table(capsys):
    code, _, err = run(capsys, "theta", "--group", "cyclic:5",
                       "--connection", "classes:1,4", "--exact")
    assert code == 2


def test_alpha_from_graph_file(capsys, tmp_path):
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    path = tmp_path / "c5.txt"
    export_graph(g, path)
    code, out, _ = run(capsys, "alpha", "--graph", str(path))
    assert code == 0
    assert "alpha = 2" in out


def test_alpha_budget_exit_code(capsys):
    code, out, _ = run(capsys, "alpha", "--group", "sym:5",
                       "--connection", "efp:2", "--budget", "1e-6")
    assert code in (0, 3)
    if code == 3:
        assert "alpha in [" in out


def test_alpha_deeper_than_the_recursion_limit(capsys):
    code, out, err = run(capsys, "alpha", "--group", "cyclic:1500",
                         "--connection", "empty")
    assert code == 0
    assert "alpha = 1500" in out
    assert "Traceback" not in out + err


def test_efp_table_output(capsys, tmp_path):
    csv_path = tmp_path / "t.csv"
    code, out, _ = run(capsys, "efp-table", "--nmax", "4",
                       "--csv", str(csv_path))
    assert code == 0
    assert "n=4 k=2 theta=2 conjectured=2 ok" in out
    assert csv_path.exists()


def test_efp_table_nmax_bound(capsys):
    code, _, err = run(capsys, "efp-table", "--nmax", "11")
    assert code == 2
    assert err == "error: efp_table needs 1 <= n_max <= 10, not 11\n"


def test_theta_float_failure_is_clean(capsys, monkeypatch):
    # a float LP that reaches the iteration cap (forced by a cap of 0)
    # must end in a message and exit 1, not a traceback
    monkeypatch.setattr(simplex, "ITERATIONS_PER_COLUMN", 0)
    code, out, err = run(capsys, "theta", "--group", "sym:10",
                         "--connection", "efp:9", "--float")
    assert code == 1
    assert err == ("numerical failure: no convergence within 0 simplex "
                   "iterations\n")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("n, k, want", [(9, 5, "50.9090909"),
                                        (10, 9, "1.0000000")])
def test_theta_float_s9_s10(capsys, n, k, want):
    # these float solves came back infeasible or wrong from the
    # Bland-rule kernel in doubles
    code, out, err = run(capsys, "theta", "--group", f"sym:{n}",
                         "--connection", f"efp:{k}", "--float")
    assert code == 0
    assert out == f"theta \u2248 {want}\n"


def test_export_sdpa_a(capsys, tmp_path):
    out_path = tmp_path / "c5.dat-s"
    code, out, _ = run(capsys, "export-sdpa", "--formulation", "A",
                       "--group", "cyclic:5", "--connection", "classes:1,4",
                       "--out", str(out_path))
    assert code == 0
    assert "[5]" in out and "6 constraint(s)" in out
    assert out_path.exists()


def test_export_sdpa_c_requires_irreps(capsys, tmp_path):
    code, _, err = run(capsys, "export-sdpa", "--formulation", "C",
                       "--group", "sym:3", "--connection", "efp:1",
                       "--out", str(tmp_path / "x.dat-s"))
    assert code == 2


def test_chartable_export_and_validate(capsys, tmp_path):
    path = tmp_path / "s4.json"
    code, _, _ = run(capsys, "chartable", "--group", "sym:4",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "chartable", "--group", "sym:4",
                       "--validate", str(path))
    assert code == 0
    assert "ok: 5 irreps, exact" in out
    # validating against the wrong group fails cleanly
    code, _, err = run(capsys, "chartable", "--group", "sym:3",
                       "--validate", str(path))
    assert code == 2


CHARTABLE_STDOUT = {
    "sym:4": """\
(1,1,1,1) 1 -1 1 1 -1
(2,1,1) 3 -1 -1 0 1
(2,2) 2 0 2 -1 0
(3,1) 3 1 -1 0 -1
(4) 1 1 1 1 1
""",
    "cyclic:3": """\
chi(0) (1+0j) (1+0j) (1+0j)
chi(1) (1+0j) (-0.4999999999999998+0.8660254037844387j) \
(-0.5000000000000004-0.8660254037844384j)
chi(2) (1+0j) (-0.5000000000000004-0.8660254037844384j) \
(-0.4999999999999992+0.8660254037844392j)
""",
}

CHARTABLE_EXPORT_SHA256 = {
    "sym:4": "aacfb0bdeb5ec17b1dfb604de13cfbc8050926330df0e642533c013638b922fa",
    "cyclic:5":
        "8215556e38c817c3a3a348e2269c530e558d11ce8d6473e38b13619289408925",
}


@pytest.mark.parametrize("group", sorted(CHARTABLE_STDOUT))
def test_chartable_stdout_pinned(capsys, group):
    code, out, _ = run(capsys, "chartable", "--group", group)
    assert code == 0
    assert out == CHARTABLE_STDOUT[group]


@pytest.mark.parametrize("group", sorted(CHARTABLE_EXPORT_SHA256))
def test_chartable_export_bytes_pinned(capsys, tmp_path, group):
    path = tmp_path / "table.json"
    assert run(capsys, "chartable", "--group", group, "--out", str(path))[0] == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CHARTABLE_EXPORT_SHA256[group]


def test_theta_gl22_with_imported_s3_table(capsys, tmp_path):
    path = tmp_path / "s3.json"
    code, _, _ = run(capsys, "chartable", "--group", "sym:3",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "theta", "--group", "gl:2,2",
                       "--connection", "gl-rank:1", "--exact",
                       "--chartable", str(path))
    assert code == 0
    assert "theta = 2 (exact)" in out


def test_bochner_command(capsys, tmp_path):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps(["1", "0", "0", "0", "0", "0"]))
    code, out, _ = run(capsys, "bochner", "--group", "cyclic:6",
                       "--function", str(fn))
    assert code == 0
    assert "positive-type: yes" in out
    fn.write_text(json.dumps(["0", "1", "0", "0", "0", "1"]))
    code, out, _ = run(capsys, "bochner", "--group", "cyclic:6",
                       "--function", str(fn))
    assert code == 0
    assert "positive-type: no" in out


def test_bochner_takes_a_huge_rational_on_an_exact_table(capsys, tmp_path):
    """The exact S_3 table sums 1e400 exactly; the float Z_7 table exits
    2 on it (test_input_errors_exit_2_without_traceback)."""
    fn = tmp_path / "huge.json"
    fn.write_text(json.dumps(["1e400"] + ["0"] * 5))
    code, out, _ = run(capsys, "bochner", "--group", "sym:3",
                       "--function", str(fn))
    assert code == 0 and out == "positive-type: yes\n"


def test_blowup_command(capsys, tmp_path):
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    gp = tmp_path / "c5.txt"
    export_graph(g, gp)
    z5 = make_abelian_product([5])
    act = action_from_table(z5, [[z5.multiply(a, p) for p in range(5)]
                                 for a in range(5)])
    ap = tmp_path / "act.txt"
    export_action(act, ap)
    code, out, _ = run(capsys, "blowup", "--graph", str(gp),
                       "--action", str(ap), "--group", "cyclic:5",
                       "--alpha")
    assert code == 0
    assert "connection set: 1 4" in out
    assert "alpha(blowup) = 2" in out


@pytest.mark.parametrize("bad", [7, -1])
def test_blowup_rejects_action_entries_outside_the_points(capsys, tmp_path,
                                                          bad):
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    gp = tmp_path / "c5.txt"
    export_graph(g, gp)
    z5 = make_abelian_product([5])
    rows = [[z5.multiply(a, p) for p in range(5)] for a in range(5)]
    rows[1][2] = bad
    ap = tmp_path / "act.txt"
    ap.write_text("5 5\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows))
    code, _, err = run(capsys, "blowup", "--graph", str(gp),
                       "--action", str(ap), "--group", "cyclic:5")
    assert code == 2
    assert "entries must be points 0..4" in err


def _cycle_blowup(capsys, tmp_path, rows):
    """Exit code and stderr of ``blowup`` for C_n, Z_n and an action
    table."""
    n = len(rows)
    gp, ap = tmp_path / "cycle.txt", tmp_path / "act.txt"
    export_graph(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]),
                 gp)
    np.savetxt(ap, rows, fmt="%d", header=f"{n} {n}", comments="")
    code, _, err = run(capsys, "blowup", "--graph", str(gp), "--action",
                       str(ap), "--group", f"cyclic:{n}")
    return code, err


def test_blowup_refuses_large_non_actions_and_non_automorphisms(capsys,
                                                                 tmp_path):
    """Z_211 on itself with two entries of row 3 swapped is not an
    action; Z_2003 rotating C_2003 conjugated by the swap of vertices 0
    and 5 is not by automorphisms.  Both exit 2."""
    rotations = (np.arange(211)[:, None] + np.arange(211)) % 211
    rotations[3, [1, 2]] = rotations[3, [2, 1]]
    assert _cycle_blowup(capsys, tmp_path, rotations) == (
        2, "error: not an action: (2,1,1)\n")
    rotations = (np.arange(2003)[:, None] + np.arange(2003)) % 2003
    swap = np.arange(2003)
    swap[[0, 5]] = [5, 0]
    assert _cycle_blowup(capsys, tmp_path, swap[rotations[:, swap]]) == (
        2, "error: element 1 does not preserve adjacency on edge (0, 1)\n")


def test_s6_cayley_table_loads_via_cli(capsys, tmp_path):
    """The order-720 table is checked in full on load (Light's test on
    two generators), then used."""
    path = tmp_path / "s6.txt"
    export_cayley_table(make_symmetric(6), path)
    code, out, _ = run(capsys, "alpha", "--group", f"table:{path}",
                       "--connection", "empty")
    assert code == 0
    assert "alpha = 720" in out


def test_chartable_bound_checked_before_allocating(capsys):
    code, _, err = run(capsys, "chartable", "--group", "cyclic:3000000")
    assert code == 2
    assert "abelian character tables limited to order" in err


def test_table_group_roundtrip_via_cli(capsys, tmp_path):
    s3 = make_symmetric(3)
    path = tmp_path / "s3table.txt"
    export_cayley_table(s3, path)
    code, out, _ = run(capsys, "alpha", "--group", f"table:{path}",
                       "--connection", "classes:2")
    assert code == 0
    assert "alpha = 2" in out


def test_usage_error_exit_code(capsys):
    assert run(capsys, "theta", "--group", "sym:3")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


@pytest.mark.parametrize("argv", [
    ("bochner", "--group", "sym:3", "--function", "{tmp}/not_class.json"),
    ("bochner", "--group", "sym:3", "--function", "{tmp}/broken.json"),
    ("bochner", "--group", "cyclic:7", "--function", "{tmp}/nan.json"),
    ("bochner", "--group", "cyclic:7", "--function", "{tmp}/inf.json"),
    ("bochner", "--group", "cyclic:7", "--function", "{tmp}/1e400.json"),
    ("bochner", "--group", "cyclic:7", "--function", "{tmp}/nan_pair.json"),
    ("bochner", "--group", "cyclic:7", "--function", "{tmp}/huge.json"),
    ("theta", "--group", "sym:x", "--connection", "efp:1"),
    ("theta", "--group", "sym:3", "--connection", "efp:x"),
    ("theta", "--group", "sym:3", "--connection", "classes:1,a"),
    ("alpha", "--group", "gl:2", "--connection", "empty"),
    ("theta", "--group", "sym:3", "--connection", "efp:1",
     "--chartable", "{tmp}"),
    ("alpha", "--graph", "{tmp}/bad_header.txt"),
    ("alpha", "--graph", "{tmp}/bad_edge.txt"),
    ("alpha", "--group", "table:{tmp}/bad_table.txt", "--connection",
     "empty"),
    ("alpha", "--group", "table:{tmp}/huge_table.txt", "--connection",
     "empty"),
    ("blowup", "--graph", "{tmp}/path.txt", "--action",
     "{tmp}/huge_action.txt", "--group", "cyclic:2"),
    ("blowup", "--graph", "{tmp}/path.txt", "--action",
     "{tmp}/bad_action.txt", "--group", "cyclic:2"),
    ("bochner", "--group", "cyclic:2", "--function", "{tmp}/ones.json",
     "--irreps", "{tmp}/broken.json"),
    ("chartable", "--group", "sym:3", "--validate", "{tmp}/bad_degrees.json"),
    ("alpha", "--group", "sym:3", "--connection", "efp:1", "--budget", "nan"),
    ("alpha", "--group", "sym:3", "--connection", "efp:1", "--budget", "-1"),
    ("blowup", "--graph", "{tmp}/path.txt", "--action", "{tmp}/action.txt",
     "--group", "cyclic:2", "--alpha", "--budget", "nan"),
    ("blowup", "--graph", "{tmp}/path.txt", "--action", "{tmp}/action.txt",
     "--group", "cyclic:2", "--alpha", "--budget", "-1"),
    ("efp-table", "--nmax", "0"),
    ("efp-table", "--nmax", "-3"),
])
def test_input_errors_exit_2_without_traceback(capsys, tmp_path, argv):
    # a transposition's value differs from the other two in its class
    (tmp_path / "not_class.json").write_text(
        json.dumps(["1", "1", "0", "0", "0", "0"]))
    (tmp_path / "broken.json").write_text('["1", "0"')
    # not finite: NaN passed the positive-type test; JSON reads 1e400 as inf
    for name, value in (("nan", "NaN"), ("inf", "Infinity"),
                        ("1e400", "1e400"), ("nan_pair", "[0, NaN]")):
        (tmp_path / f"{name}.json").write_text(f"[{value}, 0, 0, 0, 0, 0, 0]")
    # a rational beyond a double, which the float Z_7 table cannot take
    (tmp_path / "huge.json").write_text(json.dumps(["1e400"] + ["0"] * 6))
    (tmp_path / "ones.json").write_text('["1", "1"]')
    (tmp_path / "bad_header.txt").write_text("vertices x edges 1\n0 1\n")
    (tmp_path / "bad_edge.txt").write_text("vertices 3 edges 1\n0 1 2\n")
    (tmp_path / "path.txt").write_text("vertices 2 edges 1\n0 1\n")
    (tmp_path / "bad_table.txt").write_text("2\n0 1\n1 a\n")
    (tmp_path / "bad_action.txt").write_text("2 2\n0 1\n1 a\n")
    (tmp_path / "huge_table.txt").write_text(f"2\n0 1\n1 {2 ** 70}\n")
    (tmp_path / "huge_action.txt").write_text(f"2 2\n0 1\n1 {-2 ** 70}\n")
    (tmp_path / "action.txt").write_text("2 2\n0 1\n1 0\n")
    (tmp_path / "bad_degrees.json").write_text(json.dumps(
        {"group_order": 6, "class_sizes": [1, 3, 2], "degrees": ["x"],
         "exact": True, "entries": []}))
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["-1\n0\n", "-2\n0 0 0 0\n"],
                         ids=["order-1", "order-2"])
def test_negative_order_cayley_table_exits_2(capsys, tmp_path, text):
    """A negative order whose square matches the entry count is refused
    as a schema error, not passed on to the reshape."""
    path = tmp_path / "negative.txt"
    path.write_text(text)
    code, _, err = run(capsys, "alpha", "--group", f"table:{path}",
                       "--connection", "empty")
    assert code == 2
    assert err == f"error: negative group order {text.split()[0]} in " \
        f"Cayley table {path}\n"


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_import_sets_one_openblas_thread_unless_set(preset, want):
    """A fresh interpreter that imports the package, as the CLI does,
    gets one OpenBLAS thread by default and keeps a caller's setting."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", "import os, cayley_theta; "
         "print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == want
