import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayley_theta import simplex
from cayley_theta.cli import cli_dispatch
from cayley_theta.graphs import (CAYLEY_BOUND, Graph, export_action,
                                 export_graph)
from cayley_theta.groups import (GroupAction, export_cayley_table,
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


def test_bochner_prints_a_witness_past_the_digit_limit(capsys, tmp_path):
    """An exact witness of 4,301 digits, more than str() of an int may
    give, is printed by six digits and its power of ten; it once ended
    in a traceback from str(Fraction)."""
    fn = tmp_path / "huge_negative.json"
    fn.write_text(json.dumps(["-1e4300"] + ["0"] * 5))
    code, out, err = run(capsys, "bochner", "--group", "sym:3",
                         "--function", str(fn))
    assert (code, out, err) == (
        0, "positive-type: no (irrep 0, witness -1.00000e+4300)\n", "")


def test_blowup_command(capsys, tmp_path):
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    gp = tmp_path / "c5.txt"
    export_graph(g, gp)
    z5 = make_abelian_product([5])
    act = GroupAction(z5, [[z5.multiply(a, p) for p in range(5)]
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


_Z3_BOCHNER = ("bochner", "--group", "cyclic:3", "--function",
               "{tmp}/ones3.json")
_Z3_EXPORT = ("export-sdpa", "--formulation", "C", "--group", "cyclic:3",
              "--connection", "classes:1,2", "--out", "{tmp}/c.dat-s")


def _z3_irreps():
    """The irreps file of Z_3: chi_j(x) = exp(2 pi i j x / 3)."""
    return {"degrees": [1, 1, 1],
            "matrices": [[[[[math.cos(t), math.sin(t)]]] for t in
                          (2 * math.pi * j * x / 3 for x in range(3))]
                         for j in range(3)]}


def _malformed_z3_irreps():
    """Irreps files of Z_3, each with one fault: pi_1(2) with an entry
    that is a string pair, a 1-list or a scalar, or a NaN; one irrep
    more, or one fewer, than the degrees; degrees a float and a
    boolean; a boolean in an entry of pi_0(1)."""
    files = {}
    for name, entry in (("string", ["a", 0]), ("pair", [1]), ("scalar", 1),
                        ("nan", [math.nan, 0])):
        files[name] = _z3_irreps()
        files[name]["matrices"][1][2] = [[entry]]
    files["extra"] = _z3_irreps()
    files["extra"]["matrices"].append(files["extra"]["matrices"][0])
    files["missing"] = _z3_irreps()
    del files["missing"]["matrices"][2]
    # once read as degrees (1, 1, 1)
    files["float_degrees"] = {**_z3_irreps(), "degrees": [1.5, 1, True]}
    # pi_0(1) = [[1]] with the 1 a boolean: once accepted as 1
    files["bool"] = _z3_irreps()
    files["bool"]["matrices"][0][1] = [[[True, 0]]]
    return files


_S3_ENTRIES = [[1, -1, 1], [2, 0, -1], [1, 1, 1]]


def _s3_table(exact=True, **fields):
    """The character table file of S_3, exact ("p/q" strings) or float
    ([re, im] pairs), with the given fields replaced."""
    data = {"group_order": 6, "class_sizes": [1, 3, 2],
            "degrees": [1, 2, 1], "irrep_labels": ["[1,1,1]", "[2,1]", "[3]"],
            "exact": exact,
            "entries": [str(v) if exact else [float(v), 0.0]
                        for row in _S3_ENTRIES for v in row]}
    return {**data, **fields}


def _malformed_s3_tables():
    """Character table files of S_3, each with one fault in one field."""
    entries = _s3_table()["entries"]
    return {"entries_5": _s3_table(entries=5),
            "sizes_5": _s3_table(class_sizes=5),
            "sizes_a": _s3_table(class_sizes=["a", 3, 2]),
            "entry_x": _s3_table(entries=["x"] + entries[1:]),
            "entry_1_0": _s3_table(entries=["1/0"] + entries[1:]),
            "labels_5": _s3_table(irrep_labels=5),
            "exact_no": _s3_table(exact="no"),
            "degrees_float": _s3_table(degrees=[1, 2.5, 1])}


@pytest.mark.parametrize("argv", [
    *[("theta", "--group", f"gl:2,{n}", "--connection", "empty")
      for n in (300, 100000, 10 ** 12)],
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
    ("alpha", "--graph", "{tmp}/negative_graph.txt"),
    ("alpha", "--graph", "{tmp}/huge_graph.txt"),
    ("blowup", "--graph", "{tmp}/negative_graph.txt", "--action",
     "{tmp}/action.txt", "--group", "cyclic:2"),
    ("blowup", "--graph", "{tmp}/huge_graph.txt", "--action",
     "{tmp}/action.txt", "--group", "cyclic:2"),
    *[argv + ("--irreps", f"{{tmp}}/irreps_{name}.json")
      for name in ("string", "pair", "scalar", "extra", "missing", "nan")
      for argv in (_Z3_BOCHNER, _Z3_EXPORT)],
    ("chartable", "--group", "sym:3", "--validate", "{tmp}/five.json"),
    _Z3_BOCHNER + ("--irreps", "{tmp}/deep.json"),
    *[("chartable", "--group", "sym:3", "--validate",
       f"{{tmp}}/table_{name}.json") for name in _malformed_s3_tables()],
    *[argv + ("--irreps", "{tmp}/irreps_float_degrees.json")
      for argv in (_Z3_BOCHNER, _Z3_EXPORT)],
    ("bochner", "--group", "cyclic:3", "--function", "{tmp}/deep.json"),
    ("bochner", "--group", "cyclic:3", "--function", "{tmp}/zero_den.json"),
    ("bochner", "--group", "cyclic:2", "--function", "{tmp}/bool.json"),
    *[argv + ("--irreps", "{tmp}/irreps_bool.json")
      for argv in (_Z3_BOCHNER, _Z3_EXPORT)],
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
    # vertex counts refused before the n x n array is allocated
    (tmp_path / "negative_graph.txt").write_text("vertices -3 edges 0\n")
    (tmp_path / "huge_graph.txt").write_text("vertices 3000000 edges 0\n")
    (tmp_path / "path.txt").write_text("vertices 2 edges 1\n0 1\n")
    (tmp_path / "bad_table.txt").write_text("2\n0 1\n1 a\n")
    (tmp_path / "bad_action.txt").write_text("2 2\n0 1\n1 a\n")
    (tmp_path / "huge_table.txt").write_text(f"2\n0 1\n1 {2 ** 70}\n")
    (tmp_path / "huge_action.txt").write_text(f"2 2\n0 1\n1 {-2 ** 70}\n")
    (tmp_path / "action.txt").write_text("2 2\n0 1\n1 0\n")
    (tmp_path / "bad_degrees.json").write_text(json.dumps(
        {"group_order": 6, "class_sizes": [1, 3, 2], "degrees": ["x"],
         "exact": True, "entries": []}))
    (tmp_path / "ones3.json").write_text('["1", "1", "1"]')
    (tmp_path / "five.json").write_text("5")    # JSON, but not an object
    (tmp_path / "deep.json").write_text("[" * 10 ** 5 + "]" * 10 ** 5)
    for name, data in _malformed_z3_irreps().items():
        (tmp_path / f"irreps_{name}.json").write_text(json.dumps(data))
    for name, data in _malformed_s3_tables().items():
        (tmp_path / f"table_{name}.json").write_text(json.dumps(data))
    (tmp_path / "zero_den.json").write_text('["1/0", "0", "0"]')
    # once read as 1: "positive-type: yes"
    (tmp_path / "bool.json").write_text("[true, 0]")
    start = time.monotonic()
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    # gl:2,100000 once computed |GL(100000, F_2)| before refusing it
    assert time.monotonic() - start < 1
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


_COUNT = st.one_of(st.integers(-3, 12),
                   st.sampled_from([CAYLEY_BOUND + 1, 3_000_000, 10 ** 12]))
_TOKEN = st.one_of(st.integers(-2, 14).map(str),
                   st.sampled_from(["x", "1.5", "-", "0x3", "1e3", "edges"]))


def mostly(good, bad):
    """``good`` three times in four, else ``bad``."""
    return st.sampled_from(range(4)).flatmap(
        lambda i: bad if i == 3 else good)


@st.composite
def _graph_files(draw):
    """Graph file text: headers well formed or not, with counts small,
    negative or huge; edge lines with self-loops, vertices out of range,
    ragged or extra fields and non-integers; edge counts that match the
    edge lines or not.  Most parts are drawn well formed, so that some
    files are accepted."""
    n = draw(mostly(st.integers(0, 12), _COUNT))
    top = min(max(n, 1), 13)
    vertex = mostly(st.integers(0, top - 1), st.sampled_from([-1, 13]))
    lines = draw(st.lists(mostly(
        st.tuples(vertex, vertex).map(lambda e: f"{e[0]} {e[1]}"),
        st.lists(_TOKEN, max_size=4).map(" ".join)), max_size=12))
    k = draw(mostly(st.just(sum(1 for line in lines if line.strip())),
                    _COUNT))
    return "\n".join([draw(mostly(
        st.just(f"vertices {n} edges {k}"),
        st.sampled_from([f"vertices {n}", f"vertices {n} edges {k} 0",
                         f"edges {k} vertices {n}", f"vertices x edges {k}",
                         ""])))] + lines) + "\n"


@given(text=_graph_files())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_graph_files_fuzzed_through_the_cli(tmp_path_factory, text):
    """``alpha --graph`` and ``blowup --graph`` (Z_3 rotating 3 points)
    exit 0-3 on every file, with no exception out of cli_dispatch; an
    accepted graph has at most 12 vertices."""
    base = tmp_path_factory.getbasetemp()
    graph, action = base / "fuzz_graph.txt", base / "fuzz_action.txt"
    graph.write_text(text)
    action.write_text("3 3\n0 1 2\n1 2 0\n2 0 1\n")
    assert cli_dispatch(["alpha", "--graph", str(graph)]) in (0, 1, 2, 3)
    assert cli_dispatch(["blowup", "--graph", str(graph), "--action",
                         str(action), "--group", "cyclic:3",
                         "--alpha"]) in (0, 1, 2, 3)


_FIELD = mostly(st.integers(0, 9).map(str), st.one_of(_TOKEN, st.sampled_from(
    ["", "-1", "99", "5000", str(10 ** 12), "7" * 4301])))


@st.composite
def _spec(draw, kinds):
    """A spec of one of the kinds (prefix, field count; None: any count),
    mostly with the count of fields it takes, each drawn by _FIELD."""
    prefix, count = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 4) if count is None else
             mostly(st.just(count), st.integers(0, 3)))
    return prefix + ",".join(draw(_FIELD) for _ in range(n))


_GROUP_SPECS = _spec([("sym:", 1), ("cyclic:", None), ("gl:", 2)])
_CONNECTION_SPECS = _spec([("efp:", 1), ("gl-rank:", 1), ("classes:", None),
                           ("empty", 0)])


@given(group=_GROUP_SPECS, connection=_CONNECTION_SPECS)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_group_and_connection_specs_fuzzed_through_the_cli(group,
                                                           connection):
    """``theta`` and ``alpha`` (budget 0.05 s) exit 0-3 on every pair of
    group and connection specs, with no exception out of cli_dispatch."""
    argv = ["--group", group, "--connection", connection]
    assert cli_dispatch(["theta", *argv]) in (0, 1, 2, 3)
    assert cli_dispatch(["alpha", *argv, "--budget", "0.05"]) in (0, 1, 2, 3)


def _faulty_rows(draw, rows) -> list:
    """The lines of a table of integers with up to three faults: an entry
    replaced by a drawn token (which may be out of range), two adjacent
    entries of a row swapped, a row dropped, repeated or cut short, or
    two lines joined."""
    rows = [[str(v) for v in row] for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        row = rows[r]
        fault = draw(st.sampled_from(
            ["entry", "swap", "drop", "repeat", "cut", "join"]))
        if fault == "entry" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_TOKEN)
        elif fault == "swap" and len(row) > 1:
            i = draw(st.integers(0, len(row) - 2))
            row[i], row[i + 1] = row[i + 1], row[i]
        elif fault == "drop" and len(rows) > 1:
            del rows[r]
        elif fault == "repeat":
            rows.insert(r, list(row))
        elif fault == "cut":
            del row[draw(st.integers(0, len(row))):]
        elif fault == "join" and r + 1 < len(rows):
            row += rows.pop(r + 1)
    return [" ".join(row) for row in rows]


@st.composite
def _action_files(draw):
    """Action table files of S_3 on 3 points: the natural action with
    ``_faulty_rows``'s faults, under a header "ORDER POINTS" drawn well
    formed or with counts small, negative or huge, or fields missing or
    extra."""
    s3 = make_symmetric(3)
    lines = _faulty_rows(draw, [s3.perm(g) for g in range(s3.order)])
    order, points = draw(mostly(st.just(6), _COUNT)), \
        draw(mostly(st.just(3), _COUNT))
    header = draw(mostly(st.just(f"{order} {points}"), st.sampled_from(
        [f"{order}", f"{order} {points} 0", f"x {points}", ""])))
    return "\n".join([header] + lines) + "\n"


@given(text=_action_files())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_action_files_fuzzed_through_the_cli(tmp_path_factory, text):
    """``blowup --action`` of S_3 on the triangle exits 0-3 on every
    action file, with no exception out of cli_dispatch."""
    base = tmp_path_factory.getbasetemp()
    graph, action = base / "fuzz_triangle.txt", base / "fuzz_action.txt"
    graph.write_text("vertices 3 edges 3\n0 1\n1 2\n0 2\n")
    action.write_text(text)
    assert cli_dispatch(["blowup", "--graph", str(graph), "--action",
                         str(action), "--group", "sym:3",
                         "--alpha"]) in (0, 1, 2, 3)


@st.composite
def _cayley_table_files(draw):
    """Cayley table files: the table of S_3 with ``_faulty_rows``'s
    faults, under an order line drawn well formed or with a count small,
    negative or huge, or an extra field."""
    s3 = make_symmetric(3)
    elements = np.arange(s3.order)
    lines = _faulty_rows(draw, s3.products(elements[:, None], elements))
    order = draw(mostly(st.just(6), _COUNT))
    header = draw(mostly(st.just(f"{order}"), st.sampled_from(
        [f"{order} {order}", "x", ""])))
    return "\n".join([header] + lines) + "\n"


@given(text=_cayley_table_files())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cayley_table_files_fuzzed_through_the_cli(tmp_path_factory, text):
    """``alpha --group table:FILE`` exits 0-3 on every Cayley table file,
    with no exception out of cli_dispatch."""
    path = tmp_path_factory.getbasetemp() / "fuzz_cayley.txt"
    path.write_text(text)
    assert cli_dispatch(["alpha", "--group", f"table:{path}",
                         "--connection", "empty"]) in (0, 1, 2, 3)


def test_irreps_file_short_of_an_irrep_exits_2(capsys, tmp_path):
    """Lists for two of Z_3's three degrees once answered "yes" for a
    function whose third Fourier coefficient is -1, and ended export in
    an IndexError; the full file answers "no" at irrep 2."""
    function, irreps = tmp_path / "f.json", tmp_path / "irreps.json"
    root3 = math.sqrt(3) / 3
    function.write_text(json.dumps([[1 / 3, 0], [1 / 3, -root3],
                                    [1 / 3, root3]]))
    bochner = ("bochner", "--group", "cyclic:3", "--function", str(function),
               "--irreps", str(irreps))
    irreps.write_text(json.dumps(_z3_irreps()))
    code, out, _ = run(capsys, *bochner)
    assert code == 0 and out.startswith("positive-type: no (irrep 2, ")
    irreps.write_text(json.dumps(_malformed_z3_irreps()["missing"]))
    want = "error: irrep 2: 2 irreps given for 3 degrees\n"
    assert run(capsys, *bochner) == (2, "", want)
    export = [a.format(tmp=tmp_path) for a in _Z3_EXPORT]
    assert run(capsys, *export, "--irreps", str(irreps)) == (2, "", want)


_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
              st.sampled_from([0.5, math.nan, math.inf, 1e300, 2 ** 70,
                               "a", "1"])),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@st.composite
def _irreps_files(draw):
    """Irreps files of Z_3: the good file with up to three faults, each
    in a list at some depth below "matrices" (an irrep's list, a matrix,
    a row, a pair): an item dropped, repeated or replaced by drawn JSON.
    At times the degrees are drawn too, a field is dropped, or the whole
    file is drawn.  A file drawn with no fault is accepted."""
    data = _z3_irreps()
    for _ in range(draw(st.integers(0, 3))):
        node = data["matrices"]
        for _ in range(draw(st.integers(0, 4))):
            item = node[draw(st.integers(0, len(node) - 1))]
            if not (isinstance(item, list) and item):
                break
            node = item
        i = draw(st.integers(0, len(node) - 1))
        fault = draw(st.sampled_from(["drop", "repeat", "replace"]))
        if fault == "drop" and len(node) > 1:
            del node[i]
        elif fault == "repeat":
            node.append(node[i])
        else:
            node[i] = draw(_JUNK)
    if draw(st.integers(0, 4)) == 4:
        data["degrees"] = draw(st.lists(st.one_of(
            st.integers(-1, 3), st.sampled_from(["x", 1.5, None])),
            max_size=4))
    if draw(st.integers(0, 9)) == 9:
        del data[draw(st.sampled_from(["degrees", "matrices"]))]
    return draw(_JUNK) if draw(st.integers(0, 19)) == 19 else data


@given(data=_irreps_files())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_irreps_files_fuzzed_through_the_cli(tmp_path_factory, data):
    """``bochner --irreps`` and ``export-sdpa --formulation C`` on Z_3
    exit 0-3 on every irreps file, with no exception out of
    cli_dispatch."""
    base = tmp_path_factory.getbasetemp()
    irreps = base / "fuzz_irreps.json"
    irreps.write_text(json.dumps(data))
    (base / "ones3.json").write_text('["1", "1", "1"]')
    for argv in (_Z3_BOCHNER, _Z3_EXPORT):
        argv = [a.format(tmp=base) for a in argv] + ["--irreps", str(irreps)]
        assert cli_dispatch(argv) in (0, 1, 2, 3)


_TABLE_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 7),
              st.sampled_from([0.5, 2.5, math.nan, math.inf, 1e300, 2 ** 70,
                               "a", "1", "-1", "1/0", "2/4", "1e5", "",
                               [1.0, 0.0], [0.0, True]])),
    lambda inner: st.lists(inner, max_size=4), max_leaves=8)
# well-formed entries of either kind, which the table checks must refuse
_ENTRIES = st.sampled_from(["0", "1", "-1", "2", "1/2", 1.0, [0.0, 1.0],
                            [-1.0, 0.0], [1.0, 1e-12]])


@st.composite
def _table_files(draw):
    """Character table files of S_3, exact or float, with up to three
    faults: a field replaced by drawn JSON, or an item of a list field
    (or of an entry's [re, im] pair) dropped, repeated or replaced.
    Most faults are in the entries, so that most files reach the entry
    parse and the table checks.  At times a field is dropped, or the
    whole file is drawn.  Returns the file and whether it was drawn
    with no fault."""
    data = _s3_table(exact=draw(st.booleans()))
    faults = draw(st.integers(0, 3))
    for _ in range(faults):
        key = draw(st.sampled_from(["entries"] * 6 + sorted(data)))
        node = data[key]
        if not (isinstance(node, list) and node) or \
                draw(st.integers(0, 3)) == 3:
            data[key] = draw(_TABLE_JUNK)
            continue
        node = data[key] = list(node)
        i = draw(st.integers(0, len(node) - 1))
        if isinstance(node[i], list) and node[i] and draw(st.booleans()):
            node[i] = list(node[i])
            node, i = node[i], draw(st.integers(0, len(node[i]) - 1))
        fault = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if fault == "drop":
            del node[i]
        elif fault == "repeat":
            node.append(node[i])
        else:
            node[i] = draw(st.one_of(_ENTRIES, _TABLE_JUNK))
    if draw(st.integers(0, 9)) == 9:
        del data[draw(st.sampled_from(sorted(data)))]
        faults += 1
    if draw(st.integers(0, 19)) == 19:
        return draw(_TABLE_JUNK), False
    return data, faults == 0


@given(drawn=_table_files())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_table_files_fuzzed_through_the_cli(tmp_path_factory, drawn):
    """``chartable --validate`` and ``theta --chartable`` on S_3 exit 0-3
    on every character table file, with no exception out of
    cli_dispatch; a file drawn with no fault is accepted."""
    data, good = drawn
    path = tmp_path_factory.getbasetemp() / "fuzz_table.json"
    path.write_text(json.dumps(data))
    for argv in (["chartable", "--group", "sym:3", "--validate", str(path)],
                 ["theta", "--group", "sym:3", "--connection", "efp:1",
                  "--chartable", str(path)]):
        code = cli_dispatch(argv)
        assert code in ((0,) if good else (0, 1, 2, 3))


_VALUE = st.one_of(st.sampled_from(["1", "0", "1/2", "-1/3", 0.5, [0.5, 0.0],
                                   [0.0, -1.0]]), _TABLE_JUNK)


@given(values=st.one_of(
    st.sampled_from([3, 6]).flatmap(
        lambda n: st.lists(_VALUE, min_size=n, max_size=n)), _TABLE_JUNK))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_function_files_fuzzed_through_the_cli(tmp_path_factory, values):
    """``bochner --function`` on Z_3 (a float table) and on S_3 (an
    exact one, which needs a class function) exits 0-3 on every
    function file, with no exception out of cli_dispatch."""
    path = tmp_path_factory.getbasetemp() / "fuzz_function.json"
    path.write_text(json.dumps(values))
    for group in ("cyclic:3", "sym:3"):
        assert cli_dispatch(["bochner", "--group", group, "--function",
                             str(path)]) in (0, 1, 2, 3)


def test_exact_table_entries_are_rational_strings(capsys, tmp_path):
    """An exact entry takes the exported "p" or "p/q" form: "1e5" was
    read by Fraction(), which builds 10^k for "1ek" (10 s at k = 10^7),
    and "1/0" raised ZeroDivisionError."""
    entries = _s3_table()["entries"]
    for value in ("1e5", "1/0", " 1", "1.0"):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(_s3_table(entries=[value] + entries[1:])))
        assert run(capsys, "chartable", "--group", "sym:3", "--validate",
                   str(path)) == \
            (2, "", f"error: bad exact entry {value!r} in entries\n")


def test_bochner_witness_on_a_real_float_table(capsys, tmp_path):
    """A float S_3 table is real, so the Fourier scalars of a rational
    function on it are floats, and the witness prints as one: f(e) = 1
    and f = 1/2 on transpositions give 1 - 3/2 on the sign irrep.  The
    same values as JSON numbers print the same; a JSON float was once
    read as a complex, and printed (-0.5+0j)."""
    group = make_symmetric(3)
    table, function = tmp_path / "table.json", tmp_path / "f.json"
    table.write_text(json.dumps(_s3_table(exact=False)))
    for one, half in (("1", "1/2"), (1, 0.5)):
        values = [{0: one, 1: half}.get(group.class_index_of(g), 0)
                  for g in range(group.order)]
        function.write_text(json.dumps(values))
        assert run(capsys, "bochner", "--group", "sym:3", "--function",
                   str(function), "--chartable", str(table)) == \
            (0, "positive-type: no (irrep 0, witness -0.5)\n", "")


def test_function_value_exponents_are_bounded(capsys, tmp_path):
    """Fraction("1e10000000") builds 10^(10^7) and once stalled
    ``bochner`` for 9.8 s; an exponent beyond EXPONENT_BOUND (4300) is
    refused before Fraction sees it, and one at the bound is taken
    exactly."""
    fn = tmp_path / "f.json"
    for value, code in (("1e10000000", 2), ("1e-4301", 2), ("1e4300", 0),
                        ("-2.5E-4300", 0)):
        fn.write_text(json.dumps([value] + ["0"] * 5))
        started = time.monotonic()
        got, out, err = run(capsys, "bochner", "--group", "sym:3",
                            "--function", str(fn))
        assert time.monotonic() - started < 1
        assert got == code, (value, out, err)
        if code == 2:
            assert err.startswith("error: malformed function file: value 0")


def test_huge_abelian_group_exits_2_before_its_classes():
    """``theta`` on Z_10^8 once made one singleton class per element
    before any size bound refused it (Z_10^6: about 6 s, 430 MB).  Now its
    classes are refused before any is made.  The child runs with 1 GB
    of address space and 30 s at most."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(
        Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "cayley_theta.cli", "theta", "--group",
         "cyclic:100000000", "--connection", "empty"],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=limit)
    assert (out.returncode, out.stderr) == (2, (
        "error: conjugacy-class computation limited to order 10000, got "
        "100000000\n"))


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


def test_cli_import_leaves_hashlib_unloaded():
    """Only the --json report of ``theta`` digests files, so importing the
    CLI does not load hashlib (and with it OpenSSL); numpy alone does
    not load it either."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; a = 'hashlib' in "
         "sys.modules; import cayley_theta.cli; "
         "print(a, 'hashlib' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False"]
