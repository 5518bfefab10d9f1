import json

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
    code, _, err = run(capsys, "efp-table", "--nmax", "9")
    assert code == 2
    assert "n_max <= 8" in err


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
