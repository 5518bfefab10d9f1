"""Command-line interface.

Exit codes: 0 success, 1 numerical failure (a float computation
stalled, or no exact route proved an answer), 2 invalid input, 3 time
budget exhausted (partial results are still printed).

Group specs:       sym:N | cyclic:M1[,M2,...] | gl:Q,N | table:FILE
Connection specs:  efp:K | gl-rank:K | classes:I,J,... | elements:FILE
                   | empty
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .apps import (efp_connection, efp_table, efp_table_csv, efp_table_grid,
                   gl_connection)
from .characters import (CharacterTable, abelian_character_table,
                         as_float_table, export_character_table,
                         format_real, import_character_table,
                         import_function, import_irreps, is_positive_type,
                         symmetric_character_table)
from .errors import InvalidArgument, NumericalFailure
from .graphs import (ConnectionSet, alpha, build_cayley, blowup_connection,
                     import_action_table, import_graph)
from .groups import (AbelianProductGroup, GeneralLinearGroup, SymmetricGroup,
                     import_cayley_table, make_abelian_product,
                     make_general_linear, make_symmetric, parse_ints)
from .theta import (CayleyGraphSpec, build_sdp_A, build_sdp_C,
                    certificate_to_json, export_sdpa, solve_theta)

USAGE_ERROR = 2
BUDGET_ERROR = 3


def _digest(path):
    import hashlib      # loads OpenSSL; only the --json report needs it
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _ints(spec, tokens, count=None):
    """The tokens of a spec as integers, ``count`` of them if given."""
    return parse_ints(tokens, f"spec {spec!r}", count)


def parse_group(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "sym":
        return make_symmetric(*_ints(spec, [rest], 1))
    if kind == "cyclic":
        return make_abelian_product(_ints(spec, rest.split(",")))
    if kind == "gl":
        return make_general_linear(*_ints(spec, rest.split(","), 2))
    if kind == "table":
        return import_cayley_table(rest)
    raise InvalidArgument(f"unknown group spec {spec!r}")


def parse_connection(spec: str, group):
    kind, _, rest = spec.partition(":")
    if kind == "efp":
        if not isinstance(group, SymmetricGroup):
            raise InvalidArgument("efp connection sets need a sym: group")
        return efp_connection(group.n, *_ints(spec, [rest], 1), group)
    if kind == "gl-rank":
        if not isinstance(group, GeneralLinearGroup):
            raise InvalidArgument("gl-rank connection sets need a gl: group")
        return gl_connection(group.q, group.n, *_ints(spec, [rest], 1),
                             group)
    if kind == "classes":
        return ConnectionSet.from_classes(
            group, _ints(spec, rest.split(",")))
    if kind == "elements":
        with open(rest) as fh:
            tokens = fh.read().replace(",", " ").split()
        return ConnectionSet.from_elements(group, _ints(spec, tokens))
    if kind == "empty":
        return ConnectionSet.from_classes(group, [])
    raise InvalidArgument(f"unknown connection spec {spec!r}")


def default_table(group, chartable_path=None) -> CharacterTable:
    if chartable_path:
        return import_character_table(chartable_path, group)
    if isinstance(group, SymmetricGroup):
        return symmetric_character_table(group.n)
    if isinstance(group, AbelianProductGroup):
        return abelian_character_table(group)
    raise InvalidArgument(
        "this group kind needs an imported character table "
        "(pass --chartable FILE)")


def _report(args, mode, results, started, inputs=()):
    return {
        "schema": 1,
        "version": __version__,
        "command": " ".join(args.argv),
        "mode": mode,
        "input_digests": {p: _digest(p) for p in inputs},
        "results": results,
        "runtime_ms": (time.monotonic() - started) * 1000,
    }


def cmd_theta(args):
    started = time.monotonic()
    group = parse_group(args.group)
    conn = parse_connection(args.connection, group)
    table = default_table(group, args.chartable)
    if args.exact and not table.exact:
        raise InvalidArgument(
            "exact mode requested but the character table is approximate")
    if args.float_mode:
        table = as_float_table(table)
    spec = CayleyGraphSpec(group, conn)
    cert = solve_theta(spec, table)
    if cert.exact:
        print(f"theta = {format_real(cert.objective)} (exact)")
    else:
        print(f"theta ≈ {float(cert.objective):.7f}")
    if args.json:
        results = json.loads(certificate_to_json(cert))
        report = _report(args, "exact" if cert.exact else "float",
                         results, started,
                         inputs=[p for p in (args.chartable,) if p])
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


def cmd_alpha(args):
    if args.graph:
        graph = import_graph(args.graph)
    else:
        if not (args.group and args.connection):
            raise InvalidArgument("need --graph or --group/--connection")
        group = parse_group(args.group)
        conn = parse_connection(args.connection, group)
        graph = build_cayley(group, conn)
    result = alpha(graph, time_budget=args.budget)
    if result.exact:
        print(f"alpha = {result.lower}")
        return 0
    print(f"alpha in [{result.lower}, {result.upper}] (budget exhausted)")
    return BUDGET_ERROR


def cmd_efp_table(args):
    cells = efp_table(args.nmax)
    for c in cells:
        mark = "ok" if c.checkmark else "GAP"
        print(f"n={c.n} k={c.k} theta={format_real(c.theta)} "
              f"conjectured={c.conjectured_max} {mark} "
              f"({c.runtime_ms:.0f} ms)")
    print(efp_table_grid(cells), end="")
    if args.csv:
        efp_table_csv(cells, args.csv)
    return 0


def cmd_export_sdpa(args):
    group = parse_group(args.group)
    conn = parse_connection(args.connection, group)
    spec = CayleyGraphSpec(group, conn)
    if args.formulation == "A":
        instance = build_sdp_A(spec)
    else:
        if not args.irreps:
            raise InvalidArgument("formulation C needs --irreps FILE")
        instance = build_sdp_C(spec, import_irreps(args.irreps, group))
    export_sdpa(instance, args.out)
    print(f"wrote {args.out}: {len(instance.block_sizes)} block(s) "
          f"{list(instance.block_sizes)}, "
          f"{len(instance.rhs)} constraint(s)")
    return 0


def cmd_chartable(args):
    group = parse_group(args.group)
    if args.validate:
        table = import_character_table(args.validate, group)
        print(f"ok: {len(table.degrees)} irreps, "
              f"{'exact' if table.exact else 'approximate'}")
        return 0
    table = default_table(group, None)
    if args.out:
        export_character_table(table, args.out)
        print(f"wrote {args.out}")
    else:
        for label, row in zip(table.irrep_labels, table.entries.tolist()):
            print(label, " ".join(str(v) for v in row))
    return 0


def cmd_bochner(args):
    group = parse_group(args.group)
    f = import_function(args.function, group)
    rep = import_irreps(args.irreps, group) if args.irreps else \
        default_table(group, args.chartable)
    result = is_positive_type(f, rep)
    if result.ok:
        print("positive-type: yes")
    else:
        print(f"positive-type: no (irrep {result.irrep}, "
              f"witness {_witness_text(result.witness)})")
    return 0


def _witness_text(x) -> str:
    """str(x), or for an exact value with more digits than str() may
    give, six of its digits and its power of ten."""
    try:
        return str(x)
    except ValueError:
        p, q = abs(x.numerator), x.denominator
        # about log10|x|; int / int rounds correctly at any size
        e = int((p.bit_length() - q.bit_length()) * math.log10(2))
        m = p / (q * 10 ** e) if e >= 0 else p * 10 ** -e / q
        digits, power = f"{m:.5e}".split("e")
        return f"{'-' if x < 0 else ''}{digits}e{int(power) + e:+d}"


def cmd_blowup(args):
    graph = import_graph(args.graph)
    group = parse_group(args.group)
    action = import_action_table(args.action, group)
    conn = blowup_connection(action, graph, base_point=args.base)
    print("connection set:", " ".join(str(e) for e in conn.elements))
    if args.alpha:
        cayley = build_cayley(group, conn)
        result = alpha(cayley, time_budget=args.budget)
        if result.exact:
            print(f"alpha(blowup) = {result.lower}")
        else:
            print(f"alpha(blowup) in [{result.lower}, {result.upper}]")
            return BUDGET_ERROR
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cayley-theta",
        description="Exact Lovasz theta numbers of Cayley graphs via the "
                    "character linear program.",
        epilog=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="solve the character LP")
    p.add_argument("--group", required=True)
    p.add_argument("--connection", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--float", dest="float_mode", action="store_true")
    p.add_argument("--chartable", help="imported character table file")
    p.add_argument("--json", help="write a JSON run report")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("alpha", help="exact independence number")
    p.add_argument("--group")
    p.add_argument("--connection")
    p.add_argument("--graph", help="edge-list file instead of a Cayley spec")
    p.add_argument("--budget", type=float, default=None,
                   help="time budget in seconds")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("efp-table",
                       help="theta table for k-intersecting permutations")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_efp_table)

    p = sub.add_parser("export-sdpa", help="export formulation (A) or (C)")
    p.add_argument("--formulation", choices=["A", "C"], required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--connection", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--irreps", help="representation matrices (JSON), "
                                    "required for formulation C")
    p.set_defaults(func=cmd_export_sdpa)

    p = sub.add_parser("chartable", help="compute, export, or validate "
                                         "character tables")
    p.add_argument("--group", required=True)
    p.add_argument("--out")
    p.add_argument("--validate", metavar="FILE")
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("bochner", help="positive-type test for a function")
    p.add_argument("--group", required=True)
    p.add_argument("--function", required=True,
                   help="JSON list of one value per element")
    p.add_argument("--chartable")
    p.add_argument("--irreps")
    p.set_defaults(func=cmd_bochner)

    p = sub.add_parser("blowup", help="connection set of a vertex-"
                                      "transitive blowup")
    p.add_argument("--graph", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--alpha", action="store_true",
                   help="also compute alpha of the blowup")
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(func=cmd_blowup)
    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    args.argv = argv    # the command line of the --json report
    try:
        return args.func(args)
    except (InvalidArgument, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
