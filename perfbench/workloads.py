"""Seeded inputs and the operations of each benchmark workload.

An operation is one call a user of the package makes, through the same
public functions the ``cayley-theta`` commands call:

* ``table``: build the character table of a group;
* ``theta``: make the connection set, then ``solve_theta`` (exact, or in
  doubles through ``as_float_table``);
* ``alpha``: make the group and connection set, then ``build_cayley`` and
  ``alpha``;
* ``sdpa``: make the group and connection set, then ``build_sdp_A`` and
  ``export_sdpa``.

Every call goes through a module attribute (``theta.solve_theta``, not a
name imported here), so the tracer in ``spans.py`` sees it.  The seed
only chooses inputs and their order; the package receives the inputs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from cayley_theta import apps, characters, graphs, groups, theta


@dataclass(frozen=True)
class Op:
    kind: str               # table | theta | alpha | sdpa
    label: str              # the equivalent command line, for reports
    group: tuple            # ("sym", n) | ("cyclic", moduli) | ("gl", q, n)
    connection: tuple = ()  # ("efp", k) | ("gl-rank", k) | ("classes", ids)
                            # | ("elements", ids) | ("empty",)
    exact: bool = True


def _group_spec(group):
    kind = group[0]
    if kind == "cyclic":
        return "cyclic:" + ",".join(str(m) for m in group[1])
    if kind == "gl":
        return f"gl:{group[1]},{group[2]}"
    return f"sym:{group[1]}"


def _connection_spec(connection):
    kind = connection[0]
    if kind == "classes":
        return "classes:" + ",".join(str(c) for c in connection[1])
    if kind == "elements":
        return f"elements:<{len(connection[1])} seeded>"
    if kind == "empty":
        return "empty"
    return f"{kind}:{connection[1]}"


def _table_op(group):
    return Op("table", f"chartable --group {_group_spec(group)}", group)


def _theta_op(group, connection, exact):
    mode = "--exact" if exact else "--float"
    return Op("theta", f"theta --group {_group_spec(group)} --connection "
              f"{_connection_spec(connection)} {mode}", group, connection,
              exact)


def _alpha_op(group, connection):
    return Op("alpha", f"alpha --group {_group_spec(group)} --connection "
              f"{_connection_spec(connection)}", group, connection)


# ---------------------------------------------------------------------------
# workloads

def efp_grid(rng):
    """Theta for every efp:k on S_8, exact and float, and on S_9 and
    S_10, float only; the seed sets only the order of the cells."""
    ops = [_table_op(("sym", n)) for n in (8, 9, 10)]
    cells = [(8, k, exact) for k in range(1, 9) for exact in (True, False)]
    cells += [(n, k, False) for n in (9, 10) for k in range(1, n + 1)]
    rng.shuffle(cells)
    ops += [_theta_op(("sym", n), ("efp", k), exact)
            for n, k, exact in cells]
    return ops


# Fixed connection sets: how long a wide LP takes depends on the set by
# up to 2.5x, so a set drawn per seed would make runs of one code
# differ by their seeds.  The 12-class set on Z_701 is one whose float
# certificate ``simplex.verify_certificate`` rejects (a known defect,
# kept visible); the Z_2^7 set was drawn once with random.Random(0).
Z701_SETS = ((1, 700), (208, 210, 289, 323, 328, 350, 351, 373, 378, 412,
                        491, 493))
Z2_7_SET = (6, 34, 50, 52, 54, 63, 66, 98, 109, 114, 118, 124)


def abelian_wide(rng):
    """Float theta on Z_701 (the cycle and a 12-class set) and exact
    theta on Z_2^7 (a 12-class set); every class is a single element.
    The seed sets only the order of the solves."""
    z701, z2_7 = ("cyclic", (701,)), ("cyclic", (2,) * 7)
    solves = [_theta_op(z701, ("classes", s), False) for s in Z701_SETS]
    solves.append(_theta_op(z2_7, ("classes", Z2_7_SET), True))
    rng.shuffle(solves)
    return [_table_op(z701), _table_op(z2_7)] + solves


SDPA_ELEMENTS = 120


def _inverse_closed_set(rng, group, size):
    """A seeded inverse-closed, identity-free set of exactly ``size``
    elements that is not a union of conjugacy classes."""
    while True:
        chosen = set()
        while len(chosen) < size:
            x = rng.randrange(1, group.order)
            pair = {x, group.invert(x)}
            if len(chosen | pair) <= size:
                chosen |= pair
        elements = tuple(sorted(chosen))
        if not graphs.ConnectionSet.from_elements(
                group, elements).conjugation_closed:
            return elements


def cayley_graph(rng):
    """Cayley graphs built and searched: alpha on S_6 efp:2, GL(2,5)
    gl-rank:1 and Z_1500 empty, and the formulation-(A) SDPA export of
    S_6 with a seeded inverse-closed set that is not conjugation-closed.
    The seed chooses only that set."""
    s6 = ("sym", 6)
    elements = _inverse_closed_set(rng, groups.make_symmetric(6),
                                   SDPA_ELEMENTS)
    return [
        _alpha_op(s6, ("efp", 2)),
        _alpha_op(("gl", 5, 2), ("gl-rank", 1)),
        Op("sdpa", "export-sdpa --formulation A --group sym:6 --connection "
           f"elements:<{SDPA_ELEMENTS} seeded>", s6, ("elements", elements)),
        _alpha_op(("cyclic", (1500,)), ("empty",)),
    ]


WORKLOADS = {"efp_grid": efp_grid, "abelian_wide": abelian_wide,
             "cayley_graph": cayley_graph}


def make_ops(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(seed))


# ---------------------------------------------------------------------------
# running one operation

def _make_group(group):
    kind = group[0]
    if kind == "sym":
        return groups.make_symmetric(group[1])
    if kind == "cyclic":
        return groups.make_abelian_product(group[1])
    return groups.make_general_linear(group[1], group[2])


def _make_connection(group, connection):
    kind = connection[0]
    if kind == "efp":
        return apps.efp_connection(group.n, connection[1], group)
    if kind == "gl-rank":
        return apps.gl_connection(group.q, group.n, connection[1], group)
    if kind == "classes":
        return graphs.ConnectionSet.from_classes(group, connection[1])
    if kind == "elements":
        return graphs.ConnectionSet.from_elements(group, connection[1])
    return graphs.ConnectionSet.from_classes(group, [])


def run_op(op: Op, tables: dict, out_dir: str):
    """Run one operation; returns what its check needs.  ``tables``
    carries the character tables built by earlier ``table`` operations
    of the same pass."""
    if op.kind == "table":
        if op.group[0] == "sym":
            table = characters.symmetric_character_table(op.group[1])
        else:
            table = characters.abelian_character_table(
                _make_group(op.group))
        tables[op.group] = table
        return table
    if op.kind == "theta":
        table = tables[op.group]
        group = table.group
        connection = _make_connection(group, op.connection)
        if not op.exact:
            table = characters.as_float_table(table)
        spec = theta.CayleyGraphSpec(group, connection)
        return spec, table, theta.solve_theta(spec, table)
    group = _make_group(op.group)
    connection = _make_connection(group, op.connection)
    if op.kind == "alpha":
        graph = graphs.build_cayley(group, connection)
        return group, connection, graphs.alpha(graph)
    instance = theta.build_sdp_A(theta.CayleyGraphSpec(group, connection))
    path = os.path.join(out_dir, "formulation_A.dat-s")
    theta.export_sdpa(instance, path)
    return instance, path
