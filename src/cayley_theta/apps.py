"""The two applications: k-intersecting permutations and k-intersecting
invertible matrices.

A family of permutations is k-intersecting iff it is independent in
Cay(S_n, X_{n,k}) where X_{n,k} collects the permutations with fewer
than k fixed points; the conjectured extremal size is the largest count
of permutations fixing at least k+i of the first k+2i letters.  The
matrix analog thresholds rank(A - I).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .characters import (CharacterTable, format_real,
                         symmetric_character_table)
from .errors import InvalidArgument
from .graphs import ConnectionSet
from .groups import GeneralLinearGroup, SymmetricGroup, partitions
from .linalg import is_exact
from .theta import CayleyGraphSpec, solve_theta


# ---------------------------------------------------------------------------
# k-intersecting permutations

def efp_connection(n: int, k: int, group: SymmetricGroup) -> ConnectionSet:
    """X_{n,k}: union of the S_n classes whose cycle type has fewer than
    k fixed points (parts equal to 1)."""
    if not 1 <= k <= n:
        raise InvalidArgument(f"need 1 <= k <= n, got k={k}, n={n}")
    if group.n != n:
        raise InvalidArgument("supplied group is not S_n for this n")
    class_indices = [
        i for i, mu in enumerate(partitions(n))
        if sum(1 for p in mu if p == 1) < k]
    return ConnectionSet.from_classes(group, class_indices)


def _derangement_like(r: int, u: int) -> int:
    """Permutations of r elements fixing none of u marked points."""
    return sum((-1) ** j * comb(u, j) * factorial(r - j)
               for j in range(u + 1))


def count_fixing_at_least(n: int, s: int, m: int) -> int:
    """#{sigma in S_n : sigma fixes at least m points of {1..s}},
    by inclusion-exclusion over the exact number of fixed points."""
    return sum(comb(s, t) * _derangement_like(n - t, s - t)
               for t in range(m, s + 1))


def efp_conjectured_max(n: int, k: int) -> int:
    """Largest of the candidate families: permutations with at least k+i
    fixed points among the first k+2i letters, over 0 <= i <= (n-k)/2.
    Equals (n-k)! whenever n >= 2k+1."""
    if not 1 <= k <= n:
        raise InvalidArgument(f"need 1 <= k <= n, got k={k}, n={n}")
    return max(count_fixing_at_least(n, k + 2 * i, k + i)
               for i in range((n - k) // 2 + 1))


@dataclass(frozen=True)
class EfpCell:
    n: int
    k: int
    theta: object
    conjectured_max: int
    checkmark: bool
    lp_rows: int
    lp_cols: int
    runtime_ms: float

    @property
    def exact(self) -> bool:
        return is_exact(self.theta)


def efp_cell(table: CharacterTable, k: int) -> EfpCell:
    """The cell of efp:k on the group of ``table``, an S_n table."""
    start = time.monotonic()
    group = table.group
    n = group.n
    spec = CayleyGraphSpec(group, efp_connection(n, k, group))
    cert = solve_theta(spec, table)
    conjectured = efp_conjectured_max(n, k)
    check = cert.exact and Fraction(cert.objective) == conjectured
    lp_rows, lp_cols = cert.lp_shape
    return EfpCell(n=n, k=k, theta=cert.objective,
                   conjectured_max=conjectured, checkmark=check,
                   lp_rows=lp_rows, lp_cols=lp_cols,
                   runtime_ms=(time.monotonic() - start) * 1000)


def efp_table(n_max: int) -> list:
    """All cells 1 <= k <= n <= n_max, exact; each row shares the group
    and character table of its n.  n_max is refused where S_n_max is."""
    SymmetricGroup(n_max)
    cells = []
    for n in range(1, n_max + 1):
        table = symmetric_character_table(n)
        for k in range(1, n + 1):
            cells.append(efp_cell(table, k))
    return cells


def efp_table_csv(cells, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "theta", "conjectured_max", "checkmark",
                         "lp_rows", "lp_cols", "runtime_ms"])
        for c in cells:
            writer.writerow([c.n, c.k, format_real(c.theta),
                             c.conjectured_max, int(c.checkmark), c.lp_rows,
                             c.lp_cols, f"{c.runtime_ms:.1f}"])


def efp_table_grid(cells) -> str:
    """Human-readable checkmark grid, k down the side and n across."""
    ns = sorted({c.n for c in cells})
    ks = sorted({c.k for c in cells})
    marks = {(c.n, c.k): c.checkmark for c in cells}
    width = 3
    lines = ["k\\n " + "".join(f"{n:>{width}}" for n in ns)]
    for k in ks:
        row = f"{k:<4}"
        for n in ns:
            if (n, k) not in marks:
                row += " " * width
            else:
                row += f"{'  x' if marks[(n, k)] else '  .':>{width}}"
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# k-intersecting invertible matrices

def gl_connection(q: int, n: int, k: int,
                  group: GeneralLinearGroup) -> ConnectionSet:
    """X_{q,n,k} = {A in GL(n, F_q) : rank(A - I) > n - k}; closed under
    conjugation and inversion (both verified on construction)."""
    if not 1 <= k <= n:
        raise InvalidArgument(f"need 1 <= k <= n, got k={k}, n={n}")
    if (group.q, group.n) != (q, n):
        raise InvalidArgument("supplied group is not GL(n, q) for this q, n")
    f = group.field
    shifted = f.add[group.matrices, f.neg[np.eye(n, dtype=np.int64)]]
    elems = np.flatnonzero(group.ranks(shifted) > n - k).tolist()
    # from_elements verifies inverse closure, and the class union found by
    # conjugation_closed certifies conjugation closure
    conn = ConnectionSet.from_elements(group, elems)
    if not conn.conjugation_closed:
        raise InvalidArgument(
            "rank condition unexpectedly produced a non-class union")
    return conn


def gl_lower_bound(q: int, n: int, k: int) -> int:
    """|{A : A x_i = x_i for k independent vectors}| =
    prod_{i=k}^{n-1} (q^n - q^i); 1 when k = n."""
    if not 1 <= k <= n:
        raise InvalidArgument(f"need 1 <= k <= n, got k={k}, n={n}")
    out = 1
    for i in range(k, n):
        out *= q ** n - q ** i
    return out

