"""Checks of every answer, independent of the solver that produced it.

* Exact theta is compared exactly with pinned values (S_n) or with the
  HiGHS optimum of an independently built LP (abelian groups).
* Every LP answer is re-checked with ``simplex.verify_certificate`` on
  the LP rebuilt from the inputs.
* Float theta is compared with the exact value (S_n) or with HiGHS
  (``scipy.optimize.linprog``) within ``FLOAT_REL_TOL``; odd cycles also
  with the closed form m cos(pi/m) / (1 + cos(pi/m)).
* ``alpha``: the witness is independent (re-checked on the group, not
  on the built graph), has the claimed size, equals the pinned value and
  is at most floor(theta).
* SDPA: the file reads back to the exported instance (parsed once per
  distinct file content), has one edge constraint per edge, and matches
  a pinned sha256 for seed 0.

``check_op`` returns ``("ok" | "failed" | "wrong", detail)``.  "failed"
is an operation that raised, returned no certified answer, or failed
its certificate check; "wrong" is an answer that was returned but
disagrees with the reference.
"""

from __future__ import annotations

import hashlib
import math
import os
from fractions import Fraction
from functools import lru_cache

import numpy as np

from cayley_theta import simplex, theta

FLOAT_REL_TOL = 1e-6

F = Fraction
# exact theta of Cay(S_n, efp:k), k = 1..n
SYM_THETA = {
    6: (120, 24, 6, 2, 1, 1),
    8: (5040, 720, 120, F(87, 2), F(39, 4), 2, 1, 1),
    9: (40320, 5040, 720, F(864, 5), F(560, 11), 11, 2, 1, 1),
    10: (362880, 40320, 5040, F(20629080, 27727), 210, 56, 12, 2, 1, 1),
}
# exact alpha of the Cayley graphs of the cayley_graph workload
ALPHA = {(("sym", 6), ("efp", 2)): 24, (("gl", 5, 2), ("gl-rank", 1)): 20,
         (("cyclic", (1500,)), ("empty",)): 1500}
# sha256 of the formulation-(A) export of the cayley_graph workload
SDPA_SHA256 = {
    0: "2e6d947f771d9ca5bbfc393acdf941b2482ef9464345f523455cb7825b421dd2",
}


def check_op(op, output, seed: int):
    if op.kind == "table":
        return _check_table(output)
    if op.kind == "theta":
        return _check_theta(op, *output)
    if op.kind == "alpha":
        return _check_alpha(op, *output)
    return _check_sdpa(op, *output, seed)


def _check_table(table):
    # the package validates its own tables; re-check the shape only
    if sum(d * d for d in table.degrees) != table.group.order:
        return "wrong", "sum of squared degrees != |G|"
    return "ok", f"{len(table.degrees)} irreps"


# ---------------------------------------------------------------------------
# theta

def _check_theta(op, spec, table, cert):
    if cert.exact != op.exact:
        return "wrong", f"exact={cert.exact}, asked for exact={op.exact}"
    if cert.dual is None:
        return "failed", "no dual vector, so no LP certificate"
    lp = theta.build_lp_D(spec, table)
    claim = simplex.LpSolution(status="optimal", x=cert.a,
                               objective_value=cert.objective,
                               dual=cert.dual)
    verdict = simplex.verify_certificate(lp.instance, claim)
    if not verdict:
        return "failed", f"verify_certificate: {verdict.reason}"
    value = cert.objective
    refs = _theta_references(op)
    for name, ref in refs:
        if isinstance(ref, Fraction) and cert.exact:
            if Fraction(value) != ref:
                return "wrong", f"theta {value} != {name} {ref}"
        elif abs(float(value) - float(ref)) > FLOAT_REL_TOL * abs(float(ref)):
            return "wrong", f"theta {float(value)!r} != {name} {float(ref)!r}"
    return "ok", f"theta {value} (" + ", ".join(n for n, _ in refs) + ")"


def _theta_references(op):
    """(name, value) pairs; a Fraction is compared exactly with exact
    answers and within FLOAT_REL_TOL with float ones."""
    if op.group[0] == "sym":
        n, k = op.group[1], op.connection[1]
        return [("pinned", Fraction(SYM_THETA[n][k - 1]))]
    moduli = op.group[1]
    classes = op.connection[1]
    refs = [("HiGHS", _highs_theta(moduli, classes))]
    if len(moduli) == 1 and moduli[0] % 2 and \
            classes == (1, moduli[0] - 1):
        m = moduli[0]
        c = math.cos(math.pi / m)
        refs.append(("closed form", m * c / (1 + c)))
    return refs


@lru_cache(maxsize=None)
def _highs_theta(moduli, classes):
    """Theta of Cay(Z_m1 x ... x Z_mr, X) from scipy's HiGHS on an LP
    built here from chi_j(x) = exp(2 pi i sum_t j_t x_t / m_t): maximize
    a_0 subject to sum_j a_j = |G|, sum_j a_j chi_j(x) = 0 for x in X
    (real and imaginary parts), a >= 0."""
    from scipy.optimize import linprog

    order = math.prod(moduli)
    digits = np.array(np.unravel_index(np.arange(order), moduli)).T
    weights = 1.0 / np.array(moduli, dtype=float)
    phases = 2 * np.pi * (digits * weights) @ digits[list(classes)].T
    A_eq = np.vstack([np.ones(order), np.cos(phases).T, np.sin(phases).T])
    b_eq = np.zeros(A_eq.shape[0])
    b_eq[0] = order
    c = np.zeros(order)
    c[0] = -1.0
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return -res.fun


# ---------------------------------------------------------------------------
# alpha

def _check_alpha(op, group, connection, result):
    if not result.exact:
        return "failed", "alpha returned bounds, not an exact value"
    witness = result.witness
    if len(witness) != result.lower or len(set(witness)) != len(witness):
        return "wrong", (f"witness has {len(set(witness))} distinct "
                         f"vertices, alpha claims {result.lower}")
    clash = _adjacent_pair(op, group, witness)
    if clash is not None:
        return "wrong", f"witness is not independent: {clash} adjacent"
    want = ALPHA[(op.group, op.connection)]
    if result.lower != want:
        return "wrong", f"alpha {result.lower} != pinned {want}"
    bound, name = _theta_bound(op)
    if result.lower > math.floor(bound):
        return "wrong", f"alpha {result.lower} > floor({name} {bound})"
    return "ok", f"alpha {result.lower} <= floor({name} {bound})"


def _adjacent_pair(op, group, witness):
    """First adjacent pair of the witness, decided from the group
    elements themselves: x ~ y iff y^-1 x lies in the connection set."""
    kind = op.connection[0]
    if kind == "empty":
        return None
    if kind == "efp":
        # y^-1 x has fewer than k fixed points iff x, y agree on < k points
        k = op.connection[1]
        perms = [group.perm(v) for v in witness]
        for i, p in enumerate(perms):
            for j in range(i):
                if sum(a == b for a, b in zip(p, perms[j])) < k:
                    return witness[j], witness[i]
        return None
    # gl-rank:k over a prime field: x ~ y iff rank(x - y) > n - k
    q, n, k = op.group[1], op.group[2], op.connection[1]
    mats = [np.array(group.matrices[v]) for v in witness]
    for i, x in enumerate(mats):
        for j in range(i):
            if _rank_mod_p((x - mats[j]) % q, q) > n - k:
                return witness[j], witness[i]
    return None


def _rank_mod_p(mat, p):
    rows = [list(map(int, r)) for r in mat]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows))
                      if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col] * inv
                rows[r] = [(a - f * b) % p for a, b in
                           zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _theta_bound(op):
    """An upper bound on alpha that does not come from ``alpha``: the
    pinned exact theta where the package computes it, else the ratio
    bound n(-lmin)/(d - lmin) >= theta from numpy eigenvalues."""
    if op.group == ("sym", 6):
        return SYM_THETA[6][op.connection[1] - 1], "theta"
    if op.connection == ("empty",):
        return op.group[1][0], "theta"
    return _gl_ratio_bound(op.group[1], op.group[2], op.connection[1]), \
        "ratio bound"


@lru_cache(maxsize=None)
def _gl_ratio_bound(q, n, k):
    from cayley_theta import groups
    if n != 2 or k != 1:
        raise ValueError("ratio bound implemented for gl-rank:1 on GL(2,q)")
    mats = np.array(groups.make_general_linear(q, n).matrices)
    diff = mats[:, None] - mats[None, :]
    det = (diff[..., 0, 0] * diff[..., 1, 1] -
           diff[..., 0, 1] * diff[..., 1, 0]) % q
    adjacency = (det != 0).astype(float)
    lmin = np.linalg.eigvalsh(adjacency).min()
    degree = adjacency[0].sum()
    return len(adjacency) * -lmin / (degree - lmin)


# ---------------------------------------------------------------------------
# SDPA export

# sha256 of the files that already read back to their instance; a later
# pass that writes the same bytes is not parsed again
_READ_BACK = set()


def _check_sdpa(op, instance, path, seed):
    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest not in _READ_BACK:
            if theta.read_sdpa(path) != instance:
                return "wrong", "file does not read back to the instance"
            _READ_BACK.add(digest)
    finally:
        os.remove(path)
    order = instance.block_sizes[0]
    edges = len(instance.constraints) - 1
    if instance.block_sizes != (order,) or len(instance.objective) != \
            order * (order + 1) // 2:
        return "wrong", "formulation (A) has the wrong block structure"
    if 2 * edges != order * len(op.connection[1]):
        return "wrong", f"{edges} edge constraints for a regular graph " \
            f"of degree {len(op.connection[1])} on {order} vertices"
    pinned = SDPA_SHA256.get(seed)
    if pinned is not None and digest != pinned:
        return "wrong", f"sha256 {digest} != pinned {pinned}"
    return "ok", f"{edges} edge constraints, sha256 {digest[:16]}"
