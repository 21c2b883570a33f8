"""Dynamic programming over nice tree decompositions of the incidence graph.

Tables are built bottom-up by forward propagation: every stored entry carries
the best value together with a concrete committee achieving it, so missing
entries play the role of minus infinity and witnesses come for free.

Values are plain integers.  PAV values are scaled by L = lcm(1..k), so that
L * harmonic(x) is an integer for every overlap 0 <= x <= k a table can hold;
the optimum becomes an exact ``Fraction`` only in the result, after its
witness is re-scored exactly.  A join meets each entry of one child only with
the entries of the other child that share its candidate bag set.

Incidence-graph numbering: candidate c is vertex c, vote j is vertex m + j.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import graphs
from .core import CCAV, InternalError, lcm_upto, MAV, PAV, score, SolveResult


def _prepare(instance, ntd):
    e = instance.election
    g = graphs.incidence_graph(e)
    if ntd is None:
        td = graphs.tree_decomposition(g, mode="heuristic")
        ntd = graphs.to_nice(td)
    ntd.validate(g)
    return e, g, ntd


def _split_bag(bag, m):
    cands = tuple(sorted(v for v in bag if v < m))
    votes = tuple(sorted(v - m for v in bag if v >= m))
    return cands, votes


def _merge(table, key, value, witness):
    old = table.get(key)
    if old is None or value > old[0] or (value == old[0] and witness < old[1]):
        table[key] = (value, witness)


def _by_cset(table):
    """Entries as {candidate bag set: [(rest of key, value, witness)]}."""
    groups = {}
    for (cset, *rest), (value, witness) in table.items():
        groups.setdefault(cset, []).append((rest, value, witness))
    return groups


def _checked_witness(e, rule, entry, accept):
    """The root entry's witness, once ``accept`` passes on its exact score.

    This re-score is what guards the integer table arithmetic, so it is an
    explicit check that survives ``python -O``.
    """
    if entry is None or not accept(score(e, rule, entry[1])):
        raise InternalError(f"{rule} treewidth DP: root witness fails its exact re-score")
    return entry[1]


class _Stats(dict):
    def bump_entries(self, table):
        self["max_entries"] = max(self.get("max_entries", 0), len(table))
        self["nodes"] = self.get("nodes", 0) + 1


def ccav_tw_dp(instance, ntd=None):
    """CCAV optimum via the 3-dimensional table (C', V', k') per bag.

    Keys track the committee's bag intersection, the covered bag votes, and
    the committee size inside the subtree; covering counts merge at joins with
    an overlap correction.
    """
    if instance.rule != CCAV:
        raise ValueError("rule must be ccav")
    e, _, ntd = _prepare(instance, ntd)
    m, k = e.m, instance.k
    stats = _Stats()

    def consistent(cset, vset, bag_votes):
        # every bag vote approving a committed candidate must be covered
        for j in bag_votes:
            if j not in vset and e.votes[j] & cset:
                return False
        return True

    def store(table, bag_votes, cset, vset, kp, value, witness):
        if kp > k:
            return
        if not consistent(cset, vset, bag_votes):
            return
        _merge(table, (cset, vset, kp), value, witness)

    tables = {}
    for node in ntd.postorder():
        _, bag_v = _split_bag(node.bag, m)
        table = {}
        if node.kind == "leaf":
            table[(frozenset(), frozenset(), 0)] = (0, ())
        elif node.kind == "join":
            left = _by_cset(tables.pop(id(node.children[0])))
            right = _by_cset(tables.pop(id(node.children[1])))
            for c1, entries in left.items():
                bucket = right.get(c1)
                if bucket is None:
                    continue
                nc = len(c1)
                for (v1, k1), val1, w1 in entries:
                    s1 = set(w1)
                    for (v2, k2), val2, w2 in bucket:
                        kp = k1 + k2 - nc
                        if kp > k:
                            continue
                        # both children hold only entries consistent with this
                        # same bag, so the union of their covered votes is too
                        _merge(
                            table,
                            (c1, v1 | v2, kp),
                            val1 + val2 - len(v1 & v2),
                            tuple(sorted(s1.union(w2))),
                        )
        else:
            ty = tables.pop(id(node.children[0]))
            h = node.vertex
            if node.kind == "introduce" and h >= m:
                j = h - m
                for (cset, vset, kp), (val, w) in ty.items():
                    if e.votes[j] & cset:
                        store(table, bag_v, cset, vset | {j}, kp, val + 1, w)
                    else:
                        store(table, bag_v, cset, vset, kp, val, w)
            elif node.kind == "introduce":
                approving = {j for j in bag_v if h in e.votes[j]}
                for (cset, vset, kp), (val, w) in ty.items():
                    store(table, bag_v, cset, vset, kp, val, w)
                    store(
                        table,
                        bag_v,
                        cset | {h},
                        vset | approving,
                        kp + 1,
                        val + len(approving - vset),
                        tuple(sorted(w + (h,))),
                    )
            elif node.kind == "forget" and h >= m:
                j = h - m
                for (cset, vset, kp), (val, w) in ty.items():
                    store(table, bag_v, cset, vset - {j}, kp, val, w)
            else:
                for (cset, vset, kp), (val, w) in ty.items():
                    store(table, bag_v, cset - {h}, vset, kp, val, w)
        stats.bump_entries(table)
        tables[id(node)] = table

    entry = tables[id(ntd.root)].get((frozenset(), frozenset(), k))
    opt = None if entry is None else Fraction(entry[0])
    witness = _checked_witness(e, CCAV, entry, lambda s: s == opt)
    stats["width"] = ntd.width()
    return SolveResult(
        decision=opt >= instance.d,
        opt_score=opt,
        witness=witness,
        algorithm="ccav_tw_dp",
        stats=stats,
    )


# ---------------------------------------------------------------------------
# PAV and MAV: tables keyed by (C', k', mu) with mu over the bag votes
# ---------------------------------------------------------------------------

def _run_mu_dp(instance, ntd, rule):
    """Shared engine for the PAV (score-valued) and MAV (binary) tables.

    A PAV value is L times the subtree committee's score, L = lcm(1..k).
    For MAV only which entries exist matters; a value is 0 until a vote or
    a committee member is placed in the subtree and 1 after.
    """
    e, _, ntd = _prepare(instance, ntd)
    m, k, d = e.m, instance.k, instance.d
    votes = e.votes
    pav = rule == PAV
    scale = lcm_upto(k)
    # hsum[x] = L * harmonic(x), exact for 0 <= x <= k
    hsum = list(itertools.accumulate((scale // x for x in range(1, k + 1)), initial=0))
    stats = _Stats()

    tables = {}
    for node in ntd.postorder():
        _, bag_v = _split_bag(node.bag, m)
        table = {}

        def store(cset, kp, mu, value, witness):
            if kp > k or any(x > k for x in mu):
                return
            _merge(table, (cset, kp, mu), value, witness)

        if node.kind == "leaf":
            table[(frozenset(), 0, ())] = (0, ())
        elif node.kind == "join":
            left = _by_cset(tables.pop(id(node.children[0])))
            right = _by_cset(tables.pop(id(node.children[1])))
            for c1, entries in left.items():
                bucket = right.get(c1)
                if bucket is None:
                    continue
                # a join value is val1 + val2 - sum hsum[mu1] - sum hsum[mu2]
                # + sum hsum[mu]: the bag votes' terms are replaced, not added
                bucket = [
                    (k2, mu2, val2 - sum(hsum[x] for x in mu2) if pav else 0, w2)
                    for (k2, mu2), val2, w2 in bucket
                ]
                overlap = [len(votes[j] & c1) for j in bag_v]
                nc = len(c1)
                for (k1, mu1), val1, w1 in entries:
                    rest1 = val1 - sum(hsum[x] for x in mu1) if pav else 0
                    s1 = set(w1)
                    for k2, mu2, rest2, w2 in bucket:
                        kp = k1 + k2 - nc
                        if kp > k:
                            continue
                        mu = tuple(a + b - o for a, b, o in zip(mu1, mu2, overlap))
                        if not all(0 <= x <= k for x in mu):
                            continue
                        if pav:
                            value = rest1 + rest2 + sum(hsum[x] for x in mu)
                        else:
                            value = 1
                        _merge(table, (c1, kp, mu), value, tuple(sorted(s1.union(w2))))
        else:
            ty = tables.pop(id(node.children[0]))
            h = node.vertex
            child_bag_v = _split_bag(node.children[0].bag, m)[1]
            if node.kind == "introduce" and h >= m:
                j = h - m
                pos = bag_v.index(j)
                for (cset, kp, mu), (val, w) in ty.items():
                    x = len(votes[j] & cset)
                    if x > k:
                        continue
                    value = val + hsum[x] if pav else 1
                    store(cset, kp, mu[:pos] + (x,) + mu[pos:], value, w)
            elif node.kind == "introduce":
                approving = [
                    i for i, j in enumerate(bag_v) if h in votes[j]
                ]
                for (cset, kp, mu), (val, w) in ty.items():
                    store(cset, kp, mu, val, w)
                    new_mu = list(mu)
                    for i in approving:
                        new_mu[i] += 1
                    # test mu <= k before dividing: scale // (k + 1) is inexact
                    if kp >= k or any(new_mu[i] > k for i in approving):
                        continue
                    if pav:
                        value = val + sum(scale // new_mu[i] for i in approving)
                    else:
                        value = 1
                    store(
                        cset | {h},
                        kp + 1,
                        tuple(new_mu),
                        value,
                        tuple(sorted(w + (h,))),
                    )
            elif node.kind == "forget" and h >= m:
                j = h - m
                pos = child_bag_v.index(j)
                # MAV keeps vote j only if 2 * mu >= k + |v_j| - d, i.e. >= need
                need = math.ceil(k + len(votes[j]) - d)
                for (cset, kp, mu), (val, w) in ty.items():
                    if not pav and 2 * mu[pos] < need:
                        continue
                    store(cset, kp, mu[:pos] + mu[pos + 1:], val, w)
            else:
                for (cset, kp, mu), (val, w) in ty.items():
                    store(cset - {h}, kp, mu, val, w)
        stats.bump_entries(table)
        tables[id(node)] = table

    entry = tables[id(ntd.root)].get((frozenset(), k, ()))
    stats["width"] = ntd.width()
    if pav:
        opt = None if entry is None else Fraction(entry[0], scale)
        witness = _checked_witness(e, PAV, entry, lambda s: s == opt)
        return SolveResult(
            decision=opt >= d,
            opt_score=opt,
            witness=witness,
            algorithm="pav_tw_dp",
            stats=stats,
        )
    if entry is None:
        return SolveResult(False, None, None, "mav_tw_dp", stats)
    witness = _checked_witness(e, MAV, entry, lambda s: s <= d)
    return SolveResult(True, None, witness, "mav_tw_dp", stats)


def pav_tw_dp(instance, ntd=None):
    """Exact PAV optimum; mu tracks each bag vote's committee overlap."""
    if instance.rule != PAV:
        raise ValueError("rule must be pav")
    return _run_mu_dp(instance, ntd, PAV)


def mav_tw_dp(instance, ntd=None):
    """MAV decision; a vote is checked against the distance threshold when
    it is forgotten, using 2 * mu >= k + |v| - d to stay in integers."""
    if instance.rule != MAV:
        raise ValueError("rule must be mav")
    if instance.d < 0:
        return SolveResult(False, None, None, "mav_tw_dp", {})
    return _run_mu_dp(instance, ntd, MAV)
