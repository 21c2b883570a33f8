"""Dynamic programming over nice tree decompositions of the incidence graph.

One table engine serves all three rules.  A table entry is keyed by
(C', k', mu): the committee's part C' in the bag's candidates, the committee
size k' inside the subtree, and mu, the overlap of each bag vote (in sorted
order) with that committee.  CCAV caps every overlap at 1, so its mu marks
which bag votes are covered.  Tables are built bottom-up by forward
propagation: every stored entry carries the best value together with a
concrete committee achieving it, so missing entries play the role of minus
infinity and witnesses come for free.

Values are plain integers, a sum of per-vote values by overlap.  PAV values
are scaled by L = lcm(1..k), so that L * harmonic(x) is an integer for every
overlap 0 <= x <= k a table can hold; that table is ``core.scaled_harmonics``,
shared with ``poly`` and ``fpt``.  A CCAV vote is worth 1 once covered.
The optimum becomes an exact ``Fraction`` only in the result, after its
witness is re-scored exactly.  MAV needs only which entries exist: a vote too
far from the committee is dropped when it is forgotten.  A join meets each
entry of one child only with the entries of the other child that share its
candidate bag set.

A route takes the nice tree decomposition it runs on.  The registry passes
the nice form of the min-fill decomposition in the instance's parameters, the
one dispatch measured ``tw_upper`` on.  It is validated first: the witness
re-score checks only the value the tables found.

Incidence-graph numbering: candidate c is vertex c, vote j is vertex m + j.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import answer, CCAV, MAV, scaled_harmonics


def _bag_votes(bag, m):
    return tuple(sorted(v - m for v in bag if v >= m))


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


def _run_mu_dp(instance, ntd):
    """The (C', k', mu) table engine behind all three rules."""
    e = instance.election
    m, k, d = e.m, instance.k, instance.d
    votes = e.votes
    # validated against the incidence graph, each edge listed from its vote's end
    adj = dict.fromkeys(range(m), ())
    adj.update((m + j, v) for j, v in enumerate(votes))
    ntd.validate(adj)
    rule = instance.rule
    valued = rule != MAV
    # hsum[x] is a vote's value at overlap x, gain[x] what one more approved
    # member adds to it; an overlap never exceeds k' <= k, so no entry needs a
    # bound test
    if rule == CCAV:
        # a vote is worth 1 once covered, so mu keeps only cap[x] = min(x, 1)
        scale, hsum, gain, cap = 1, [0, 1], [1, 0], [0] + [1] * (k + 1)
    else:
        scale, hsum = scaled_harmonics(k)
        gain = [b - a for a, b in zip(hsum, hsum[1:])]
        cap = list(range(k + 2))

    order = ntd.postorder()
    max_entries = 0
    tables = {}
    for node in order:
        bag_v = _bag_votes(node.bag, m)
        table = {}
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
                    (k2, mu2, val2 - sum(hsum[x] for x in mu2) if valued else 0, w2)
                    for (k2, mu2), val2, w2 in bucket
                ]
                overlap = [cap[len(votes[j] & c1)] for j in bag_v]
                nc = len(c1)
                for (k1, mu1), val1, w1 in entries:
                    rest1 = val1 - sum(hsum[x] for x in mu1) if valued else 0
                    s1 = set(w1)
                    for k2, mu2, rest2, w2 in bucket:
                        kp = k1 + k2 - nc
                        if kp > k:
                            continue
                        mu = tuple(cap[a + b - o] for a, b, o in zip(mu1, mu2, overlap))
                        value = rest1 + rest2 + sum(hsum[x] for x in mu) if valued else 1
                        _merge(table, (c1, kp, mu), value, tuple(sorted(s1.union(w2))))
        else:
            ty = tables.pop(id(node.children[0]))
            h = node.vertex
            if node.kind == "introduce" and h >= m:
                j = h - m
                pos = bag_v.index(j)
                for (cset, kp, mu), (val, w) in ty.items():
                    x = cap[len(votes[j] & cset)]
                    value = val + hsum[x] if valued else 1
                    _merge(table, (cset, kp, mu[:pos] + (x,) + mu[pos:]), value, w)
            elif node.kind == "introduce":
                approving = [i for i, j in enumerate(bag_v) if h in votes[j]]
                for (cset, kp, mu), (val, w) in ty.items():
                    _merge(table, (cset, kp, mu), val, w)
                    if kp >= k:
                        continue
                    new_mu = list(mu)
                    for i in approving:
                        new_mu[i] = cap[mu[i] + 1]
                    value = val + sum(gain[mu[i]] for i in approving) if valued else 1
                    _merge(
                        table,
                        (cset | {h}, kp + 1, tuple(new_mu)),
                        value,
                        tuple(sorted(w + (h,))),
                    )
            elif node.kind == "forget" and h >= m:
                j = h - m
                pos = _bag_votes(node.children[0].bag, m).index(j)
                # MAV keeps vote j only if 2 * mu >= k + |v_j| - d, i.e. >= need
                need = math.ceil(k + len(votes[j]) - d)
                for (cset, kp, mu), (val, w) in ty.items():
                    if not valued and 2 * mu[pos] < need:
                        continue
                    _merge(table, (cset, kp, mu[:pos] + mu[pos + 1:]), val, w)
            else:
                for (cset, kp, mu), (val, w) in ty.items():
                    _merge(table, (cset - {h}, kp, mu), val, w)
        max_entries = max(max_entries, len(table))
        tables[id(node)] = table

    entry = tables[id(ntd.root)].get((frozenset(), k, ()))
    stats = {"max_entries": max_entries, "nodes": len(order), "width": ntd.width()}
    algorithm = f"{rule}_tw_dp"
    # the root re-score is what guards the integer table arithmetic; a CCAV or
    # PAV table always holds the root entry, so its absence is a fault
    if entry is None:
        return answer(instance, algorithm, stats, optimal=valued)
    opt = Fraction(entry[0], scale) if valued else None
    return answer(instance, algorithm, stats, entry[1], opt)


def ccav_tw_dp(instance, ntd):
    """Exact CCAV optimum; mu marks which bag votes the committee covers."""
    return _run_mu_dp(instance, ntd)


def pav_tw_dp(instance, ntd):
    """Exact PAV optimum; mu tracks each bag vote's committee overlap."""
    return _run_mu_dp(instance, ntd)


def mav_tw_dp(instance, ntd):
    """MAV decision; a vote is checked against the distance threshold when
    it is forgotten, using 2 * mu >= k + |v| - d to stay in integers."""
    if instance.d < 0:
        return answer(instance, "mav_tw_dp", {})
    return _run_mu_dp(instance, ntd)
