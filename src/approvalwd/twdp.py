"""Dynamic programming over nice tree decompositions of the incidence graph.

One table engine serves all three rules.  A table entry is keyed by
(C', k', mu): the committee's part C' in the bag's candidates, the committee
size k' inside the subtree, and mu, the overlap of each bag vote (in sorted
order) with that committee.  CCAV caps every overlap at 1, so its mu marks
which bag votes are covered.  Tables are built bottom-up by forward
propagation: every stored entry carries the best value together with a
concrete committee achieving it, so missing entries play the role of minus
infinity and witnesses come for free.

Every part of an entry is one plain integer.  Candidate c is bit m - 1 - c of
each candidate mask.  A table maps C', as a mask, to its entries.  An entry's
key packs k' into the low bits and mu above them, one digit of b bits per bag
vote, so a vote is introduced or forgotten by shifting its digit in or out.
A join's mu is mu1 + mu2 - O, where O packs C''s overlaps with the bag votes,
which both children count; a CCAV join takes mu1 | mu2.  The entry itself is
(value << m) | witness mask, so one comparison keeps the higher value and, at
equal value, the witness whose sorted tuple comes first: both witnesses have
k' members, and the lowest candidate in which they differ is their masks'
highest differing bit.  A join's witness is w1 + w2 - C', the union of both.
Each table travels with its bag's votes as a sorted tuple, vote i holding
digit i of every key: a vote introduce inserts into it by bisection and a vote
forget removes from it, so no node sorts its bag.  The nice form introduces a
bag's votes before its candidates, so on a chain above a leaf a vote introduce
rewrites one C' group, not one per subset of the candidates already there.

The value held is that of the votes already forgotten: a vote's term is added
when it is forgotten, and a key fixes the terms of the bag votes, so values
under one key compare as the full sums would, and a join adds its children's
values.  PAV values are scaled by L = lcm(1..min(k, deltaV)), so that
L * harmonic(x) is an integer for every overlap x a table can hold, since
x <= |v| <= deltaV and x <= k' <= k; that table is ``core.scaled_harmonics``,
shared with ``poly`` and ``fpt``.  A CCAV vote is worth 1 once covered.  The
optimum becomes an exact ``Fraction`` only in the result, after its witness
is re-scored exactly.  MAV needs only which entries exist: a vote too far
from the committee is dropped when it is forgotten.  A join meets each entry
of one child only with the entries of the other child under the same C'.

A route takes the nice tree decomposition it runs on.  The registry passes
the nice form of the min-fill decomposition in the instance's parameters, the
one dispatch measured ``tw_upper`` on.  It is validated first: the witness
re-score checks only the value the tables found.

Incidence-graph numbering: candidate c is vertex c, vote j is vertex m + j.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .core import answer, CCAV, MAV, scaled_harmonics


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
    ccav = rule == CCAV
    # an overlap never exceeds |v| <= deltaV, nor k' <= k
    cap = min(k, e.delta_v)
    if ccav:
        # a vote is worth 1 once covered, so its digit is one bit
        scale, worth, cap = 1, (0, 1), 1
    else:
        scale, worth = scaled_harmonics(cap)
    b = cap.bit_length()
    digit = (1 << b) - 1
    # k' takes the low kb bits of a key, room for a join's k1 + k2 <= 2k
    kb = (2 * k).bit_length()
    kmask = (1 << kb) - 1
    bit = [1 << (m - 1 - c) for c in range(m)]
    vmask = [sum(bit[c] for c in v) for v in votes]

    order = ntd.postorder()
    # a table grows only at a leaf (one entry), a candidate introduce and a
    # join: a vote introduce maps keys one to one and a forget merges them
    max_entries = 1
    tables = {}  # id(node) -> (table, the bag's votes, sorted)
    for node in order:
        h = node.vertex
        kind = node.kind
        if kind == "leaf":
            table, bag_v = {0: {0: 0}}, ()
        elif kind == "join":
            left, bag_v = tables.pop(id(node.children[0]))
            right, _ = tables.pop(id(node.children[1]))
            table = {}
            for cset, g1 in left.items():
                g2 = right.get(cset)
                if g2 is None:
                    continue
                nc = cset.bit_count()
                # both children count C' in k', in mu and in the witness
                o = sum(min((vmask[j] & cset).bit_count(), cap) << kb + i * b
                        for i, j in enumerate(bag_v)) + nc
                out = table[cset] = {}
                for key1, val1 in g1.items():
                    val1 -= cset
                    for key2, val2 in g2.items():
                        if ccav:
                            key = (key1 | key2) + (key1 & key2 & kmask) - nc
                        else:
                            key = key1 + key2 - o
                        if key & kmask > k:
                            continue
                        val = val1 + val2
                        if val > out.get(key, -1):
                            out[key] = val
            max_entries = max(max_entries, sum(map(len, table.values())))
        else:
            child, bag_v = tables.pop(id(node.children[0]))
            if kind == "introduce" and h >= m:
                j = h - m
                i = bisect_left(bag_v, j)
                bag_v = bag_v[:i] + (j,) + bag_v[i:]
                at = kb + i * b
                low = (1 << at) - 1
                vm = vmask[j]
                table = {}
                for cset, g in child.items():
                    x = min((vm & cset).bit_count(), cap) << at
                    table[cset] = {key & low | x | key >> at << at + b: val
                                   for key, val in g.items()}
            elif kind == "introduce":
                hb = bit[h]
                inc = sum(1 << kb + i * b for i, j in enumerate(bag_v) if vmask[j] & hb)
                table = dict(child)
                for cset, g in child.items():
                    out = {}
                    for key, val in g.items():
                        if key & kmask >= k:
                            continue
                        key = (key | inc) + 1 if ccav else key + inc + 1
                        val += hb
                        if val > out.get(key, -1):
                            out[key] = val
                    if out:
                        table[cset | hb] = out
                max_entries = max(max_entries, sum(map(len, table.values())))
            elif kind == "forget" and h >= m:
                j = h - m
                i = bag_v.index(j)
                bag_v = bag_v[:i] + bag_v[i + 1:]
                at = kb + i * b
                low = (1 << at) - 1
                if rule == MAV:
                    # vote j stays only if 2 * mu >= k + |v_j| - d, i.e. >= need
                    need = math.ceil(k + len(votes[j]) - d)
                    add = [0 if 2 * x >= need else None for x in range(cap + 1)]
                else:
                    add = [w << m for w in worth]
                table = {}
                for cset, g in child.items():
                    out = {}
                    for key, val in g.items():
                        a = add[key >> at & digit]
                        if a is None:
                            continue
                        key = key & low | key >> at + b << at
                        val += a
                        if val > out.get(key, -1):
                            out[key] = val
                    if out:
                        table[cset] = out
            else:
                hb = bit[h]
                table = {}
                for cset, g in child.items():
                    out = table.get(cset & ~hb)
                    if out is None:
                        table[cset & ~hb] = g
                        continue
                    for key, val in g.items():
                        if val > out.get(key, -1):
                            out[key] = val
        tables[id(node)] = table, bag_v

    # the root's bag is empty: its one key is k' = k
    entry = tables[id(ntd.root)][0].get(0, {}).get(k)
    width = max(len(node.bag) for node in order) - 1
    stats = {"max_entries": max_entries, "nodes": len(order), "width": width}
    algorithm = f"{rule}_tw_dp"
    # the root re-score is what guards the integer table arithmetic; a CCAV or
    # PAV table always holds the root entry, so its absence is a fault
    if entry is None:
        return answer(instance, algorithm, stats, optimal=rule != MAV)
    witness = tuple(c for c in range(m) if entry & bit[c])
    opt = Fraction(entry >> m, scale) if rule != MAV else None
    return answer(instance, algorithm, stats, witness, opt)


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
