"""Dynamic programming over tree decompositions of the incidence graph.

One table engine serves all three rules.  A table entry is keyed by
(C', k', mu): the committee's part C' in the bag's candidates, the committee
size k' inside the subtree, and mu, the overlap of each bag vote (in sorted
order) with that committee.  CCAV caps every overlap at 1, so its mu marks
which bag votes are covered.  Tables are built bottom-up by forward
propagation: every stored entry carries the best value together with a
concrete committee achieving it, so missing entries play the role of minus
infinity and witnesses come for free.

The tables run on the decomposition's own bags in index order, which puts
children before parents, and without recursion, by the steps a nice tree
decomposition would spell out (Cygan et al., *Parameterized Algorithms*,
2015, ch. 7): between a bag and its parent, forget the bag's vertices that
the parent lacks in ascending order, introduce the parent's new vertices in
descending order, votes first, and join the tables of the parent's
children.  A bag with no child starts from the empty committee and
introduces its whole bag.  A leaf bag with one vertex h outside its
parent's bag is folded into the parent's table in one pass, as "introduce
h, then forget h": h lies in no other bag, so its neighbours all lie in
the parent's and C' alone fixes what h adds.  A vote h adds the term of
its overlap with C', or for MAV keeps or drops the whole C' group; a
candidate h gives each entry with k' < k a copy with h added, kept under the
same C'.  So a leaf bag builds neither its own table nor a join.
Folded votes go in before the parent's joins, where MAV's dropped C' groups
save the most, and folded candidates after them.  A leaf bag within its
parent's adds nothing.  On a min-fill decomposition
every bag has one vertex outside its parent's, its eliminated vertex, so
every leaf bag folds.

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
The root keeps the maximum over every k-committee, which depends neither on
the decomposition nor on the order of the steps.  Each table travels with its
bag's votes as a sorted tuple, vote i holding digit i of every key: a vote
introduce inserts into it by bisection and a vote forget removes from it, so
no step sorts a bag.  Introducing votes first means a vote introduce rewrites
few C' groups, not one per subset of the candidates already there.

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

A route takes the tree decomposition it runs on.  The registry passes the
min-fill decomposition in the instance's parameters, the one dispatch
measured ``tw_upper`` on.  It is validated first, for every rule and
threshold: the witness re-score checks only the value the tables found.  The
stats count the steps as ``nodes``: each forget, introduce and join, and
each bag start.

Incidence-graph numbering: candidate c is vertex c, vote j is vertex m + j.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .core import answer, CCAV, MAV, scaled_harmonics


def _run_mu_dp(instance, td):
    """The (C', k', mu) table engine behind all three rules."""
    e = instance.election
    m, k, d = e.m, instance.k, instance.d
    votes = e.votes
    # validated against the incidence graph, each edge listed from its vote's end
    adj = dict.fromkeys(range(m), ())
    adj.update((m + j, v) for j, v in enumerate(votes))
    td.validate(adj)
    rule = instance.rule
    algorithm = f"{rule}_tw_dp"
    # the one empty bag of an election without vertices reads as width 0,
    # as tw_upper does
    width = max(td.width(), 0)
    if rule == MAV and d < 0:
        # no committee is closer than 0 to every vote
        return answer(instance, algorithm, {"max_entries": 0, "nodes": 0, "width": width})
    ccav = rule == CCAV
    # an overlap never exceeds |v| <= deltaV, nor k' <= k
    cap = min(k, e.delta_v)
    if ccav:
        # a vote is worth 1 once covered, so its digit is one bit
        scale, worth, cap = 1, (0, 1), 1
    else:
        scale, worth = scaled_harmonics(cap)
    if rule == MAV:
        # vote j stays only if 2 * mu >= k + |v_j| - d, an integer bound on
        # 2 * mu once d is rounded down; None drops the entry
        far = k - math.floor(d)
        terms = [[0 if 2 * x >= far + len(v) else None for x in range(cap + 1)]
                 for v in votes]
    else:
        terms = [[w << m for w in worth]] * len(votes)
    b = cap.bit_length()
    digit = (1 << b) - 1
    # k' takes the low kb bits of a key, room for a join's k1 + k2 <= 2k
    kb = (2 * k).bit_length()
    kmask = (1 << kb) - 1
    bit = [1 << (m - 1 - c) for c in range(m)]
    vmask = [sum(bit[c] for c in v) for v in votes]

    # a table grows only at its first bag (one entry), a candidate introduce
    # and a join: a vote introduce maps keys one to one, and a forget merges
    # or drops them.  So the largest table of a chain is its last, and a
    # candidate fold, which keeps every entry, only grows a table
    max_entries = 1

    def count(table):
        nonlocal max_entries
        max_entries = max(max_entries, sum(map(len, table.values())))

    def introduce(table, bag_v, h):
        if h >= m:
            j = h - m
            i = bisect_left(bag_v, j)
            at = kb + i * b
            low = (1 << at) - 1
            vm = vmask[j]
            out = {}
            for cset, g in table.items():
                x = min((vm & cset).bit_count(), cap) << at
                out[cset] = {key & low | x | key >> at << at + b: val for key, val in g.items()}
            return out, bag_v[:i] + (j,) + bag_v[i:]
        hb = bit[h]
        inc = sum(1 << kb + i * b for i, j in enumerate(bag_v) if vmask[j] & hb)
        out = dict(table)
        for cset, g in table.items():
            g = grow(g, inc, hb, {})
            if g:
                out[cset | hb] = g
        return out, bag_v

    def grow(g, inc, hb, out):
        """Each entry of group g with k' < k, with candidate hb added and the
        digits of its bag votes raised by inc, max-merged into out."""
        for key, val in g.items():
            if key & kmask >= k:
                continue
            key = (key | inc) + 1 if ccav else key + inc + 1
            val += hb
            if val > out.get(key, -1):
                out[key] = val
        return out

    def forget(table, bag_v, h):
        out = {}
        if h >= m:
            j = h - m
            i = bag_v.index(j)
            at = kb + i * b
            low = (1 << at) - 1
            add = terms[j]
            for cset, g in table.items():
                kept = {}
                for key, val in g.items():
                    a = add[key >> at & digit]
                    if a is None:
                        continue
                    key = key & low | key >> at + b << at
                    val += a
                    if val > kept.get(key, -1):
                        kept[key] = val
                if kept:
                    out[cset] = kept
            return out, bag_v[:i] + bag_v[i + 1:]
        hb = bit[h]
        for cset, g in table.items():
            merged = out.get(cset & ~hb)
            if merged is None:
                out[cset & ~hb] = g
                continue
            for key, val in g.items():
                if val > merged.get(key, -1):
                    merged[key] = val
        return out, bag_v

    def join(left, right, bag_v):
        out = {}
        for cset, g1 in left.items():
            g2 = right.get(cset)
            if g2 is None:
                continue
            nc = cset.bit_count()
            # both children count C' in k', in mu and in the witness
            o = sum(min((vmask[j] & cset).bit_count(), cap) << kb + i * b
                    for i, j in enumerate(bag_v)) + nc
            merged = out[cset] = {}
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
                    if val > merged.get(key, -1):
                        merged[key] = val
        count(out)
        return out

    def chain(table, bag_v, src, dst):
        """Forget src's vertices outside dst, then introduce dst's outside src
        in descending order, votes first."""
        nonlocal nodes
        nodes += len(src ^ dst)
        for h in sorted(src - dst):
            table, bag_v = forget(table, bag_v, h)
        for h in sorted(dst - src, reverse=True):
            table, bag_v = introduce(table, bag_v, h)
        count(table)
        return table, bag_v

    def fold(table, bag_v, h):
        """Introduce h, then forget it, in one pass over the table: h's
        neighbours all lie in the bag, so C' alone fixes what h adds."""
        nonlocal nodes
        nodes += 2
        if h >= m:
            # the term of the vote's overlap with C'; MAV keeps or drops the group
            add, vm = terms[h - m], vmask[h - m]
            out = {}
            for cset, g in table.items():
                a = add[min((vm & cset).bit_count(), cap)]
                if a is not None:
                    out[cset] = {key: val + a for key, val in g.items()} if a else g
            return out
        # each entry with k' < k gains a copy with h added, kept under C'
        hb = bit[h]
        inc = sum(1 << kb + i * b for i, j in enumerate(bag_v) if vmask[j] & hb)
        return {cset: grow(g, inc, hb, dict(g)) for cset, g in table.items()}

    def start(bag):
        """The table of a bag with no child: the empty committee, then every
        vertex of the bag introduced."""
        nonlocal nodes
        nodes += 1
        return chain({0: {0: 0}}, (), frozenset(), bag)

    def lifted(c, bag):
        """Child bag c's table, carried up to its parent's bag ``bag``."""
        sub = tables.pop(c) if td.children(c) else start(bags[c])
        return chain(*sub, bags[c], bag)

    bags = td.bags
    nodes = 0
    tables = {}  # bag index -> (table, the bag's votes, sorted)
    for x in range(len(bags)):
        kids = td.children(x)
        if not kids and x != td.root:
            continue  # a leaf bag is taken up by its parent
        bag = bags[x]
        general, voters, candidates = [], [], []
        for c in kids:
            own = bags[c] - bag
            if td.children(c) or len(own) > 1:
                general.append(c)
            else:
                # a leaf bag with one vertex of its own folds into this one; a
                # leaf bag within this one adds nothing
                for h in own:
                    (voters if h >= m else candidates).append(h)
        table, bag_v = lifted(general[0], bag) if general else start(bag)
        # votes before the joins, where MAV's dropped groups save the most;
        # candidates after them, since each grows the table
        for h in voters:
            table = fold(table, bag_v, h)
        for c in general[1:]:
            table = join(table, lifted(c, bag)[0], bag_v)
            nodes += 1
        for h in candidates:
            table = fold(table, bag_v, h)
        count(table)
        tables[x] = table, bag_v
    table, _ = chain(*tables.pop(td.root), bags[td.root], frozenset())
    # every vertex is forgotten: the one key left is k' = k
    entry = table.get(0, {}).get(k)
    stats = {"max_entries": max_entries, "nodes": nodes, "width": width}
    # the root re-score is what guards the integer table arithmetic; a CCAV or
    # PAV table always holds the root entry, so its absence is a fault
    if entry is None:
        return answer(instance, algorithm, stats, optimal=rule != MAV)
    witness = tuple(c for c in range(m) if entry & bit[c])
    opt = Fraction(entry >> m, scale) if rule != MAV else None
    return answer(instance, algorithm, stats, witness, opt)


def ccav_tw_dp(instance, td):
    """Exact CCAV optimum; mu marks which bag votes the committee covers."""
    return _run_mu_dp(instance, td)


def pav_tw_dp(instance, td):
    """Exact PAV optimum; mu tracks each bag vote's committee overlap."""
    return _run_mu_dp(instance, td)


def mav_tw_dp(instance, td):
    """MAV decision; a vote is checked against the distance threshold when
    it is forgotten, using 2 * mu >= k + |v| - d."""
    return _run_mu_dp(instance, td)
