"""Polynomial-time special cases.

Covered: every vote approves at most one candidate (all rules); every candidate
approved at most twice (MAV via exact b-edge cover, CCAV via matching); every
candidate approved at most once (PAV); both degrees at most two (PAV via a
k-way merge of the components' marginal gains).

CCAV and PAV read their committees off one matching-first candidate order of
the vote multigraph: each j-prefix of the order, or of a component's part of
it, is an optimal j-committee, so one maximum matching per election serves
every committee size.  Every route takes the ``core.Instance`` it answers
and returns through ``core.answer``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from . import graphs
from .core import answer, fill_committee, scaled_harmonics


def av_optimal(instance):
    """The k candidates with most approvals, ties by smallest index.

    With every vote approving at most one candidate this committee is
    simultaneously optimal under MAV, CCAV, and PAV.
    """
    e = instance.election
    counts = e.approver_counts
    order = sorted(range(e.m), key=lambda c: (-counts[c], c))
    return answer(instance, "av_optimal", {}, order[: instance.k], optimal=True)


def mav_deg2(instance):
    """MAV decision with every candidate approved at most twice.

    Distances are integers, so the threshold is d rounded down.  Votes whose
    distance can never exceed d are dropped; the rest becomes an exact
    b-edge cover question on the vote multigraph: pick exactly k
    candidate-edges meeting each kept vote v at least ceil((|v|+k-d)/2) times.
    """
    e = instance.election
    k, d = instance.k, math.floor(instance.d)
    if d < 0:
        return answer(instance, "mav_deg2", {"kept_votes": e.n})
    kept = [j for j, v in enumerate(e.votes) if d < len(v) + k]
    if not kept:
        return answer(instance, "mav_deg2", {"kept_votes": 0}, range(k))
    pos = {j: i for i, j in enumerate(kept)}
    edges = [tuple(pos[j] for j in ends if j in pos) for ends in graphs.multigraph_rep(e)]
    f = [(len(e.votes[j]) + k - d + 1) // 2 for j in kept]
    cover = graphs.simple_b_edge_cover_exact(len(kept), edges, f, k)
    return answer(instance, "mav_deg2", {"kept_votes": len(kept)}, cover)


def _matching_order(n, edges, cands):
    """Matching-first order of ``cands`` (increasing) and its matching size.

    Loops are dropped and each set of parallel candidate-edges is kept as its
    smallest index; one maximum matching of the votes then gives the order:
    the matched candidates (sorted), each unmatched vote's smallest incident
    candidate, and the rest by index.  No two unmatched votes share a
    candidate, or the matching would not be maximum.
    """
    adj = [[] for _ in range(n)]
    smallest = [-1] * n
    pairs = {}
    for c in cands:
        ends = edges[c]
        for v in ends:
            if smallest[v] < 0:
                smallest[v] = c
        if len(ends) == 2 and ends not in pairs:
            pairs[ends] = c
            v, w = ends
            adj[v].append(w)
            adj[w].append(v)
    for nbrs in adj:
        nbrs.sort()
    mate = graphs._mates(adj)
    order = sorted(pairs[v, w] for v, w in enumerate(mate) if v < w)
    matched = len(order)
    order += [c for v, c in enumerate(smallest) if c >= 0 and mate[v] < 0]
    taken = set(order)
    order += [c for c in cands if c not in taken]
    return order, matched


def ccav_deg2(instance):
    """CCAV with every candidate approved at most twice, via maximum matching.

    The first k candidates of the matching-first order form an optimal
    committee.
    """
    e = instance.election
    order, matched = _matching_order(e.n, graphs.multigraph_rep(e), range(e.m))
    return answer(instance, "ccav_deg2", {"matching": matched}, order[: instance.k], optimal=True)


def pav_deg1(instance):
    """PAV with every candidate approved at most once, by cyclic greedy.

    Votes are served round-robin, one fresh approved candidate per turn; by
    concavity of the harmonic gains this reaches the optimal score.
    """
    e = instance.election
    k = instance.k
    pools = [sorted(v) for v in e.votes]
    w = []
    progress = True
    while len(w) < k and progress:
        progress = False
        for pool in pools:
            if len(w) == k:
                break
            if pool:
                w.append(pool.pop(0))
                progress = True
    return answer(instance, "pav_deg1", {}, fill_committee(w, k, range(e.m)), optimal=True)


# ---------------------------------------------------------------------------
# PAV with both degrees at most two
# ---------------------------------------------------------------------------

def pav_deg22(instance):
    """PAV with both degrees at most two: the k largest gains over all components.

    Every component of the vote multigraph is a path, cycle, hairstick, or
    double-loop hairstick; candidates approved by nobody add gain 0.  Each
    component's order is the matching-first order of its candidate-edges,
    then its loops in increasing order: the gains along it never increase, so the k largest,
    each component's a prefix, are optimal (Ibaraki and Katoh, Resource
    Allocation Problems, 1988, ch. 4).  Gains are doubled PAV values.

    One matching-first order over the whole multigraph serves every
    component: the matching never joins two components, so read within a
    component it is that component's own order.
    """
    e = instance.election
    if any(len(v) > 2 for v in e.votes):
        raise ValueError("a vote approves more than two candidates")
    edges = graphs.multigraph_rep(e)
    root = list(range(e.n))
    pairs, loops, free = [], [], []
    for c, ends in enumerate(edges):
        if len(ends) == 2:
            pairs.append(c)
            root[graphs._find(root, ends[1])] = graphs._find(root, ends[0])
        else:
            (loops if ends else free).append(c)
    # component ids from 1 in vote order: profile 0 holds the free candidates
    ids = {}
    comp = [ids.setdefault(graphs._find(root, v), len(ids) + 1) for v in range(e.n)]
    scale, hsum = scaled_harmonics(2)
    cov = [0] * e.n
    # per component: (-gain, candidate) in order, after the free candidates
    profiles = [[(0, c) for c in free]] + [[] for _ in ids]
    for c in _matching_order(e.n, edges, pairs)[0] + loops:
        ends = edges[c]
        gain = 0
        for v in ends:
            gain += hsum[cov[v] + 1] - hsum[cov[v]]
            cov[v] += 1
        profiles[comp[ends[0]]].append((-gain, c))
    # merge consumes each profile in order, so a component's picks are a prefix
    # of its order; equal gains go to the smaller candidate
    picked = list(itertools.islice(heapq.merge(*profiles), instance.k))
    return answer(instance, "pav_deg22", {"components": len(ids), "free": len(free)},
                  [c for _, c in picked], Fraction(-sum(g for g, _ in picked), scale))
