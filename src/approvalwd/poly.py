"""Polynomial-time special cases.

Covered: every vote approves at most one candidate (all rules); every candidate
approved at most twice (MAV via exact b-edge cover, CCAV via matching); every
candidate approved at most once (PAV); both degrees at most two (PAV via a
k-way merge of the components' marginal gains).

CCAV and every PAV component read their committees off one matching-first
candidate order of the vote multigraph: each j-prefix of the order is an
optimal j-committee, so one maximum matching serves every committee size.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from . import graphs
from .core import answer, fill_committee, scaled_harmonics


def av_optimal(election, k):
    """The k candidates with most approvals, ties by smallest index.

    With every vote approving at most one candidate this committee is
    simultaneously optimal under MAV, CCAV, and PAV.
    """
    counts = election.approver_counts()
    order = sorted(range(election.m), key=lambda c: (-counts[c], c))
    return tuple(sorted(order[:k]))


def mav_deg2(instance):
    """MAV decision with every candidate approved at most twice.

    Votes whose distance can never exceed d are dropped; the rest becomes an
    exact b-edge cover question on the vote multigraph: pick exactly k
    candidate-edges meeting each kept vote v at least ceil((|v|+k-d)/2) times.
    """
    e = instance.election
    k, d = instance.k, instance.d
    if d < 0:
        return answer(instance, "mav_deg2", {"kept_votes": e.n})
    kept = [j for j, v in enumerate(e.votes) if d < len(v) + k]
    if not kept:
        return answer(instance, "mav_deg2", {"kept_votes": 0}, range(k))
    pos = {j: i for i, j in enumerate(kept)}
    edges = [
        tuple(pos[j] for j in endpoints if j in pos)
        for endpoints in graphs.multigraph_rep(e).edges
    ]
    f = [math.ceil((len(e.votes[j]) + k - d) / 2) for j in kept]
    cover = graphs.simple_b_edge_cover_exact(len(kept), edges, f, k)
    return answer(instance, "mav_deg2", {"kept_votes": len(kept)}, cover)


def _matching_order(mg, votes, cands):
    """Matching-first order of ``cands`` (increasing) and its matching size.

    Loops are dropped and each set of parallel candidate-edges is kept as its
    smallest index; one maximum matching on ``votes`` then gives the order:
    the matched candidates (sorted), each unmatched vote's smallest incident
    candidate, and the rest by index.  No two unmatched votes share a
    candidate, or the matching would not be maximum.
    """
    pairs = {}
    smallest = {}
    for c in cands:
        endpoints = mg.edges[c]
        for v in endpoints:
            smallest.setdefault(v, c)
        if len(endpoints) == 2:
            pairs.setdefault(endpoints, c)
    matching = graphs.max_matching(graphs.Graph(votes, pairs))
    order = sorted(pairs[tuple(sorted(edge))] for edge in matching)
    touched = set().union(*matching)
    order += [smallest[v] for v in sorted(votes) if v not in touched and v in smallest]
    taken = set(order)
    order += [c for c in cands if c not in taken]
    return order, len(matching)


def ccav_deg2(instance):
    """CCAV with every candidate approved at most twice, via maximum matching.

    The first k candidates of the matching-first order form an optimal
    committee.
    """
    e = instance.election
    order, matched = _matching_order(graphs.multigraph_rep(e), range(e.n), range(e.m))
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

def pav_component_order(mg, votes, cands, kind):
    """Order of one component's candidates whose j-prefix is an optimal j-committee.

    Paths and cycles go matching-first; a hairstick puts its loop last, and a
    double-loop hairstick its two loops, the smaller one first.
    """
    if kind not in ("path", "cycle", "hairstick", "dh-hairstick"):
        raise ValueError(f"cannot optimize component kind {kind!r}")
    loops = [c for c in cands if len(mg.edges[c]) == 1]
    rest = [c for c in cands if len(mg.edges[c]) == 2]
    return _matching_order(mg, votes, rest)[0] + loops


def pav_deg22(instance):
    """PAV with both degrees at most two: the k largest gains over all components.

    Every component of the vote multigraph is a path, cycle, hairstick, or
    double-loop hairstick; candidates approved by nobody add gain 0.  The
    gains along a ``pav_component_order`` never increase, so the k largest,
    each component's a prefix, are optimal (Ibaraki and Katoh, Resource
    Allocation Problems, 1988, ch. 4).  Gains are doubled PAV values.
    """
    e = instance.election
    mg = graphs.multigraph_rep(e)
    comps, free = graphs.multigraph_components(mg)
    scale, hsum = scaled_harmonics(2)
    cov = [0] * e.n
    profiles = [[(0, c) for c in free]]  # per component: (-gain, candidate) in order
    for votes, cands in comps:
        kind = graphs.classify_component(votes, {c: mg.edges[c] for c in cands})
        profile = []
        for c in pav_component_order(mg, votes, cands, kind):
            gain = 0
            for v in mg.edges[c]:
                gain += hsum[cov[v] + 1] - hsum[cov[v]]
                cov[v] += 1
            profile.append((-gain, c))
        profiles.append(profile)
    # merge consumes each profile in order, so a component's picks are a prefix
    # of its order; equal gains go to the smaller candidate
    picked = list(itertools.islice(heapq.merge(*profiles), instance.k))
    return answer(instance, "pav_deg22", {"components": len(comps), "free": len(free)},
                  [c for _, c in picked], Fraction(-sum(g for g, _ in picked), scale))
