"""Independent ground truth and answer checking for the benchmark.

Nothing here imports approvalwd: the scorer, the exact solvers and the
verdict checker are the benchmark's own, so an expected answer never comes
from the route being timed.

Elections are ``(m, votes)`` with ``votes`` a tuple of sorted tuples of
candidate indices.  Rules are ``"mav"``, ``"ccav"`` and ``"pav"``.  MAV asks
for score <= d, CCAV and PAV for score >= d.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def harmonic(i):
    return sum((Fraction(1, t) for t in range(1, i + 1)), Fraction(0))


def score(votes, rule, committee):
    """Exact score of a committee, straight from the rule definitions."""
    w = set(committee)
    if rule == "mav":
        return Fraction(max((len(set(v) ^ w) for v in votes), default=0))
    if rule == "ccav":
        return Fraction(sum(1 for v in votes if w.intersection(v)))
    return sum((harmonic(len(w.intersection(v))) for v in votes), Fraction(0))


def meets(rule, value, d):
    return value <= d if rule == "mav" else value >= d


# ---------------------------------------------------------------------------
# Exhaustive search over k-committees on bitmasks (small m or small C(m, k))
# ---------------------------------------------------------------------------

def exhaustive_opt(m, votes, rule, k):
    """Optimal score over all k-committees, vectorised over committees.

    Committees and votes are bitmasks over the candidates (m <= 62); the work
    is C(m, k) times n.
    """
    import numpy as np  # imported here so that the timed process never loads it

    if m > 62:
        raise ValueError("exhaustive_opt needs m <= 62")
    combos = np.array(list(itertools.combinations(range(m), k)), dtype=np.int64)
    committees = np.bitwise_or.reduce(
        np.left_shift(np.int64(1), combos), axis=1
    ) if k else np.zeros(1, dtype=np.int64)
    sizes = [len(v) for v in votes]
    scale = math.lcm(*range(1, max(sizes, default=1) + 1))
    gain = np.array([int(harmonic(i) * scale) for i in range(max(sizes, default=0) + 1)])
    acc = np.zeros(len(committees), dtype=np.int64)
    for v, size in zip(votes, sizes):
        overlap = np.bitwise_count(committees & np.int64(sum(1 << c for c in v)))
        if rule == "mav":
            np.maximum(acc, size + k - 2 * overlap.astype(np.int64), out=acc)
        elif rule == "ccav":
            acc += overlap > 0
        else:
            acc += gain[overlap]
    if rule == "mav":
        return Fraction(int(acc.min()))
    best = int(acc.max())
    return Fraction(best, scale) if rule == "pav" else Fraction(best)


# ---------------------------------------------------------------------------
# Both degrees at most two: the incidence graph is a union of paths and cycles
# ---------------------------------------------------------------------------

def _walks(m, votes):
    """Components of the incidence graph as (vertex sequence, is_cycle).

    Vertices are ("c", i) and ("v", j); consecutive vertices are adjacent.
    Requires every vertex to have degree at most two.
    """
    adj = {("c", c): [] for c in range(m)}
    for j, v in enumerate(votes):
        adj[("v", j)] = [("c", c) for c in v]
        for c in v:
            adj[("c", c)].append(("v", j))
    if any(len(nb) > 2 for nb in adj.values()):
        raise ValueError("incidence graph has a vertex of degree > 2")
    seen = set()
    out = []
    ends = [x for x in adj if len(adj[x]) < 2]
    for start in ends + list(adj):
        if start in seen:
            continue
        seq = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            nxt = [y for y in adj[cur] if y != prev and y not in seen]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            seen.add(cur)
            seq.append(cur)
        is_cycle = len(seq) > 2 and seq[0] in adj[seq[-1]]
        if is_cycle and seq[0][0] == "v":
            seq = seq[1:] + seq[:1]  # start a cycle at a candidate
        out.append((seq, is_cycle))
    return out


def _component_table(seq, is_cycle, value):
    """best[j]: best total of value(vote, overlap) over j chosen candidates.

    ``value(j, t)`` is the worth of vote j meeting the committee t times (None
    means forbidden).  Candidates are decided in walk order; a vote is scored
    once both its walk neighbours are decided.
    """
    cands = [i for i, x in enumerate(seq) if x[0] == "c"]
    if not cands:
        total = 0
        for x in seq:
            got = value(x[1], 0)
            if got is None:
                return [None]
            total += got
        return [total]
    nc = len(cands)
    firsts = (0, 1) if is_cycle else (None,)
    best = [None] * (nc + 1)
    for first in firsts:
        # state: (chosen count, last candidate chosen) -> best value
        states = {}
        for x0 in ((first,) if first is not None else (0, 1)):
            head = 0
            ok = True
            for x in seq[: cands[0]]:  # votes before the first candidate
                got = value(x[1], x0)
                if got is None:
                    ok = False
                    break
                head += got
            if ok:
                states[(x0, x0)] = head
        for a, b in zip(cands, cands[1:]):
            between = [seq[i][1] for i in range(a + 1, b)]
            nxt = {}
            for (cnt, last), val in states.items():
                for x in (0, 1):
                    total = val
                    for j in between:
                        got = value(j, last + x)
                        if got is None:
                            total = None
                            break
                        total += got
                    if total is None:
                        continue
                    key = (cnt + x, x)
                    if key not in nxt or total > nxt[key]:
                        nxt[key] = total
            states = nxt
        tail = [seq[i][1] for i in range(cands[-1] + 1, len(seq))]
        for (cnt, last), val in states.items():
            total = val
            for j in tail:
                got = value(j, last + (first or 0) if is_cycle else last)
                if got is None:
                    total = None
                    break
                total += got
            if total is not None and (best[cnt] is None or total > best[cnt]):
                best[cnt] = total
    return best


def deg2_opt(m, votes, rule, k):
    """Exact optimum when every vote and every candidate has degree <= 2."""
    walks = _walks(m, votes)
    if rule == "mav":
        sizes = [len(v) for v in votes]
        for d in range(0, k + max(sizes, default=0) + 1):
            need = [max(0, -((d - s - k) // 2)) for s in sizes]  # ceil((s+k-d)/2)
            if any(nd > s for nd, s in zip(need, sizes)):
                continue
            def value(j, t, need=need):
                return 0 if t >= need[j] else None
            low = 0
            for seq, is_cycle in walks:
                table = _component_table(seq, is_cycle, value)
                sizes_ok = [j for j, v in enumerate(table) if v is not None]
                if not sizes_ok:
                    low = None
                    break
                low += min(sizes_ok)
            if low is not None and low <= k:
                return Fraction(d)
        raise AssertionError("MAV optimum not found")
    # CCAV and PAV on the integer scale 2 (harmonic values 0, 1, 3/2)
    worth = (0, 2, 2) if rule == "ccav" else (0, 2, 3)
    def value(j, t):
        return worth[t]
    total = [0] + [None] * k
    for seq, is_cycle in walks:
        table = _component_table(seq, is_cycle, value)
        nxt = [None] * (k + 1)
        for used, base in enumerate(total):
            if base is None:
                continue
            for j, val in enumerate(table):
                if used + j > k:
                    break
                if val is not None and (nxt[used + j] is None or base + val > nxt[used + j]):
                    nxt[used + j] = base + val
        total = nxt
    return Fraction(total[k], 2)


# ---------------------------------------------------------------------------
# At most two candidates left out (dual committee size kbar <= 2)
# ---------------------------------------------------------------------------

def exclusion_opt(m, votes, rule, k):
    """Exact MAV or CCAV optimum when the committee leaves out m - k <= 2
    candidates.  The score of "all but X" only changes on votes meeting X, so
    each X is scored from the votes of its members."""
    kbar = m - k
    if not 0 <= kbar <= 2 or rule == "pav":
        raise ValueError("exclusion_opt needs m - k <= 2 and rule mav or ccav")
    choices = list(itertools.combinations(range(m), kbar))
    if rule == "ccav":
        # a nonempty vote is lost exactly when it lies inside X
        lost = {}
        for v in votes:
            if v and len(v) <= kbar:
                lost[v] = lost.get(v, 0) + 1
        nonempty = sum(1 for v in votes if v)
        return Fraction(max(
            nonempty - sum(
                lost.get(sub, 0)
                for r in range(1, kbar + 1)
                for sub in itertools.combinations(x, r)
            )
            for x in choices
        ))
    if not votes:
        return Fraction(0)
    by_cand = [[] for _ in range(m)]
    for j, v in enumerate(votes):
        for c in v:
            by_cand[c].append(j)
    # |v| + k - 2|v & w| with w = all - X equals k - |v| + 2|v & X|
    base = max(k - len(v) for v in votes)

    def value(x):
        out = base
        for c in x:
            for j in by_cand[c]:
                out = max(out, k - len(votes[j]) + 2 * len(set(votes[j]).intersection(x)))
        return out
    return Fraction(min(value(x) for x in choices))


def greedy_committee(m, votes, k):
    """A k-committee by greedy PAV marginal gain; a lower-bound certificate."""
    w = []
    overlap = [0] * len(votes)
    by_cand = [[] for _ in range(m)]
    for j, v in enumerate(votes):
        for c in v:
            by_cand[c].append(j)
    chosen = set()
    for _ in range(k):
        best_c, best_gain = None, None
        for c in range(m):
            if c in chosen:
                continue
            gain = sum((Fraction(1, overlap[j] + 1) for j in by_cand[c]), Fraction(0))
            if best_gain is None or gain > best_gain:
                best_c, best_gain = c, gain
        chosen.add(best_c)
        w.append(best_c)
        for j in by_cand[best_c]:
            overlap[j] += 1
    return tuple(sorted(w))


# ---------------------------------------------------------------------------
# Verdict checking
# ---------------------------------------------------------------------------

def forced_verdict(case):
    """The verdict that the degree bounds alone force, or None: MAV with
    d >= k + deltaV is yes; CCAV or PAV with d > k * deltaC is no."""
    votes, k, d = case["votes"], case["k"], case["d"]
    delta_v = max((len(v) for v in votes), default=0)
    counts = {}
    for v in votes:
        for c in v:
            counts[c] = counts.get(c, 0) + 1
    delta_c = max(counts.values(), default=0)
    if case["rule"] == "mav":
        return True if d >= k + delta_v else None
    return False if d > k * delta_c else None


def check(case, decision, opt_score, witness):
    """Problems with one answer, as a list of strings (empty when correct).

    ``case`` carries m, votes, rule, k, d and the expected facts: ``decision``
    (True, False or None when unknown), ``opt`` (exact optimum or None) and
    ``lower`` (a score some committee reaches, PAV and CCAV only).
    """
    problems = []
    rule, k, d = case["rule"], case["k"], case["d"]
    if case.get("decision") is not None and decision != case["decision"]:
        problems.append(f"decision {decision}, expected {case['decision']}")
    forced = forced_verdict(case)
    if forced is not None and decision != forced:
        problems.append(f"decision {decision}, but the degree bounds force {forced}")
    if witness is not None:
        if len(set(witness)) != k or len(witness) != k:
            problems.append(f"witness has {len(set(witness))} candidates, k={k}")
        if any(not 0 <= c < case["m"] for c in witness):
            problems.append("witness names a candidate out of range")
        got = score(case["votes"], rule, witness)
        if decision and not meets(rule, got, d):
            problems.append(f"witness scores {got}, misses threshold {d}")
        if opt_score is not None and got != opt_score:
            problems.append(f"optScore {opt_score} but witness re-scores to {got}")
    elif decision:
        problems.append("yes without a witness")
    if opt_score is not None:
        if case.get("opt") is not None and opt_score != case["opt"]:
            problems.append(f"optScore {opt_score}, expected {case['opt']}")
        if case.get("lower") is not None and opt_score < case["lower"]:
            problems.append(f"optScore {opt_score} below a known committee score {case['lower']}")
        if meets(rule, opt_score, d) != bool(decision):
            problems.append(f"decision {decision} contradicts optScore {opt_score}")
    return problems
