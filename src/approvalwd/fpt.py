"""Parameterized exact solvers.

One split search over class counts (standing in for the ILP machinery)
behind the MAV and PAV routes in n, in k + deltaC and in the matching number:
the matching routes fix the committee's matched part exactly and search the
rest, and the class routes are the split with nothing matched.  Besides it,
vote pruning for MAV, the set-packing route for MAV in the dual parameter,
and branch and bound for CCAV and PAV.  Both searches start from one root,
the submodular certificates (a greedy committee for yes, two bounds for
no), which dispatch runs alone before it ranks the routes.  Each
branch-and-bound search reaches a committee once: a later sibling never
re-adds (PAV) or re-excludes (CCAV) a candidate that an earlier one tried.
The count search adds up, at each node, only the votes that a class can
still reach; the settled votes ride one running total down the search.
Every search runs on one explicit-stack driver, so none recurses.  The
exhaustive route, for every rule, is one more such search.  Every route
takes the ``core.Instance`` it answers.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from .core import (
    answer,
    CCAV,
    checked_witness,
    class_partition,
    fill_committee,
    MAV,
    PAV,
    scaled_harmonics,
)
from .oracle import BudgetExceededError

CLASS_VOTE_BUDGET = 16  # the most votes a class route considers


# ---------------------------------------------------------------------------
# Search driver and the split search over class counts
# ---------------------------------------------------------------------------

def _depth_first(root):
    """Walk a search tree without recursion; returns (root's value, nodes visited).

    A search node is a generator: it yields a child node to visit it, is sent
    back the child's value, and returns its own value.  The driver keeps the
    generators of the current path on an explicit stack.
    """
    stack, value, nodes = [root], None, 1
    while True:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value, nodes
            value = done.value
        else:
            stack.append(child)
            nodes += 1
            value = None


def _count_search(classes, nv, mav, table):
    """The search over how many members of each candidate class join the committee.

    ``classes`` holds (vote positions, members) pairs over ``nv`` considered
    votes.  The returned ``search(k, start, part, floor, goal)`` walks the
    count vectors x with sum x_i = k and each x_i at most the size of class
    i, largest counts first, keeping cov[j], the number of committee members
    that vote j approves, which starts at start[j].

    A node's value caps the value of every completion of the node, and at a
    complete count vector it is the exact value.  Here reach[j] is the
    coverage that the classes from the node's level on can still add to vote
    j, and rem the members still to pick.  Under PAV (``mav`` false, ``table``
    hsum) the value is ``part`` plus every vote's hsum[cov[j] + min(rem,
    reach[j])]; under MAV (``table`` holds |v_j| + k per vote) it is the
    least of ``part`` and every vote's 2 * (cov[j] + min(rem, reach[j])) -
    table[j], a negated distance.  A vote with reach 0 is settled: its term
    is fixed for the whole subtree.  So the settled votes' share rides down
    the search as one running total, which each child updates by the votes
    that settle on entering it, and a node adds only the active votes' terms.

    Values are maximised: a node is cut when its value does not beat the best
    value so far (``floor`` before the first, None for none), and the search
    stops once a value reaches ``goal`` (None for never).  Returns (best
    value, committee, nodes visited): the committee takes the first x_i
    members of class i (members of one class score alike), and is None when
    no count vector beats ``floor``.
    """
    nc = len(classes)
    caps = [len(members) for _, members in classes]
    suffix_cap = [0] * (nc + 1)
    # active[i]: (vote, reach) for each vote that a class from level i on
    # reaches; settles[i]: the votes whose last class is level i - 1, or that
    # no class reaches at all (level 0)
    active = [()] * (nc + 1)
    settles = [[] for _ in range(nc + 1)]
    reach, last = [0] * nv, [0] * nv
    for i in range(nc - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + caps[i]
        for j in classes[i][0]:
            reach[j] += caps[i]
            last[j] = last[j] or i + 1
        active[i] = [(j, r) for j, r in enumerate(reach) if r]
    for j, level in enumerate(last):
        settles[level].append(j)

    def search(k, start, part, floor, goal):
        best_value, best = floor, None
        counts = [0] * nc
        cov = list(start)

        def settle(i, total):
            # the running total once the votes settling at level i join it
            if mav:
                for j in settles[i]:
                    term = 2 * cov[j] - table[j]
                    if term < total:
                        total = term
            else:
                for j in settles[i]:
                    total += table[cov[j]]
            return total

        def node(i, rem, settled):
            # classes before i are counted; True once a value reaches goal
            nonlocal best_value, best
            value = settled
            if mav:
                for j, r in active[i]:
                    term = 2 * (cov[j] + (rem if rem < r else r)) - table[j]
                    if term < value:
                        value = term
            else:
                for j, r in active[i]:
                    value += table[cov[j] + (rem if rem < r else r)]
            if best_value is not None and value <= best_value or rem > suffix_cap[i]:
                return False
            if i == nc:
                best_value = value
                best = [c for (_, members), x in zip(classes, counts) for c in members[:x]]
                return goal is not None and value >= goal
            support = classes[i][0]
            for x in range(min(caps[i], rem), max(0, rem - suffix_cap[i + 1]) - 1, -1):
                counts[i] = x
                for j in support:
                    cov[j] += x
                if (yield node(i + 1, rem - x, settle(i + 1, settled))):
                    return True
                for j in support:
                    cov[j] -= x
            counts[i] = 0
            return False

        _, nodes = _depth_first(node(0, k, settle(0, part)))
        return best_value, best, nodes

    return search


def _subsets(items, k):
    """The subsets of items with at most k members, smallest first."""
    for size in range(min(k, len(items)) + 1):
        yield from itertools.combinations(items, size)


def _split_search(instance, votes, matched=(), outside=(), decide=False):
    """The best MAV or PAV committee, or with ``decide`` the first that meets d.

    The committee is split at the sorted candidates ``matched``: for each part
    c' among them of at most k members (only the empty part when nothing is
    matched), the count search picks the other k - |c'| members among the
    other candidates, classed by the considered ``votes`` (vote indices), each
    vote's coverage starting at its overlap with c'.  The ``outside`` votes
    approve matched candidates only, so c' settles them: under PAV they add a
    fixed score, and under MAV c' is skipped as soon as one of them cannot
    beat the best total.  Totals are maximised, as PAV scores scaled by
    ``scaled_harmonics(k)`` or as negated largest MAV distances, and every
    node that cannot beat the best total so far is cut.  A decision is the
    same search from the floor goal - 1 that stops once a total reaches goal,
    the value of meeting d.  The count search takes the rule's per-vote table
    (PAV's hsum, MAV's |v| + k) and the outside votes' fixed part, and sums
    at each node only the votes that a class can still reach: the others are
    settled, and ride one running total.  With nothing matched, at most
    CLASS_VOTE_BUDGET votes are considered.

    Returns (optimum, committee, nodes, subinstances): the optimum is None in
    the decision form, the committee None where none is found, nodes sums the
    count searches' nodes and subinstances counts the parts c'.
    """
    e, k = instance.election, instance.k
    if not matched and len(votes) > CLASS_VOTE_BUDGET:
        raise BudgetExceededError(f"{len(votes)} votes exceeds budget {CLASS_VOTE_BUDGET}")
    votes = sorted(votes)
    taken = set(matched)
    rests = ((support, tuple(c for c in members if c not in taken))
             for support, members in class_partition(e, votes))
    classes = sorted(((support, rest) for support, rest in rests if rest), key=lambda cls: cls[1])
    considered = [e.votes[j] for j in votes]
    mav = instance.rule == MAV
    if mav:
        scale, goal = 1, -math.floor(instance.d)
        table = [len(v) + k for v in considered]

        def settle(cp, best):
            # the outside votes' least value, or None once one cannot beat best
            least = 0
            for v in outside:
                least = min(least, 2 * len(v & cp) - len(v) - k)
                if best is not None and least <= best:
                    return None
            return least
    else:
        scale, table = scaled_harmonics(k)
        goal = math.ceil(instance.d * scale)

        def settle(cp, best):
            return sum(table[len(v & cp)] for v in outside)

    search = _count_search(classes, len(votes), mav, table)
    best, witness, nodes, subinstances = goal - 1 if decide else None, None, 0, 0
    for cprime in _subsets(matched, k):
        subinstances += 1
        cp = set(cprime)
        part = settle(cp, best)
        if part is None:
            continue
        value, picks, visited = search(k - len(cprime), [len(v & cp) for v in considered],
                                       part, best, goal if decide else None)
        nodes += visited
        if picks is not None:
            best, witness = value, [*cprime, *picks]
            if decide:
                break
    if decide:
        return None, witness, nodes, subinstances
    # the exact re-score in ``answer`` guards the scaled integer totals
    return Fraction(-best if mav else best, scale), witness, nodes, subinstances


def mav_by_classes(instance):
    """Exact MAV optimum by search over per-class selection counts."""
    opt, witness, nodes, _ = _split_search(instance, range(instance.election.n))
    return answer(instance, "mav_by_classes", {"nodes": nodes}, witness, opt)


def mav_k_deltac(instance, decide=False):
    """MAV after pruning to the k * deltaC + 1 largest votes.

    Any k-committee leaves one of the kept votes completely unserved, and that
    vote's distance dominates every dropped (smaller) vote's distance, so
    every committee's distance, and the optimum, is preserved exactly: the
    classes are taken with respect to the kept votes only, and ``answer``
    re-checks the optimum on every vote.
    """
    e = instance.election
    order = sorted(range(e.n), key=lambda j: (-len(e.votes[j]), j))
    opt, witness, nodes, _ = _split_search(instance, order[: instance.k * e.delta_c + 1],
                                           decide=decide)
    return answer(instance, "mav_k_deltac", {"nodes": nodes}, witness, opt)


def pav_annotated(instance, decide=False):
    """Exact PAV optimum by the class-count search over every vote.

    Annotated PAV fixes part of the committee; ``pav_by_matching`` solves it
    once for each guessed matched part, and here nothing is fixed.
    """
    opt, witness, nodes, _ = _split_search(instance, range(instance.election.n), decide=decide)
    return answer(instance, "pav_annotated", {"nodes": nodes}, witness, opt)


# ---------------------------------------------------------------------------
# Generalized set packing and the dual-parameter MAV route
# ---------------------------------------------------------------------------

def grsp_solve(sets, f, kappa):
    """Generalized set packing: pick kappa of the sets, element u in at most f[u].

    Depth-kappa backtracking with capacity pruning.  Returns (yes, selected
    set indices, nodes visited).  Sets containing a zero-capacity element can
    never be picked and are filtered up front.
    """
    usable = [i for i, s in enumerate(sets) if all(f.get(u, 0) >= 1 for u in s)]
    if kappa > len(usable):
        return False, None, 0
    remaining = dict(f)
    chosen = []

    def dfs(pos, need):
        # a search node: True once need more sets from usable[pos:] fit
        if need == 0:
            return True
        for idx in range(pos, len(usable)):
            if len(usable) - idx < need:
                return False
            s = sets[usable[idx]]
            if all(remaining[u] >= 1 for u in s):
                for u in s:
                    remaining[u] -= 1
                chosen.append(usable[idx])
                if (yield dfs(idx + 1, need - 1)):
                    return True
                chosen.pop()
                for u in s:
                    remaining[u] += 1
        return False

    ok, nodes = _depth_first(dfs(0, kappa))
    return ok, tuple(chosen) if ok else None, nodes


def mav_dual_grsp(instance):
    """MAV decision via set packing over the candidates to exclude.

    Excluding candidate c takes vote v's committee overlap down by [v in V(c)];
    vote v tolerates losing at most floor((d+|v|-k)/2) approved candidates, so
    the k-bar exclusions form a generalized set packing of the sets V(c) over
    the votes.  Since |v| - k is an integer, that capacity is
    (floor(d) + |v| - k) // 2.
    """
    e = instance.election
    k, d = instance.k, instance.d
    floor_d = math.floor(d)
    if floor_d < 0 or any(len(v) < k and floor_d < k - len(v) for v in e.votes):
        return answer(instance, "mav_dual_grsp", {"nodes": 0})
    f = {j: (floor_d + len(v) - k) // 2 for j, v in enumerate(e.votes)}
    ok, removed, nodes = grsp_solve(tuple(map(frozenset, e.approver_sets())), f, e.m - k)
    w = set(range(e.m)).difference(removed) if ok else None
    return answer(instance, "mav_dual_grsp", {"nodes": nodes}, w)


# ---------------------------------------------------------------------------
# Branch and bound: CCAV in the dual parameter
# ---------------------------------------------------------------------------

def ccav_bb_dual(instance, root_only=False):
    """CCAV decision branching on candidates excluded from the committee.

    State shrinks to the votes that a committee might still miss; a witness
    found in any shrunken state is a valid committee for the original
    instance because every dropped vote is guaranteed covered.

    Each committee is searched once: once excluding x fails, no committee
    that keeps the node's ``kept`` candidates excludes x, so every later
    sibling and its subtree keep x too.  A kept candidate is neither
    dropped as unapproved nor branched on: cstar, the candidate of fewest
    single-member votes, is chosen among the others, and a node with none
    returns None.

    The route starts from the root certificates of ``_submodular_root``,
    which answer with 0 nodes where they decide, and searches only where
    they leave the instance undecided.  With ``root_only``, which dispatch
    passes, it stops at the root and returns None there.
    """
    res = _root_answer(instance, "ccav_bb_dual", {"nodes": 0})
    if root_only or res is not None:
        return res
    e = instance.election
    k = instance.k

    def solve(candset, votes, d, kept):
        # a search node: a witness, or None when no committee of this state
        # that keeps every member of kept meets d
        ve = [v & candset for v in votes]
        ve = [v for v in ve if v]
        approved = set().union(*ve) if ve else set()
        kbar = len(candset) - k
        unapproved = sorted(candset - approved - kept, reverse=True)
        drop = unapproved[: min(len(unapproved), kbar)]
        candset = candset - set(drop)
        kbar = len(candset) - k
        if d <= 0:
            return tuple(sorted(candset)[:k])
        if kbar == 0:
            if len(ve) >= d:
                return tuple(sorted(candset))
            return None
        u_votes = [v for v in ve if len(v) <= kbar]
        b = sorted(set().union(*u_votes)) if u_votes else []
        if not u_votes or len(b) <= k:
            if len(ve) >= d:
                return fill_committee(b, k, sorted(candset))
            return None
        open_b = [c for c in b if c not in kept]
        if not open_b:
            return None
        singles = {c: 0 for c in b}
        for v in u_votes:
            if len(v) == 1:
                singles[next(iter(v))] += 1
        cstar = min(open_b, key=lambda c: (singles[c], c))
        branch_set = sorted(set().union(*[v for v in u_votes if cstar in v]) - kept)
        d_next = d - (len(ve) - len(u_votes))
        for x in branch_set:
            res = yield solve(candset - {x}, u_votes, d_next, kept)
            if res is not None:
                return res
            kept = kept | {x}
        return None

    w, nodes = _depth_first(solve(frozenset(range(e.m)), list(e.votes), instance.d, frozenset()))
    return answer(instance, "ccav_bb_dual", {"nodes": nodes}, w)


# ---------------------------------------------------------------------------
# Path state, the CCAV and PAV root certificates, and branch and bound: PAV
# in d + deltaV
# ---------------------------------------------------------------------------

def _steps(rule, k, delta_v):
    """(scale, step): a CCAV or PAV score as a table of per-vote steps.

    A vote approving x committee members gains step[x] from one more, in
    integers over ``scale``, for 0 <= x <= deltaV.  CCAV steps are (1, 0,
    ...).  PAV steps are those of ``scaled_harmonics(min(k, deltaV))``, 0 past
    that bound: the truncated score is still submodular, and it equals PAV on
    every committee of at most k members.
    """
    if rule == CCAV:
        return 1, (1,) + (0,) * delta_v
    bound = min(k, delta_v)
    scale, _ = scaled_harmonics(bound)
    return scale, tuple(scale // x for x in range(1, bound + 1)) + (0,) * (delta_v - bound + 1)


class _PavPath:
    """Each vote's overlap cov[j] with a committee path and each candidate's gain[c].

    Under PAV or CCAV, by the table ``step`` of ``_steps``: gain[c] sums
    step[cov[j]] over c's votes, what c adds to the path's scaled score
    unless c is on it.  The path starts empty, or at the overlaps ``cov``.  ``move(c, ±1)`` puts c on
    the path or takes it off, and updates only the gains on c's votes
    (Minoux's accelerated greedy, by submodularity).  The approver sets that
    ``move`` needs are built on the first move.
    """

    def __init__(self, election, step, cov=None):
        self.step, self._election, self._votes = step, election, election.votes
        self._approvers = None
        if cov is None:
            self.cov = [0] * election.n
            self.gain = [count * step[0] for count in election.approver_counts]
        else:
            self.cov, self.gain = cov, [0] * election.m
            for v, x in zip(election.votes, cov):
                if step[x]:
                    for c in v:
                        self.gain[c] += step[x]

    @property
    def approvers(self):
        if self._approvers is None:
            self._approvers = self._election.approver_sets()
        return self._approvers

    def move(self, c, by):
        step, cov, gain, votes = self.step, self.cov, self.gain, self._votes
        for j in (self._approvers or self.approvers)[c]:
            before = step[cov[j]]
            cov[j] += by
            delta = step[cov[j]] - before
            for x in votes[j]:
                gain[x] += delta


def _forward_greedy(election, k, step, need):
    """Picks of largest gain, first in candidate order, until the total reaches need.

    Returns the picks, topped up to k members, once it does.  At every prefix
    S, OPT <= f(S) + the k largest gains at S (Nemhauser, Wolsey & Fisher
    1978; k, not k - |S|, as S need not lie in an optimum), so False once
    that misses need; None after k picks that prove neither.
    """
    path = _PavPath(election, step)
    gain, total, picks, free = path.gain, 0, [], list(range(election.m))
    while total < need:
        gains = [gain[c] for c in free]
        best = max(gains)
        # the k largest of the m - |S| >= k gains sum to at most k * best and
        # at least best and k times their mean: sort them only where those
        # bounds do not decide
        if total + best < need and (total + k * best < need or (
                total + k * sum(gains) // len(gains) < need
                and total + sum(sorted(gains, reverse=True)[:k]) < need)):
            return False
        if len(picks) == k:
            return None
        c = free.pop(gains.index(best))
        total += best
        path.move(c, 1)
        picks.append(c)
    return fill_committee(picks, k, range(election.m))


def _reverse_greedy(election, k, step, need):
    """The candidates left after dropping the m - k of least loss, if they reach need.

    From C, every candidate, each drop takes off the member whose removal
    loses least.  Removing a set loses at least the sum of its members'
    single losses at C, so OPT <= f(C) - the m - k smallest of them: False
    when that misses need.  None when the greedy's total falls below need.
    """
    # with the table shifted by one, a member's gain is what removing it loses
    cov = list(map(len, election.votes))
    path = _PavPath(election, (0,) + step, cov)
    loss, drops = path.gain, election.m - k
    value = list(itertools.accumulate(step, initial=0))  # a vote's score at each overlap
    total = sum(value[x] for x in cov)
    if total - sum(sorted(loss)[:drops]) < need:
        return False
    # losses only grow as members go, so a heap entry that is still current
    # is the least loss
    heap = list(zip(loss, range(election.m)))
    heapq.heapify(heap)
    for _ in range(drops):
        x, c = heapq.heappop(heap)
        while x != loss[c]:
            x, c = heapq.heappushpop(heap, (loss[c], c))
        total -= x
        if total < need:
            return None
        path.move(c, -1)
    return [c for _, c in heap]


def _submodular_root(instance):
    """A CCAV or PAV committee that meets d, False where none can, or None.

    The one root of ``ccav_bb_dual`` and ``pav_bb_dv``.  Both scores are
    monotone submodular, and the checks run cheapest first: d <= 0 takes
    any committee and k = 0 none; one candidate whose approval count meets
    d is a yes, the first such one topped up; the k largest counts summing
    below d is a no; then, on ``_steps``' scaled integers, where 2k <= m,
    ``_forward_greedy``, and otherwise ``_reverse_greedy``.  The caller
    re-scores a yes exactly.

    Dispatch reaches the root through a route's ``root_only`` keyword, not
    directly, because perfbench's tracer counts a route as tried only
    through a traced route name; calling the root directly waits on a
    benchmark change that traces it.
    """
    e, k, d = instance.election, instance.k, instance.d
    if d <= 0:
        return fill_committee((), k, range(e.m))
    if k == 0:
        return False
    counts = e.approver_counts
    if max(counts) >= d:
        first = next(c for c, x in enumerate(counts) if x >= d)
        return fill_committee((first,), k, range(e.m))
    if sum(sorted(counts)[e.m - k:]) < d:
        return False
    scale, step = _steps(instance.rule, k, e.delta_v)
    need = math.ceil(d * scale)
    return (_forward_greedy if 2 * k <= e.m else _reverse_greedy)(e, k, step, need)


def _root_answer(instance, algorithm, stats):
    """The route's answer from ``_submodular_root``, or None where it leaves
    the instance undecided."""
    found = _submodular_root(instance)
    if found is None:
        return None
    return answer(instance, algorithm, stats, None if found is False else found)


def pav_bb_dv(instance, root_only=False):
    """PAV decision branching toward a high-scoring committee.

    At each node the best-marginal candidate c defines the branch set: the
    candidates approved by votes approving c.  Search depth is capped at
    ceil(d * deltaV) since each branch step gains at least 1/deltaV.  PAV is
    monotone submodular, so r more picks add at most the r largest marginal
    gains at a node: a node whose score plus that sum, for the picks left
    under the cap, misses d holds no committee meeting d and is cut
    (``stats["pruned"]``).

    Each committee is searched once: once child x fails, no committee
    meeting d holds s_set and x and avoids the node's closed candidates, so
    x is closed to every later sibling and its subtree.  cbest, the cut's
    gains and the branch set read only the candidates that are neither on
    the path nor closed, and a node with none returns None.  cbest is the
    best of those allowed candidates, so the exchange argument still holds
    and the decision is exact; the witness, whichever committee the search
    meets first, is re-scored by ``core.answer``.

    The route starts from the root certificates of ``_submodular_root``,
    which answer with 0 nodes where they decide, and searches only where
    they leave the instance undecided; they decide every instance whose
    approved candidates all fit in the committee.  With ``root_only``,
    which dispatch passes, it stops at the root and returns None there.
    """
    e = instance.election
    k, d = instance.k, instance.d
    stats = {"nodes": 0, "max_branch": 0, "pruned": 0}
    res = _root_answer(instance, "pav_bb_dv", stats)
    if root_only or res is not None:
        return res
    counts = e.approver_counts
    # a committee meets d iff its scaled score reaches need; an overlap never
    # exceeds min(k, |v|), so the path state scales by lcm(1..min(k, deltaV))
    delta_v = e.delta_v
    scale, step = _steps(PAV, k, delta_v)
    state = _PavPath(e, step)
    approvers, gain, move = state.approvers, state.gain, state.move
    need = math.ceil(d * scale)
    capp = [c for c in range(e.m) if counts[c] > 0]
    depth_cap = min(k, math.ceil(d * delta_v))

    def dfs(s_set, total, closed):
        # a search node: a committee meeting need that holds s_set and
        # avoids the rest of closed, or None; closed holds s_set and every
        # candidate an earlier sibling on the path added
        if total >= need:
            return s_set
        if len(s_set) >= depth_cap:
            return None
        # cbest is the first of the largest allowed gains in capp order
        free = [c for c in capp if c not in closed]
        if not free:
            return None
        cbest = max(free, key=gain.__getitem__)
        mbest = gain[cbest]
        # the left largest gains sum to between mbest and left * mbest:
        # sort them only where those two bounds do not decide the cut
        left = depth_cap - len(s_set)
        if total + mbest < need and (
                total + mbest * left < need
                or total + sum(sorted([gain[c] for c in free], reverse=True)[:left]) < need):
            stats["pruned"] += 1
            return None
        branch = set()
        for j in approvers[cbest]:
            branch.update(e.votes[j])
        branch -= closed
        stats["max_branch"] = max(stats["max_branch"], len(branch))
        for x in sorted(branch):
            # x joins this child and is closed to every later sibling
            closed = closed | {x}
            step = gain[x]
            move(x, 1)
            res = yield dfs(s_set | {x}, total + step, closed)
            move(x, -1)
            if res is not None:
                return res
        return None

    found, stats["nodes"] = _depth_first(dfs(frozenset(), 0, frozenset()))
    return answer(instance, "pav_bb_dv", stats,
                  None if found is None else fill_committee(found, k, range(e.m)))


# ---------------------------------------------------------------------------
# Matching-parameter solvers
# ---------------------------------------------------------------------------

def _matching_split(election, matching):
    """The sorted matched candidates, the sorted matched votes' indices and the
    other votes, which approve only matched candidates when the matching is
    maximum."""
    m = election.m
    cands, votes = set(), set()
    for edge in matching:
        a, b = sorted(edge)
        cands.add(a)
        votes.add(b - m)
    outside = [v for j, v in enumerate(election.votes) if j not in votes]
    checked_witness(outside, lambda vs: all(v <= cands for v in vs), "matching split")
    return sorted(cands), sorted(votes), outside


def mav_by_matching(instance, matching):
    """MAV decision split over intersections with a maximum-matching cover.

    Votes outside the matching only approve matched candidates, so fixing the
    committee's overlap with the matched candidates settles them outright;
    the matched votes reduce to a class-count covering question.
    """
    if instance.d < 0:
        return answer(instance, "mav_by_matching", {})
    matched, votes, outside = _matching_split(instance.election, matching)
    _, witness, _, subinstances = _split_search(instance, votes, matched, outside, decide=True)
    return answer(instance, "mav_by_matching", {"subinstances": subinstances}, witness)


def pav_by_matching(instance, matching):
    """Exact PAV optimum split over intersections with the matched candidates.

    Each subinstance fixes the committee's matched part c': the outside votes
    then score a fixed amount, and the count search picks the rest among the
    unmatched candidates, each matched vote's coverage starting at its overlap
    with c'.  It cuts every node that cannot beat the best total so far.
    """
    matched, votes, outside = _matching_split(instance.election, matching)
    opt, witness, _, subinstances = _split_search(instance, votes, matched, outside)
    return answer(instance, "pav_by_matching", {"subinstances": subinstances}, witness, opt)


# ---------------------------------------------------------------------------
# Exhaustive search: every rule, scored along the path
# ---------------------------------------------------------------------------

def exhaustive(instance, decide=False):
    """Exact optimum over every k-committee, for any rule, without re-scoring.

    The committees are walked in lexicographic order on ``_depth_first``: a
    search node holds the first members and yields one child per next member,
    down to k - 2 members, and the last two members are plain loops over the
    candidates left (``stats["nodes"]`` counts the nodes).  The path carries
    each rule's state and a committee's value is read off it: CCAV ORs each
    member's bitmask of approving votes and counts the bits; PAV reads the
    marginal gains of ``_PavPath`` (no overlap exceeds min(k, deltaV)); MAV
    keeps every vote's distance |v| + k - 2 * overlap and reads the largest.
    The first strictly better committee is kept, so the witness is the
    lexicographically first optimum, as ``oracle.brute_force``'s is.  With
    ``decide`` the walk stops at the first committee that meets d and reports
    no optimum.
    """
    e = instance.election
    k, m, rule = instance.k, e.m, instance.rule
    if k == 0:
        return answer(instance, "exhaustive", {"nodes": 0}, (), optimal=True)
    scale = 1
    if rule == CCAV:
        masks = [sum(1 << j for j in voters) for voters in e.approver_sets()]

        def join(mask, c):
            return mask | masks[c]

        def leave(c):
            pass

        def leaves(mask, lo):
            return [(mask | bits).bit_count() for bits in masks[lo:]]
    elif rule == PAV:
        scale, step = _steps(PAV, k, e.delta_v)
        state = _PavPath(e, step)
        gain, move = state.gain, state.move

        def join(total, c):
            total += gain[c]
            move(c, 1)
            return total

        def leave(c):
            move(c, -1)

        def leaves(total, lo):
            return [total + g for g in gain[lo:]]
    else:
        # the search maximises, so MAV gets the negated largest distance.  With
        # the last member c, the largest is top while a vote at top does not
        # approve c, else top - 1 while a vote at top - 1 does not, else top - 2,
        # where c's approvers at top now lie
        approvers = e.approver_sets()
        dist = [len(v) + k for v in e.votes]

        def join(_, c):
            for j in approvers[c]:
                dist[j] -= 2

        def leave(c):
            for j in approvers[c]:
                dist[j] += 2

        def leaves(_, lo):
            if not dist:
                return [0] * (m - lo)
            top = max(dist)
            at_top, below = dist.count(top), dist.count(top - 1)
            values = []
            for c in range(lo, m):
                near = [dist[j] for j in approvers[c]]
                if near.count(top) < at_top:
                    values.append(-top)
                elif near.count(top - 1) < below:
                    values.append(1 - top)
                else:
                    values.append(2 - top)
            return values

    # what a committee that meets d is worth on the walk, where it stops
    goal = None
    if decide:
        goal = -math.floor(instance.d) if rule == MAV else math.ceil(instance.d * scale)
    best, witness, path = None, None, []

    def last(lo, state):
        # the committees that path, now k - 1 members, completes from lo
        # onwards; True once one of them reaches goal
        nonlocal best, witness
        values = leaves(state, lo)
        if goal is not None:
            hit = next((i for i, value in enumerate(values) if value >= goal), None)
            if hit is not None:
                witness = (*path, lo + hit)
            return hit is not None
        top = max(values)
        if best is None or top > best:
            best, witness = top, (*path, lo + values.index(top))
        return False

    def node(lo, state):
        # path holds the members so far; the next one comes from lo onwards
        if len(path) == k - 1:
            return last(lo, state)
        for c in range(lo, m - k + len(path) + 1):
            path.append(c)
            if len(path) == k - 1:
                found = last(c + 1, join(state, c))
            else:
                found = yield node(c + 1, join(state, c))
            path.pop()
            leave(c)
            if found:
                return True
        return False

    _, nodes = _depth_first(node(0, 0))
    if decide:
        return answer(instance, "exhaustive", {"nodes": nodes}, witness)
    opt = Fraction(-best) if rule == MAV else Fraction(best, scale)
    return answer(instance, "exhaustive", {"nodes": nodes}, witness, opt)
