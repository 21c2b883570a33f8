"""Shared helpers for the test suite: seeded random inputs, tiny oracles and
the reference converters that only the tests use."""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

from approvalwd import (
    CCAV,
    compute_params,
    Election,
    fpt,
    graphs,
    hamming,
    harmonic,
    Instance,
    MAV,
    PAV,
    portfolio,
    score,
)
from approvalwd.core import answer, fill_committee, scaled_harmonics, SolveResult
from approvalwd.fpt import _depth_first
from approvalwd.graphs import DecompositionError
from approvalwd.oracle import brute_force, BudgetExceededError


def random_election(rng, max_m=7, max_n=6, max_dv=None, max_dc=None):
    m = rng.randint(1, max_m)
    n = rng.randint(0, max_n)
    dv = m if max_dv is None else min(max_dv, m)
    dc = n if max_dc is None else max_dc
    capacity = {c: dc for c in range(m)}
    votes = []
    for _ in range(n):
        available = [c for c in range(m) if capacity[c] > 0]
        size = rng.randint(0, min(dv, len(available)))
        vote = rng.sample(available, size)
        for c in vote:
            capacity[c] -= 1
        votes.append(frozenset(vote))
    return Election(m=m, votes=tuple(votes))


def near_path(n):
    """Vote j approves {j, j + 1}; every 50th vote also approves a candidate of
    its own, so some votes approve three candidates."""
    m = n + 1
    votes = []
    for j in range(n):
        vote = {j, j + 1}
        if j % 50 == 0:
            vote.add(m)
            m += 1
        votes.append(frozenset(vote))
    return Election(m=m, votes=tuple(votes))


def reference_score(election, rule, committee):
    """Exact score straight from the rule definitions, one term per vote:
    the Hamming distance for MAV, harmonic(|v n w|) for PAV."""
    w = frozenset(committee)
    if rule == MAV:
        return Fraction(max((hamming(v, w) for v in election.votes), default=0))
    if rule == CCAV:
        return Fraction(sum(1 for v in election.votes if v & w))
    return sum((harmonic(len(v & w)) for v in election.votes), Fraction(0))


def adjacency(vertices=(), edges=()):
    """The adjacency mapping of the graph on ``vertices`` and the ends of
    ``edges``, in the form ``graphs`` takes."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def edge_list(adj):
    """The edges of an adjacency mapping, each as (smaller end, larger), sorted."""
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def random_graph(rng, max_n=8, p=0.4):
    n = rng.randint(1, max_n)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return n, edges


def random_regular_graph(rng):
    """A small regular graph: a cycle, a complete graph, or a perfect matching."""
    shape = rng.choice(("cycle", "complete", "matching"))
    if shape == "cycle":
        n = rng.randint(3, 8)
        return n, [(i, (i + 1) % n) for i in range(n)]
    if shape == "complete":
        n = rng.randint(2, 5)
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    n = 2 * rng.randint(1, 4)
    return n, [(2 * i, 2 * i + 1) for i in range(n // 2)]


def exhaustive_max_matching_size(edges):
    """Largest vertex-disjoint edge subset, by depth-first search."""
    edges = list(edges)

    def dfs(i, used):
        if i == len(edges):
            return 0
        best = dfs(i + 1, used)
        u, v = edges[i]
        if u not in used and v not in used:
            best = max(best, 1 + dfs(i + 1, used | {u, v}))
        return best

    return dfs(0, frozenset())


def exhaustive_b_edge_cover_exists(num_vertices, edges, f, kappa):
    """Is there an exactly-kappa edge subset covering each v at least f[v] times?"""
    if kappa < 0 or kappa > len(edges):
        return False
    for chosen in itertools.combinations(range(len(edges)), kappa):
        hit = [0] * num_vertices
        for e in chosen:
            for v in set(edges[e]):
                hit[v] += 1
        if all(hit[v] >= f[v] for v in range(num_vertices)):
            return True
    return False


def brute_force_grsp(universe, sets, f, kappa, max_choose=2 * 10**6):
    """Exhaustive generalized set packing decision.

    Is there a kappa-subset of `sets` (a list, multiset semantics) in which
    every element u of the universe occurs at most f[u] times?
    """
    if kappa < 0 or kappa > len(sets):
        return False
    if math.comb(len(sets), kappa) > max_choose:
        raise BudgetExceededError("too many set combinations")
    for chosen in itertools.combinations(range(len(sets)), kappa):
        counts = {}
        for i in chosen:
            for u in sets[i]:
                counts[u] = counts.get(u, 0) + 1
        if all(counts.get(u, 0) <= f[u] for u in universe):
            return True
    return False


def brute_force_phs(universe, sets, a, b, max_choose=2 * 10**6):
    """Exhaustive partial hitting set decision.

    Is there an a-subset of the universe intersecting at least b of `sets`?
    """
    if b <= 0:
        return True
    universe = sorted(universe)
    if a > len(universe):
        a = len(universe)
    if math.comb(len(universe), a) > max_choose:
        raise BudgetExceededError("too many element combinations")
    for chosen in itertools.combinations(universe, a):
        s = frozenset(chosen)
        if sum(1 for x in sets if s & frozenset(x)) >= b:
            return True
    return False


def format_graph(n, edges):
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def ccav_phs_convert(direction, payload):
    """Lossless relabeling between CCAV instances and partial hitting set.

    direction "to_phs": Instance -> (universe, sets, a, b);
    direction "to_ccav": (universe, sets, a, b) -> Instance.
    The universe is the candidate index range, so round-trips are exact.
    """
    if direction == "to_phs":
        inst = payload
        if inst.rule != CCAV:
            raise ValueError("only ccav instances convert")
        return (
            tuple(range(inst.election.m)),
            tuple(inst.election.votes),
            inst.k,
            inst.d,
        )
    if direction == "to_ccav":
        universe, sets, a, b = payload
        if tuple(universe) != tuple(range(len(universe))):
            raise ValueError("universe must be the index range 0..m-1")
        return Instance(
            election=Election(m=len(universe), votes=tuple(sets)),
            rule=CCAV,
            k=a,
            d=Fraction(b),
        )
    raise ValueError(f"unknown direction {direction!r}")


def e1():
    """The running three-candidate example election."""
    return Election(
        m=3, votes=(frozenset({0, 1}), frozenset({1, 2}), frozenset({0}))
    )


def deep_search_instances():
    """{algo: yes-instance} whose fpt search runs more levels deep than
    Python's default recursion limit of 1000 frames."""
    path = tuple(frozenset({j, j + 1}) for j in range(1601))
    return {
        # one level per excluded candidate: kbar = 1199
        "mav-grsp": Instance(Election(m=1200, votes=(frozenset({0}),)), MAV, 1, 2),
        # one candidate leaves the committee per level until one is left
        "ccav-bb": Instance(
            Election(m=1010, votes=tuple(frozenset({c}) for c in range(1010))), CCAV, 1, 1
        ),
        # the first committee meeting d on the path {j, j + 1} is 1001 levels deep
        "pav-bb": Instance(Election(m=1602, votes=path), PAV, 1500, 1500),
    }


def instances_around_opt(election, rule, k, opt):
    """Instances with thresholds one unit below, at, and above the optimum."""
    return [
        Instance(election=election, rule=rule, k=k, d=opt - 1),
        Instance(election=election, rule=rule, k=k, d=opt),
        Instance(election=election, rule=rule, k=k, d=opt + 1),
    ]


def check_against_oracle(inst, res):
    """Assert a solver result agrees with brute force: decision, optimum, witness."""
    truth = brute_force(inst)
    assert res.decision == truth.decision
    if res.opt_score is not None:
        assert res.opt_score == truth.opt_score
    if res.decision:
        assert len(res.witness) == inst.k
        s = score(inst.election, inst.rule, res.witness)
        if inst.rule == MAV:
            assert s <= inst.d
        else:
            assert s >= inst.d


def sweep_against_oracle(rng, rule, solver, trials, **election_kw):
    """Check a solver on random elections at thresholds around the optimum."""
    for _ in range(trials):
        e = random_election(rng, **election_kw)
        k = rng.randint(0, e.m)
        opt = brute_force(Instance(election=e, rule=rule, k=k, d=0)).opt_score
        for inst in instances_around_opt(e, rule, k, opt):
            check_against_oracle(inst, solver(inst))


def reference_min_fill_order(graph):
    """Minimum fill-in elimination order by rescanning every vertex each step.

    Ties go to the smaller degree, then the smaller vertex.
    """
    adj = {v: set(nb) for v, nb in graph.items()}

    def fill(v):
        nb = sorted(adj[v])
        return sum(
            1
            for i in range(len(nb))
            for j in range(i + 1, len(nb))
            if nb[j] not in adj[nb[i]]
        )

    order = []
    while adj:
        v = min(adj, key=lambda u: (fill(u), len(adj[u]), u))
        order.append(v)
        nb = sorted(adj[v])
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                adj[nb[i]].add(nb[j])
                adj[nb[j]].add(nb[i])
        for u in nb:
            adj[u].discard(v)
        del adj[v]
    return order


def reference_td_from_elimination_order(graph, order):
    """Bags along an elimination order, by replaying the elimination.

    Each bag is a vertex with its neighbourhood when eliminated; a bag's
    parent is the bag of its earliest eliminated neighbour, or the last bag.
    """
    if not order:
        return graphs.TreeDecomposition([frozenset()], [])
    adj = {v: set(nb) for v, nb in graph.items()}
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    parent_vertex = {}
    for v in order[:-1]:
        nb = sorted(adj[v])
        bags.append(frozenset([v]) | frozenset(nb))
        parent_vertex[v] = min(nb, key=lambda u: pos[u]) if nb else order[-1]
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                adj[nb[i]].add(nb[j])
                adj[nb[j]].add(nb[i])
        for u in nb:
            adj[u].discard(v)
        del adj[v]
    bags.append(frozenset([order[-1]]))
    return graphs.TreeDecomposition(bags, [pos[parent_vertex[v]] for v in order[:-1]])


def _reach_through(graph, v, inside):
    """Vertices outside `inside` u {v} reachable from v through `inside`."""
    seen = {v}
    out = set()
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in graph[u]:
            if w in seen:
                continue
            seen.add(w)
            if w in inside:
                queue.append(w)
            else:
                out.add(w)
    return out


def exact_elimination_order(graph):
    """Optimal-width elimination ordering by dynamic programming over subsets.

    Exponential in the vertex count; meant for graphs of about a dozen
    vertices at most.
    """
    verts = sorted(graph)
    n = len(verts)
    full = (1 << n) - 1
    width = {0: -1}
    choice = {}
    # dropping a vertex lowers the mask, so each subset is done before its supersets
    for mask in range(1, full + 1):
        options = []
        for i in range(n):
            if mask >> i & 1:
                rest = mask ^ (1 << i)
                inside = {verts[j] for j in range(n) if rest >> j & 1}
                q = len(_reach_through(graph, verts[i], inside))
                options.append((max(width[rest], q), i))
        # the least width, ties to the first vertex
        width[mask], choice[mask] = min(options)
    seq = []
    mask = full
    while mask:
        i = choice[mask]
        seq.append(verts[i])
        mask ^= 1 << i
    seq.reverse()
    return seq


def exact_decomposition(graph):
    """An optimal-width tree decomposition of a small graph: the replay of
    ``exact_elimination_order``."""
    return reference_td_from_elimination_order(graph, exact_elimination_order(graph))


def classify_component(vertices, edges):
    """Classify a connected multigraph component.

    `edges` maps candidate -> endpoints tuple (length 1 = loop, length 2 = edge).
    Returns one of "path", "cycle", "hairstick", "dh-hairstick", "other";
    the first four exhaust the possibilities when every degree is at most two.
    """
    t = len(vertices)
    degree = {v: 0 for v in vertices}
    loops = 0
    for endpoints in edges.values():
        uniq = tuple(sorted(set(endpoints)))
        if len(uniq) == 1:
            loops += 1
            degree[uniq[0]] += 1
        else:
            degree[uniq[0]] += 1
            degree[uniq[1]] += 1
    if any(d > 2 for d in degree.values()):
        return "other"
    e = len(edges)
    if loops == 0 and e == t - 1:
        return "path"
    if loops == 0 and e == t:
        return "cycle"
    if loops == 1 and e == t:
        return "hairstick"
    if loops == 2 and e == t + 1:
        return "dh-hairstick"
    return "other"


def reference_matching_order(edges, votes, cands):
    """The matching-first order of ``poly._matching_order``, over the votes
    ``votes`` only, from an adjacency mapping of the candidate pairs and
    ``graphs.max_matching`` on it.

    Loops are dropped and each set of parallel candidate-edges is kept as its
    smallest index; the order is the matched candidates (sorted), each
    unmatched vote's smallest incident candidate, and the rest by index.
    Returns (order, matching size).
    """
    pairs = {}
    smallest = {}
    for c in cands:
        endpoints = edges[c]
        for v in endpoints:
            smallest.setdefault(v, c)
        if len(endpoints) == 2:
            pairs.setdefault(endpoints, c)
    matching = graphs.max_matching(adjacency(votes, pairs))
    order = sorted(pairs[tuple(sorted(edge))] for edge in matching)
    touched = set().union(*matching)
    order += [smallest[v] for v in sorted(votes) if v not in touched and v in smallest]
    taken = set(order)
    order += [c for c in cands if c not in taken]
    return order, len(matching)


def pav_component_order(edges, votes, cands, kind):
    """Order of one component's candidates whose j-prefix is an optimal j-committee,
    from a matching of that component alone.

    Paths and cycles go matching-first; a hairstick puts its loop last, and a
    double-loop hairstick its two loops, the smaller one first.
    """
    if kind not in ("path", "cycle", "hairstick", "dh-hairstick"):
        raise ValueError(f"cannot optimize component kind {kind!r}")
    loops = [c for c in cands if len(edges[c]) == 1]
    rest = [c for c in cands if len(edges[c]) == 2]
    return reference_matching_order(edges, votes, rest)[0] + loops


def reference_pav_deg22(instance):
    """(opt, witness) of PAV with both degrees <= 2 by a knapsack over components.

    Each component's rows score the prefixes of its ``pav_component_order``;
    ties between equal totals go to the lexicographically smaller committee.
    """
    e = instance.election
    k = instance.k
    edges = graphs.multigraph_rep(e)
    comps, free = graphs.multigraph_components(e.n, edges)

    tables = []  # per component: list of (score, committee) indexed by j'
    for votes, cands in comps:
        kind = classify_component(votes, {c: edges[c] for c in cands})
        order = pav_component_order(edges, votes, cands, kind)
        cov = dict.fromkeys(votes, 0)
        s = Fraction(0)
        rows = [(s, ())]
        for jj, c in enumerate(order, 1):
            for v in edges[c]:
                cov[v] += 1
                s += Fraction(1, cov[v])
            rows.append((s, tuple(sorted(order[:jj]))))
        tables.append(rows)
    tables.append([(Fraction(0), tuple(free[:jj])) for jj in range(len(free) + 1)])

    best = {0: (Fraction(0), ())}
    for rows in tables:
        nxt = {}
        for used, (s, w) in best.items():
            for jj, (ds, dw) in enumerate(rows):
                tot = used + jj
                if tot > k:
                    break
                cand = (s + ds, tuple(sorted(w + dw)))
                old = nxt.get(tot)
                if old is None or cand[0] > old[0] or (
                    cand[0] == old[0] and cand[1] < old[1]
                ):
                    nxt[tot] = cand
        best = nxt
    return best[k]


def _tree_connected(nodes, edges):
    if len(nodes) <= 1:
        return True
    nodeset = set(nodes)
    adj = {x: [] for x in nodes}
    for a, b in edges:
        if a in nodeset and b in nodeset:
            adj[a].append(b)
            adj[b].append(a)
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(nodes)


def reference_validate(bags, edges, graph):
    """The decomposition conditions, each checked by scanning every bag, on
    the tree whose edges join the bag indices paired in ``edges``."""
    edges = list(edges)
    union = set().union(*bags) if bags else set()
    for v in sorted(graph):
        if v not in union:
            raise DecompositionError(f"vertex {v} in no bag")
    for u, v in edge_list(graph):
        if not any(u in b and v in b for b in bags):
            raise DecompositionError(f"edge {(u, v)} covered by no bag")
    for v in union:
        nodes = [i for i, b in enumerate(bags) if v in b]
        if not _tree_connected(nodes, edges):
            raise DecompositionError(f"occurrences of {v} not connected")


def reference_nice_validate(ntd, graph):
    """Nice-ness, then the scanning check on the nice tree's bags and edges."""
    ntd.validate()
    nodes = ntd.postorder()
    index = {id(x): i for i, x in enumerate(nodes)}
    edges = [(index[id(x)], index[id(c)]) for x in nodes for c in x.children]
    reference_validate([x.bag for x in nodes], edges, graph)


def reference_max_matching(graph):
    """The greedy start and blossom search with fresh search arrays per root."""
    verts = sorted(graph)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj = [sorted(index[w] for w in graph[v]) for v in verts]
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v], match[w] = w, v
                    break

    def find_augmenting_path(root):
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        blossom = [False] * n

        def lca(a, b):
            seen = [False] * n
            while True:
                a = base[a]
                seen[a] = True
                if match[a] == -1:
                    break
                a = parent[match[a]]
            while True:
                b = base[b]
                if seen[b]:
                    return b
                b = parent[match[b]]

        def mark_path(v, b, child):
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                parent[v] = child
                child = match[v]
                v = parent[match[v]]

        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    curbase = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv, next_u = parent[u], match[parent[u]]
                            match[u], match[pv] = pv, u
                            u = next_u
                        return
                    used[match[to]] = True
                    queue.append(match[to])

    for v in range(n):
        if match[v] == -1 and adj[v]:
            find_augmenting_path(v)
    return {
        frozenset((verts[v], verts[match[v]]))
        for v in range(n)
        if match[v] != -1
    }


def reference_dispatch(instance):
    """Dispatch with every parameter computed first and every FPT route ranked
    on the real alpha and tw_upper; the first in (cost, name) order runs, and
    the exhaustive route where none is within the cap, each in its decision
    form where it has one.  As in dispatch, a CCAV or PAV instance first goes
    to its rule's branch-and-bound route with ``root_only``, and is ranked
    only where the root leaves it undecided."""
    e = instance.election
    k, d = instance.k, instance.d
    params = compute_params(instance)
    for solver in portfolio.SOLVERS:
        if solver.degrees and solver.applies(instance, params):
            return solver.run(instance, params)
    if instance.rule == MAV and d >= k + params.delta_v:
        return SolveResult(True, None, tuple(range(k)), "score_bound", {})
    if instance.rule != MAV and d > k * params.delta_c:
        return SolveResult(False, None, None, "score_bound", {})
    bb = {CCAV: fpt.ccav_bb_dual, PAV: fpt.pav_bb_dv}.get(instance.rule)
    if bb is not None and (res := bb(instance, root_only=True)) is not None:
        return res
    _ = params.alpha, params.tw_upper  # computed whatever the ranking needs
    ranked = []
    for solver in portfolio.SOLVERS:
        if solver.cost and solver.rule == instance.rule:
            cost = solver.cost(instance, params)
            if cost is not None and cost <= portfolio.FPT_COST_CAP:
                ranked.append((cost, solver.name, solver))
    if ranked:
        _, _, solver = min(ranked, key=lambda r: r[:2])
        return (solver.decide or solver.run)(instance, params)
    if math.comb(e.m + 1, k) <= portfolio.FPT_COST_CAP:
        return fpt.exhaustive(instance, decide=True)
    raise portfolio.AllSolversExceededError("no solver within policy budgets")


def reference_pav_bb_dv(instance):
    """``fpt.pav_bb_dv`` without its submodular cut: the search prunes by depth
    only.  Same exits, branch order and node count as the route had before the
    cut, so the route must return the same decision and witness in no more
    nodes."""
    e = instance.election
    k, d = instance.k, instance.d
    stats = {"nodes": 0, "max_branch": 0}
    if d <= 0:
        return answer(instance, "pav_bb_dv", stats, fill_committee((), k, range(e.m)))
    if k == 0:
        return answer(instance, "pav_bb_dv", stats)
    counts = e.approver_counts
    for c in range(e.m):
        if counts[c] >= d:
            return answer(instance, "pav_bb_dv", stats, fill_committee((c,), k, range(e.m)))
    scale, hsum = scaled_harmonics(k)
    need = math.ceil(d * scale)
    capp = [c for c in range(e.m) if counts[c] > 0]
    if min(k, len(capp)) == len(capp):
        ok = sum(hsum[len(v)] for v in e.votes) >= need
        return answer(instance, "pav_bb_dv", stats,
                      fill_committee(capp, k, range(e.m)) if ok else None)
    depth_cap = min(k, math.ceil(d * e.delta_v))
    approvers = e.approver_sets()
    cov = [0] * e.n

    def gain(c):
        return sum(hsum[cov[j] + 1] - hsum[cov[j]] for j in approvers[c])

    def dfs(s_set, total):
        if total >= need:
            return s_set
        if len(s_set) >= depth_cap:
            return None
        cbest = max((c for c in capp if c not in s_set), key=lambda c: (gain(c), -c))
        branch = set()
        for j in approvers[cbest]:
            branch.update(e.votes[j])
        branch -= s_set
        stats["max_branch"] = max(stats["max_branch"], len(branch))
        for x in sorted(branch):
            step = gain(x)
            for j in approvers[x]:
                cov[j] += 1
            res = yield dfs(s_set | {x}, total + step)
            for j in approvers[x]:
                cov[j] -= 1
            if res is not None:
                return res
        return None

    found, stats["nodes"] = _depth_first(dfs(frozenset(), 0))
    return answer(instance, "pav_bb_dv", stats,
                  None if found is None else fill_committee(found, k, range(e.m)))
