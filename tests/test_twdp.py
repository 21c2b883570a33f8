import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import approvalwd
from approvalwd import CCAV, compute_params, Election, fpt, Instance, MAV, PAV, score, twdp
from approvalwd.cli import ALGOS
from approvalwd.graphs import (
    DecompositionError,
    incidence_graph,
    NiceNode,
    NiceTreeDecomposition,
    tree_decomposition,
    TreeDecomposition,
)
from approvalwd.oracle import brute_force
from approvalwd.poly import ccav_deg2, mav_deg2, pav_deg22
from approvalwd.portfolio import generate, GeneratorConfig

from helpers import (
    e1,
    exact_decomposition,
    instances_around_opt,
    random_election,
    reference_nice_validate,
    reference_validate,
)

# the DPs as the registry runs them, on the parameters' min-fill
# decomposition; a test that picks the decomposition calls twdp
ccav_tw_dp, mav_tw_dp, pav_tw_dp = ALGOS["ccav-tw"], ALGOS["mav-tw"], ALGOS["pav-tw"]


def _check(inst, res):
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


def test_examples_e1():
    assert ccav_tw_dp(Instance(election=e1(), rule=CCAV, k=2, d=3)).decision
    assert pav_tw_dp(
        Instance(election=e1(), rule=PAV, k=2, d=Fraction(7, 2))
    ).decision
    assert mav_tw_dp(Instance(election=e1(), rule=MAV, k=1, d=2)).decision
    assert not mav_tw_dp(Instance(election=e1(), rule=MAV, k=1, d=1)).decision


def test_sweep_all_rules():
    rng = random.Random(60)
    solvers = {MAV: mav_tw_dp, CCAV: ccav_tw_dp, PAV: pav_tw_dp}
    for _ in range(50):
        e = random_election(rng, max_m=5, max_n=4)
        k = rng.randint(0, e.m)
        for rule, solver in solvers.items():
            opt = brute_force(Instance(election=e, rule=rule, k=k, d=0)).opt_score
            for inst in instances_around_opt(e, rule, k, opt):
                _check(inst, solver(inst))


def test_decomposition_independence():
    rng = random.Random(61)
    solvers = {MAV: twdp.mav_tw_dp, CCAV: twdp.ccav_tw_dp, PAV: twdp.pav_tw_dp}
    for _ in range(30):
        e = random_election(rng, max_m=5, max_n=4)
        if e.m + e.n == 0 or e.m + e.n > 9:
            continue
        g = incidence_graph(e)
        td_a = tree_decomposition(g)
        td_b = exact_decomposition(g)
        k = rng.randint(0, e.m)
        for rule, solver in solvers.items():
            opt = brute_force(Instance(election=e, rule=rule, k=k, d=0)).opt_score
            for inst in instances_around_opt(e, rule, k, opt):
                ra = solver(inst, td=td_a)
                rb = solver(inst, td=td_b)
                _check(inst, ra)
                _check(inst, rb)
                assert ra.witness == rb.witness


def test_ccav_entry_bound():
    rng = random.Random(62)
    for _ in range(40):
        e = random_election(rng, max_m=5, max_n=4)
        k = rng.randint(0, e.m)
        res = ccav_tw_dp(Instance(election=e, rule=CCAV, k=k, d=0))
        assert res.stats["max_entries"] <= 2 ** (res.stats["width"] + 1) * (k + 1)


_TW_DPS = ((twdp.ccav_tw_dp, CCAV), (twdp.mav_tw_dp, MAV), (twdp.pav_tw_dp, PAV))


def test_external_decomposition_rejected_if_invalid():
    # one empty bag holds no vertex of e1's incidence graph; MAV too is
    # validated before it answers that no committee is closer than d < 0
    bogus = TreeDecomposition([frozenset()], [])
    for solve, rule in _TW_DPS:
        for d in (-1, 0, 1):
            with pytest.raises(DecompositionError, match="vertex 0 in no bag"):
                solve(Instance(election=e1(), rule=rule, k=1, d=d), td=bogus)


@pytest.mark.parametrize("solve, rule", _TW_DPS)
def test_external_decomposition_rejected_if_an_edge_is_uncovered(solve, rule):
    # every vertex of e1's incidence graph, in connected bags, but candidate 0
    # and vote 2 (vertex 5) share none
    path = TreeDecomposition([{0, 3}, {1, 3}, {1, 4}, {2, 4}, {5}], [1, 2, 3, 4])
    with pytest.raises(DecompositionError, match=re.escape("edge (0, 5) covered by no bag")):
        solve(Instance(election=e1(), rule=rule, k=1, d=1), td=path)


def test_an_election_without_vertices_has_width_0():
    # its one empty bag reads as width 0 in the DPs' stats, as in tw_upper
    for solve, rule in _TW_DPS:
        inst = Instance(Election(0, ()), rule, 0, 0)
        p = compute_params(inst)
        assert solve(inst, p.decomposition).stats["width"] == p.tw_upper == 0


def _nice_chain(steps):
    """A chain of ("introduce" | "forget", vertex) nodes above a fresh leaf."""
    node = NiceNode("leaf", frozenset())
    bag = set()
    for kind, v in steps:
        if kind == "introduce":
            bag.add(v)
        else:
            bag.discard(v)
        node = NiceNode(kind, bag, (node,), v)
    return node


def _visit(v, *between):
    """Steps that introduce v, visit each of ``between`` and forget v."""
    steps = [("introduce", v)]
    for u in between:
        steps += [("introduce", u), ("forget", u)]
    return steps + [("forget", v)]


# hand-built decompositions of the incidence graph of one vote {0, 1}, vertex
# 2, each a tree of bags and a nice tree with an empty root bag, with one
# defect; the DPs run on the first, the nice validators check the second
HAND_BUILT = {
    # vote 2 meets candidate 0 in one child of the root and candidate 1 in
    # the other, and the root lacks it
    "occurrences of 2 not connected": (
        lambda: TreeDecomposition([{0, 2}, {1, 2}, set()], [2, 2]),
        lambda: NiceNode("join", frozenset(),
                         (_nice_chain(_visit(2, 0)), _nice_chain(_visit(2, 1))))),
    "edge (0, 2) covered by no bag": (
        lambda: TreeDecomposition([{0}, {1, 2}], [1]),
        lambda: _nice_chain(_visit(0) + _visit(2, 1))),
    "vertex 1 in no bag": (
        lambda: TreeDecomposition([{0, 2}], []),
        lambda: _nice_chain(_visit(2, 0))),
}


@pytest.mark.parametrize("message", sorted(HAND_BUILT))
def test_hand_built_nice_trees_are_rejected_alike(message):
    e = Election(m=2, votes=({0, 1},))
    g = incidence_graph(e)
    tree, nice = HAND_BUILT[message]

    def nice_tree():
        ntd = NiceTreeDecomposition(root=nice())
        ntd.validate()
        return ntd

    checks = [lambda: tree().validate(g),
              lambda: reference_validate(tree().bags, enumerate(tree().parent), g)]
    checks += [lambda solve=solve, rule=rule, d=d: solve(Instance(e, rule, 1, d), tree())
               for solve, rule in _TW_DPS for d in (Fraction(-1), Fraction(1))]
    # the nice form's validators, while it stays in graphs
    checks += [lambda: nice_tree().validate(g), lambda: reference_nice_validate(nice_tree(), g)]
    for check in checks:
        with pytest.raises(DecompositionError) as raised:
            check()
        assert str(raised.value) == message


def _leaves_below_a_root(e, rng):
    """A root bag with leaf bags below it: a leaf holds one or two vertices
    of its own, with their neighbours, or lies inside the root's bag."""
    g = incidence_graph(e)
    verts = sorted(g)
    rng.shuffle(verts)
    own, near, leaves = set(), set(), []
    for v in verts:
        if v in own or v in near or rng.random() < 0.3:
            continue
        group = {v}
        free = sorted(u for u in g[v] if u not in own and u not in near)
        if free and rng.random() < 0.4:
            group.add(rng.choice(free))
        own |= group
        near |= set().union(*(g[u] for u in group)) - group
        leaves.append(group | set().union(*(g[u] for u in group)))
    root = set(verts) - own
    for _ in range(rng.randint(0, 2)):
        leaves.append(set(rng.sample(sorted(root), rng.randint(0, len(root)))))
    rng.shuffle(leaves)
    return TreeDecomposition(leaves + [root], [len(leaves)] * len(leaves))


def test_hand_built_trees_against_brute_force():
    # one bag, and a root whose leaves fold into it (vote and candidate
    # leaves), lie inside it, or hold two vertices of their own and so take
    # the general path; each DP meets brute force on every tree
    rng = random.Random(65)
    shapes = set()
    for _ in range(120):
        e = random_election(rng, max_m=5, max_n=4)
        k = rng.randint(0, e.m)
        g = incidence_graph(e)
        single = TreeDecomposition([sorted(g)], [])
        star = _leaves_below_a_root(e, rng)
        for x in star.children(star.root):
            own = star.bags[x] - star.bags[star.root]
            shapes.add("vote" if len(own) == 1 and min(own) >= e.m else len(own))
        for solve, rule in _TW_DPS:
            opt = brute_force(Instance(election=e, rule=rule, k=k, d=0)).opt_score
            for inst in instances_around_opt(e, rule, k, opt):
                for td in (single, star):
                    _check(inst, solve(inst, td))
    assert shapes == {0, 1, 2, "vote"}


def test_a_path_deeper_than_the_recursion_limit(monkeypatch):
    # candidates 0..n and votes {i, i + 1}: the incidence graph is a path,
    # and its path decomposition rooted at one end is deeper than the limit
    n = sys.getrecursionlimit() + 100

    def refuse(limit):
        raise AssertionError("the DP changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    m = n + 1
    e = Election(m, tuple(frozenset({i, i + 1}) for i in range(n)))
    bags = []
    for i in range(n):
        bags += [{i, m + i}, {m + i, i + 1}]
    td = TreeDecomposition(bags, range(1, 2 * n))
    k = 5
    ccav = twdp.ccav_tw_dp(Instance(e, CCAV, k, 0), td)
    assert ccav.opt_score == ccav_deg2(Instance(e, CCAV, k, 0)).opt_score == 2 * k
    assert ccav.stats["width"] == 1
    pav = twdp.pav_tw_dp(Instance(e, PAV, k, 0), td)
    assert pav.opt_score == pav_deg22(Instance(e, PAV, k, 0)).opt_score
    for d in (k, k + 1):
        assert (twdp.mav_tw_dp(Instance(e, MAV, k, d), td).decision
                == mav_deg2(Instance(e, MAV, k, d)).decision)


# Elections from portfolio.generate with min-fill incidence width 4-6, and the
# results the tree-decomposition DPs gave for them when they still computed
# PAV values in Fractions: (rule, m, n, max_dv, max_dc, seed, k, d, decision,
# opt_score, witness, stats).  Only "nodes" has moved since: it counted nice
# nodes, and counts the bag walk's steps now that each leaf bag folds into
# its parent.
REALISTIC = [
    (PAV, 12, 12, 4, 3, 11, 3, Fraction(9), True, Fraction(9), (1, 7, 9),
     {"max_entries": 108, "nodes": 55, "width": 5}),
    (PAV, 16, 13, 4, 3, 0, 6, Fraction(15), False, Fraction(14), (0, 4, 5, 6, 8, 9),
     {"max_entries": 541, "nodes": 71, "width": 4}),
    (PAV, 18, 18, 4, 4, 11, 4, Fraction(37, 3), True, Fraction(37, 3), (0, 6, 7, 14),
     {"max_entries": 279, "nodes": 122, "width": 6}),
    (PAV, 22, 20, 4, 3, 1, 5, Fraction(16), False, Fraction(15), (1, 3, 7, 12, 18),
     {"max_entries": 1638, "nodes": 125, "width": 6}),
    (CCAV, 12, 12, 4, 4, 11, 4, 11, False, Fraction(10), (0, 2, 4, 7),
     {"max_entries": 82, "nodes": 71, "width": 5}),
    (CCAV, 14, 14, 4, 4, 3, 5, 13, True, Fraction(13), (3, 9, 11, 12, 13),
     {"max_entries": 67, "nodes": 74, "width": 4}),
    (CCAV, 20, 20, 4, 3, 3, 6, 17, False, Fraction(16), (4, 7, 10, 17, 18, 19),
     {"max_entries": 189, "nodes": 123, "width": 5}),
    (CCAV, 22, 22, 4, 4, 7, 3, 12, True, Fraction(12), (1, 4, 17),
     {"max_entries": 76, "nodes": 136, "width": 6}),
    (MAV, 12, 12, 4, 3, 7, 3, 5, True, None, (0, 3, 7),
     {"max_entries": 52, "nodes": 62, "width": 4}),
    (MAV, 16, 16, 4, 4, 7, 5, 6, False, None, None,
     {"max_entries": 80, "nodes": 83, "width": 4}),
    (MAV, 18, 18, 4, 4, 7, 4, 5, False, None, None,
     {"max_entries": 30, "nodes": 115, "width": 6}),
    (MAV, 22, 21, 4, 4, 6, 6, 8, True, None, (0, 1, 2, 3, 4, 6),
     {"max_entries": 193, "nodes": 135, "width": 5}),
]


@pytest.mark.parametrize("case", REALISTIC, ids=lambda c: f"{c[0]}-m{c[1]}-seed{c[5]}")
def test_realistic_widths_are_pinned(case):
    rule, m, n, max_dv, max_dc, seed, k, d, decision, opt, witness, stats = case
    e = generate(GeneratorConfig(m=m, n=n, max_dv=max_dv, max_dc=max_dc), seed)
    inst = Instance(election=e, rule=rule, k=k, d=d)
    res = {MAV: mav_tw_dp, CCAV: ccav_tw_dp, PAV: pav_tw_dp}[rule](inst)
    assert (res.decision, res.opt_score, res.witness) == (decision, opt, witness)
    assert dict(res.stats) == stats
    if opt is not None:
        assert type(res.opt_score) is Fraction
    if m <= 16:
        _check(inst, res)


def test_witness_check_survives_optimisation():
    # the exact re-score is an explicit check, not an assert that -O strips
    script = textwrap.dedent("""
        from fractions import Fraction
        from approvalwd import CCAV, core, Election, Instance, MAV, PAV, twdp
        from approvalwd.core import InternalError

        assert False, "asserts are stripped under -O"
        core.score = lambda *args: Fraction(10**9)
        e = Election(3, ({0, 1}, {1, 2}, {2}))
        cases = [
            (twdp.ccav_tw_dp, Instance(e, CCAV, 2, 0)),
            (twdp.pav_tw_dp, Instance(e, PAV, 2, 0)),
            (twdp.mav_tw_dp, Instance(e, MAV, 1, 3)),
        ]
        for solver, inst in cases:
            try:
                solver(inst, core.compute_params(inst).decomposition)
            except InternalError:
                print(solver.__name__, "raised")
    """)
    src = os.path.dirname(os.path.dirname(approvalwd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout.split("\n")
    assert out[:3] == ["ccav_tw_dp raised", "pav_tw_dp raised", "mav_tw_dp raised"]


# Metamorphic properties of the three DPs, on elections beyond a fixed seed.
_DPS = {MAV: mav_tw_dp, CCAV: ccav_tw_dp, PAV: pav_tw_dp}
_FAST = settings(max_examples=25, derandomize=True, deadline=None)


@st.composite
def _elections(draw):
    m = draw(st.integers(1, 8))
    cands = st.integers(0, m - 1)
    votes = draw(st.lists(st.frozensets(cands, max_size=3), max_size=6))
    k = draw(st.integers(0, m))
    return Election(m, tuple(votes)), k


def _solve(e, rule, k, d=0):
    return _DPS[rule](Instance(election=e, rule=rule, k=k, d=d))


@_FAST
@given(_elections(), st.randoms(use_true_random=False), st.integers(0, 6))
def test_relabelling_and_reordering_keep_the_answer(case, rng, d):
    e, k = case
    perm = list(range(e.m))
    rng.shuffle(perm)
    votes = [frozenset(perm[c] for c in v) for v in e.votes]
    rng.shuffle(votes)
    moved = Election(e.m, tuple(votes))
    for rule in (CCAV, PAV):
        assert _solve(moved, rule, k).opt_score == _solve(e, rule, k).opt_score
    assert _solve(moved, MAV, k, d).decision == _solve(e, MAV, k, d).decision


@_FAST
@given(_elections())
def test_duplicating_every_vote_doubles_the_score(case):
    e, k = case
    doubled = Election(e.m, e.votes + e.votes)
    for rule in (CCAV, PAV):
        assert _solve(doubled, rule, k).opt_score == 2 * _solve(e, rule, k).opt_score


@_FAST
@given(_elections())
def test_an_unapproved_candidate_or_empty_vote_changes_nothing(case):
    e, k = case
    for rule in (CCAV, PAV):
        opt = _solve(e, rule, k).opt_score
        assert _solve(Election(e.m + 1, e.votes), rule, k).opt_score == opt
        assert _solve(Election(e.m, e.votes + (frozenset(),)), rule, k).opt_score == opt


def test_the_witness_is_the_first_in_lexicographic_order():
    # at equal value the tables keep the witness whose sorted tuple comes
    # first, so CCAV and PAV return brute force's first optimum, and MAV the
    # first committee of itertools.combinations within distance d
    rng = random.Random(64)
    for _ in range(60):
        e = random_election(rng, max_m=6, max_n=5)
        for k in range(e.m + 1):
            for rule in (CCAV, PAV):
                truth = brute_force(Instance(e, rule, k, 0))
                assert _solve(e, rule, k, truth.opt_score).witness == truth.witness
            opt = brute_force(Instance(e, MAV, k, 0)).opt_score
            for d in (opt, opt + 1):
                first = next(w for w in itertools.combinations(range(e.m), k)
                             if score(e, MAV, w) <= d)
                assert _solve(e, MAV, k, d).witness == first


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.integers(30, 60), st.integers(1, 4), st.integers(4, 5), st.integers(4, 5),
       st.integers(0, 10**6), st.data())
def test_the_dps_agree_with_the_exhaustive_route_past_the_oracle(m, k, dv, dc, seed, data):
    # m past brute force's reach; the exhaustive route shares no code with the
    # tables and returns the first optimum in lexicographic order
    n = data.draw(st.integers(m // 2, m))
    e = generate(GeneratorConfig(m=m, n=n, max_dv=dv, max_dc=dc), seed)
    assume(compute_params(Instance(e, PAV, k, 0)).tw_upper <= 7)
    for rule in (CCAV, PAV, MAV):
        truth = fpt.exhaustive(Instance(e, rule, k, 0))
        res = _solve(e, rule, k, truth.opt_score)
        assert (res.decision, res.witness) == (True, truth.witness)
        if rule == MAV:
            assert truth.opt_score == 0 or not _solve(e, MAV, k, truth.opt_score - 1).decision
        else:
            assert res.opt_score == truth.opt_score


@pytest.mark.parametrize("m, n, seed", [(100, 140, 0), (160, 200, 1), (200, 200, 2)])
def test_polynomial_routes_agree_beyond_the_oracle(m, n, seed):
    # both degrees <= 2 and m far past brute force: the DPs meet the
    # polynomial-time routes instead
    e = generate(GeneratorConfig(m=m, n=n, max_dv=2, max_dc=2), seed)
    k = m // 2
    assert _solve(e, CCAV, k).opt_score == ccav_deg2(Instance(e, CCAV, k, 0)).opt_score
    assert _solve(e, PAV, k).opt_score == pav_deg22(Instance(e, PAV, k, 0)).opt_score
    decisions = [_solve(e, MAV, k, d).decision for d in range(k - 2, k + 3)]
    assert decisions == [mav_deg2(Instance(e, MAV, k, d)).decision for d in range(k - 2, k + 3)]
    assert True in decisions and False in decisions
