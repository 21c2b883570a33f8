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
    to_nice,
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
)

# the DPs as the registry runs them, on the nice form of the parameters'
# min-fill decomposition; a test that picks the decomposition calls twdp
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
        ntd_a = to_nice(tree_decomposition(g))
        ntd_b = to_nice(exact_decomposition(g))
        k = rng.randint(0, e.m)
        for rule, solver in solvers.items():
            opt = brute_force(Instance(election=e, rule=rule, k=k, d=0)).opt_score
            for inst in instances_around_opt(e, rule, k, opt):
                ra = solver(inst, ntd=ntd_a)
                rb = solver(inst, ntd=ntd_b)
                assert ra.decision == rb.decision
                assert ra.opt_score == rb.opt_score


def test_ccav_entry_bound():
    rng = random.Random(62)
    for _ in range(40):
        e = random_election(rng, max_m=5, max_n=4)
        k = rng.randint(0, e.m)
        res = ccav_tw_dp(Instance(election=e, rule=CCAV, k=k, d=0))
        assert res.stats["max_entries"] <= 2 ** (res.stats["width"] + 1) * (k + 1)


def test_external_decomposition_rejected_if_invalid():
    bogus = NiceTreeDecomposition(root=NiceNode("leaf", frozenset()))
    with pytest.raises(DecompositionError):
        twdp.ccav_tw_dp(Instance(election=e1(), rule=CCAV, k=1, d=1), ntd=bogus)


@pytest.mark.parametrize("solve, rule", [
    (twdp.ccav_tw_dp, CCAV), (twdp.mav_tw_dp, MAV), (twdp.pav_tw_dp, PAV),
])
def test_external_decomposition_rejected_if_an_edge_is_uncovered(solve, rule):
    # every vertex of e1's incidence graph, in connected bags, but candidate 0
    # and vote 2 (vertex 5) share none
    path = TreeDecomposition(bags=[{0, 3}, {1, 3}, {1, 4}, {2, 4}, {5}],
                             edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
    ntd = to_nice(path)
    ntd.validate()
    with pytest.raises(DecompositionError, match=re.escape("edge (0, 5) covered by no bag")):
        solve(Instance(election=e1(), rule=rule, k=1, d=1), ntd=ntd)


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


# hand-built nice trees over the incidence graph of one vote {0, 1}, vertex 2,
# each nice with an empty root bag and one defect
HAND_BUILT = {
    # vote 2 meets candidate 0 in one branch of the join and candidate 1 in
    # the other, and is forgotten in both
    "occurrences of 2 not connected": lambda: NiceNode(
        "join", frozenset(), (_nice_chain(_visit(2, 0)), _nice_chain(_visit(2, 1)))),
    "edge (0, 2) covered by no bag": lambda: _nice_chain(_visit(0) + _visit(2, 1)),
    "vertex 1 in no bag": lambda: _nice_chain(_visit(2, 0)),
}


@pytest.mark.parametrize("message", sorted(HAND_BUILT))
def test_hand_built_nice_trees_are_rejected_alike(message):
    e = Election(m=2, votes=({0, 1},))
    g = incidence_graph(e)
    checks = [lambda ntd: ntd.validate(g), lambda ntd: reference_nice_validate(ntd, g)]
    checks += [lambda ntd, solve=solve, rule=rule: solve(Instance(e, rule, 1, Fraction(1)), ntd)
               for solve, rule in ((twdp.ccav_tw_dp, CCAV), (twdp.mav_tw_dp, MAV),
                                   (twdp.pav_tw_dp, PAV))]
    for check in checks:
        ntd = NiceTreeDecomposition(root=HAND_BUILT[message]())
        ntd.validate()
        with pytest.raises(DecompositionError) as raised:
            check(ntd)
        assert str(raised.value) == message


# Elections from portfolio.generate with min-fill incidence width 4-6, and the
# results the tree-decomposition DPs gave for them when they still computed
# PAV values in Fractions: (rule, m, n, max_dv, max_dc, seed, k, d, decision,
# opt_score, witness, stats).
REALISTIC = [
    (PAV, 12, 12, 4, 3, 11, 3, Fraction(9), True, Fraction(9), (1, 7, 9),
     {"max_entries": 108, "nodes": 118, "width": 5}),
    (PAV, 16, 13, 4, 3, 0, 6, Fraction(15), False, Fraction(14), (0, 4, 5, 6, 8, 9),
     {"max_entries": 541, "nodes": 148, "width": 4}),
    (PAV, 18, 18, 4, 4, 11, 4, Fraction(37, 3), True, Fraction(37, 3), (0, 6, 7, 14),
     {"max_entries": 279, "nodes": 159, "width": 6}),
    (PAV, 22, 20, 4, 3, 1, 5, Fraction(16), False, Fraction(15), (1, 3, 7, 12, 18),
     {"max_entries": 1638, "nodes": 223, "width": 6}),
    (CCAV, 12, 12, 4, 4, 11, 4, 11, False, Fraction(10), (0, 2, 4, 7),
     {"max_entries": 82, "nodes": 114, "width": 5}),
    (CCAV, 14, 14, 4, 4, 3, 5, 13, True, Fraction(13), (3, 9, 11, 12, 13),
     {"max_entries": 67, "nodes": 141, "width": 4}),
    (CCAV, 20, 20, 4, 3, 3, 6, 17, False, Fraction(16), (4, 7, 10, 17, 18, 19),
     {"max_entries": 189, "nodes": 188, "width": 5}),
    (CCAV, 22, 22, 4, 4, 7, 3, 12, True, Fraction(12), (1, 4, 17),
     {"max_entries": 76, "nodes": 193, "width": 6}),
    (MAV, 12, 12, 4, 3, 7, 3, 5, True, None, (0, 3, 7),
     {"max_entries": 52, "nodes": 123, "width": 4}),
    (MAV, 16, 16, 4, 4, 7, 5, 6, False, None, None,
     {"max_entries": 80, "nodes": 137, "width": 4}),
    (MAV, 18, 18, 4, 4, 7, 4, 5, False, None, None,
     {"max_entries": 30, "nodes": 158, "width": 6}),
    (MAV, 22, 21, 4, 4, 6, 6, 8, True, None, (0, 1, 2, 3, 4, 6),
     {"max_entries": 193, "nodes": 173, "width": 5}),
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
        from approvalwd import CCAV, core, Election, graphs, Instance, MAV, PAV, twdp
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
                solver(inst, graphs.to_nice(core.compute_params(inst).decomposition))
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
