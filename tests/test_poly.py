import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import approvalwd
from approvalwd import CCAV, cli, Election, Instance, MAV, PAV, RULES, graphs, score
from approvalwd.graphs import multigraph_components, multigraph_rep
from approvalwd.oracle import brute_force
from approvalwd.poly import (
    _matching_order,
    av_optimal,
    ccav_deg2,
    mav_deg2,
    pav_deg1,
    pav_deg22,
)
from approvalwd.portfolio import generate, GeneratorConfig

from helpers import (
    adjacency,
    classify_component,
    e1,
    instances_around_opt,
    pav_component_order,
    random_election,
    reference_matching_order,
    reference_pav_deg22,
)


def _check_against_oracle(inst, res):
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


def test_av_optimal_examples():
    e = Election(m=2, votes=(frozenset({0}), frozenset({0}), frozenset({1})))
    res = av_optimal(Instance(e, CCAV, 1, 2))
    assert (res.decision, res.opt_score, res.witness, res.algorithm) == (True, 2, (0,), "av_optimal")
    assert av_optimal(Instance(e, MAV, 0, 0)).witness == ()
    e2 = Election(m=2, votes=(frozenset({0}), frozenset({1})))
    assert av_optimal(Instance(e2, PAV, 2, 3)).witness == (0, 1)


def test_av_optimal_simultaneous():
    rng = random.Random(30)
    for _ in range(100):
        e = random_election(rng, max_dv=1)
        k = rng.randint(0, e.m)
        w = av_optimal(Instance(e, RULES[0], k, 0)).witness
        for rule in RULES:
            truth = brute_force(Instance(election=e, rule=rule, k=k, d=0))
            assert av_optimal(Instance(e, rule, k, 0)).opt_score == truth.opt_score
            assert score(e, rule, w) == truth.opt_score


def test_mav_deg2_examples():
    e = Election(m=3, votes=(frozenset({0, 1}), frozenset({1, 2})))
    assert mav_deg2(Instance(election=e, rule=MAV, k=2, d=2)).decision
    res = mav_deg2(Instance(election=e1(), rule=MAV, k=1, d=2))
    assert res.decision and res.witness == (1,)
    assert not mav_deg2(Instance(election=e1(), rule=MAV, k=1, d=1)).decision


def test_ccav_deg2_examples():
    assert ccav_deg2(Instance(election=e1(), rule=CCAV, k=2, d=3)).decision
    assert not ccav_deg2(Instance(election=e1(), rule=CCAV, k=1, d=3)).decision
    single = Election(m=1, votes=(frozenset({0}),))
    res = ccav_deg2(Instance(election=single, rule=CCAV, k=1, d=1))
    assert res.decision and res.witness == (0,)


def test_pav_deg1_examples():
    e = Election(m=3, votes=(frozenset({0, 1}), frozenset({2})))
    assert pav_deg1(Instance(election=e, rule=PAV, k=2, d=2)).decision
    e2 = Election(m=2, votes=(frozenset({0, 1}),))
    res = pav_deg1(Instance(election=e2, rule=PAV, k=2, d=Fraction(3, 2)))
    assert res.decision and res.witness == (0, 1)
    assert res.opt_score == Fraction(3, 2)
    assert pav_deg1(Instance(election=e2, rule=PAV, k=0, d=0)).decision


def _prefix(e, votes, cands, kind, j):
    return tuple(sorted(pav_component_order(multigraph_rep(e), votes, cands, kind)[:j]))


def _component_score(e, votes, w):
    return sum((score(Election(m=e.m, votes=(e.votes[v],)), PAV, w) for v in votes), Fraction(0))


def _components(e):
    edges = multigraph_rep(e)
    comps, _ = multigraph_components(e.n, edges)
    for votes, cands in comps:
        yield votes, cands, classify_component(votes, {c: edges[c] for c in cands})


def test_pav_component_optimal_examples():
    # one candidate-edge between two votes
    e = Election(m=1, votes=(frozenset({0}), frozenset({0})))
    w = _prefix(e, {0, 1}, (0,), "path", 1)
    assert w == (0,) and score(e, PAV, w) == 2

    # hairstick: loop candidate 0 on vote 0, edge candidate 1 to vote 1
    e = Election(m=2, votes=(frozenset({0, 1}), frozenset({1})))
    w = _prefix(e, {0, 1}, (0, 1), "hairstick", 1)
    assert w == (1,) and score(e, PAV, w) == 2

    # four-cycle: j=2 picks a matching pair scoring 4
    e = Election(
        m=4,
        votes=(
            frozenset({0, 3}),
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        ),
    )
    w = _prefix(e, {0, 1, 2, 3}, (0, 1, 2, 3), "cycle", 2)
    assert score(e, PAV, w) == 4


def test_pav_component_monotone_in_j():
    rng = random.Random(31)
    for _ in range(80):
        e = random_election(rng, max_dv=2, max_dc=2)
        for votes, cands, kind in _components(e):
            prev = Fraction(-1)
            for j in range(len(cands) + 1):
                s = _component_score(e, votes, _prefix(e, votes, cands, kind, j))
                assert s >= prev
                prev = s


def test_pav_component_gains_never_increase_along_the_order():
    # pav_deg22's k-way merge of the gain profiles is optimal only because
    # each component's marginal gains along its order are non-increasing
    rng = random.Random(34)
    profiles = 0
    for _ in range(2000):
        e = random_election(rng, max_m=10, max_n=10, max_dv=2, max_dc=2)
        edges = multigraph_rep(e)
        for votes, cands, kind in _components(e):
            order = pav_component_order(edges, votes, cands, kind)
            s = [_component_score(e, votes, order[:j]) for j in range(len(order) + 1)]
            gains = [b - a for a, b in zip(s, s[1:])]
            assert all(g >= h for g, h in zip(gains, gains[1:])), (e, votes, order)
            profiles += 1
    assert profiles > 4000


def test_pav_component_prefixes_are_optimal():
    rng = random.Random(33)
    seen = 0
    for _ in range(150):
        e = random_election(rng, max_m=9, max_n=8, max_dv=2, max_dc=2)
        for votes, cands, kind in _components(e):
            if len(cands) > 8:
                continue
            order = pav_component_order(multigraph_rep(e), votes, cands, kind)
            assert sorted(order) == sorted(cands)
            for j in range(len(cands) + 1):
                best = max(
                    _component_score(e, votes, w) for w in itertools.combinations(cands, j)
                )
                assert _component_score(e, votes, order[:j]) == best
            seen += 1
    assert seen > 100


def test_pav_component_order_rejects_other_kinds():
    e = Election(m=3, votes=(frozenset({0, 1, 2}), frozenset({0}), frozenset({1})))
    with pytest.raises(ValueError):
        pav_component_order(multigraph_rep(e), {0, 1, 2}, (0, 1, 2), "other")


def test_degree_two_routes_never_scan_approvers(monkeypatch):
    # one matching serves every committee size, and the vote multigraph
    # replaces the per-candidate approver scans; the routes call the blossom
    # core `graphs._mates` directly, so that is what is counted
    calls = Counter()
    mates, approvers = graphs._mates, Election.approvers

    def counted_mates(*args, **kwargs):
        calls["mates"] += 1
        return mates(*args, **kwargs)

    def counted_approvers(self, c):
        calls["approvers"] += 1
        return approvers(self, c)

    monkeypatch.setattr(graphs, "_mates", counted_mates)
    monkeypatch.setattr(Election, "approvers", counted_approvers)
    n = 300
    path = Election(n + 1, tuple(frozenset({j, j + 1}) for j in range(n)))
    assert pav_deg22(Instance(path, PAV, 200, 0)).opt_score == 350
    assert calls == Counter(mates=1)
    assert ccav_deg2(Instance(path, CCAV, 100, 0)).opt_score == 200
    assert calls == Counter(mates=2)
    assert mav_deg2(Instance(path, MAV, 150, 150)).decision
    assert calls == Counter(mates=3)
    assert calls["approvers"] == 0


def test_pav_deg22_matches_the_treewidth_dp_on_a_500_vote_path():
    n = 500
    path = Election(n + 1, tuple(frozenset({j, j + 1}) for j in range(n)))
    inst = Instance(path, PAV, 300, 0)
    res = pav_deg22(inst)
    assert res.opt_score == cli.ALGOS["pav-tw"](inst).opt_score == 550
    assert score(path, PAV, res.witness) == 550


def test_witness_check_survives_optimisation():
    # the exact re-score is an explicit check, not an assert that -O strips
    script = textwrap.dedent("""
        from fractions import Fraction
        from approvalwd import core, Election, fpt, Instance, MAV, PAV, poly
        from approvalwd.core import InternalError

        assert False, "asserts are stripped under -O"
        core.score = lambda *args: Fraction(10**9)
        e = Election(3, ({0, 1}, {1, 2}, {2}))
        cases = [
            (poly.pav_deg22, Instance(e, PAV, 2, 0)),
            (poly.mav_deg2, Instance(e, MAV, 1, 2)),
            (fpt.pav_annotated, Instance(e, PAV, 2, 0)),
        ]
        for solver, inst in cases:
            try:
                solver(inst)
            except InternalError:
                print(solver.__name__, "raised")
    """)
    src = os.path.dirname(os.path.dirname(approvalwd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout.split("\n")
    assert out[:3] == ["pav_deg22 raised", "mav_deg2 raised", "pav_annotated raised"]


def test_pav_deg22_examples():
    # two single-edge components, k=1: pick the better-covered one
    e = Election(m=2, votes=(frozenset({0}), frozenset({0}), frozenset({1})))
    res = pav_deg22(Instance(election=e, rule=PAV, k=1, d=2))
    assert res.decision and res.witness == (0,) and res.opt_score == 2
    # one path component: collapses to the component optimum
    e2 = Election(m=1, votes=(frozenset({0}), frozenset({0})))
    res2 = pav_deg22(Instance(election=e2, rule=PAV, k=1, d=2))
    assert res2.decision and res2.opt_score == 2


def test_pav_deg22_matches_the_knapsack_reference():
    # same optimum and same witness as the knapsack over component rows
    rng = random.Random(35)
    pairs = 0
    for _ in range(150):
        e = random_election(rng, max_m=30, max_n=30, max_dv=2, max_dc=2)
        for k in range(e.m + 1):
            inst = Instance(e, PAV, k, 0)
            res = pav_deg22(inst)
            assert (res.opt_score, res.witness) == reference_pav_deg22(inst), (e, k)
            pairs += 1
    assert pairs > 2000


def test_pav_deg22_at_a_thousand_votes_is_fast():
    # the knapsack over component rows takes about 0.6 s on this election
    e = generate(GeneratorConfig(m=1000, n=1000, max_dv=2, max_dc=2), 1)
    start = time.perf_counter()
    res = pav_deg22(Instance(e, PAV, 250, 0))
    assert time.perf_counter() - start < 0.2
    assert res.opt_score == 493 and len(res.witness) == 250


def _five_cycles(cycles):
    """``cycles`` disjoint 5-cycles: vote j approves j and its cycle predecessor."""
    n = 5 * cycles
    return Election(n, tuple(frozenset({j, j - j % 5 + (j - 1) % 5}) for j in range(n)))


def test_degree_two_routes_on_5000_disjoint_five_cycles_are_fast():
    # every blossom search stays within its own tree: with a contraction that
    # scanned every vertex, the CCAV route took about 7 s here
    cycles = 5000
    n = 5 * cycles
    e = _five_cycles(cycles)
    for route, rule in ((ccav_deg2, CCAV), (pav_deg22, PAV)):
        start = time.perf_counter()
        res = route(Instance(e, rule, 2 * cycles, 0))
        assert time.perf_counter() - start < 2.0, route.__name__
        assert res.opt_score == 4 * cycles
    ring = adjacency(range(n), [(j, j - j % 5 + (j - 1) % 5) for j in range(n)])
    assert len(graphs.max_matching(ring)) == 2 * cycles


def _degree_two_election(rng, m, n):
    """Both degrees at most two: each candidate is approved by 0, 1 or 2
    random votes that still have room, so free candidates, loops, parallel
    edges, odd and even cycles and empty votes all occur."""
    room = [2] * n
    votes = [set() for _ in range(n)]
    for c in range(m):
        open_votes = [v for v in range(n) if room[v]]
        for v in rng.sample(open_votes, min(rng.choice((0, 1, 2, 2, 2)), len(open_votes))):
            votes[v].add(c)
            room[v] -= 1
    return Election(m, tuple(votes))


def _degree_two_elections(seed, count):
    rng = random.Random(seed)
    return [_degree_two_election(rng, rng.randint(0, 14), rng.randint(0, 10))
            for _ in range(count)]


def test_degree_two_elections_have_every_feature():
    # the elections the order and component tests below run on
    seen = Counter()
    for e in _degree_two_elections(41, 400):
        edges = multigraph_rep(e)
        pairs = [ends for ends in edges if len(ends) == 2]
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["loop"] += any(len(ends) == 1 for ends in edges)
        seen["free"] += any(not ends for ends in edges)
        seen["empty vote"] += any(not v for v in e.votes)
        seen["odd cycle"] += any(
            len(votes) % 2 and classify_component(votes, {c: edges[c] for c in cands}) == "cycle"
            for votes, cands, _ in _components(e))
    assert min(seen[x] for x in ("parallel", "loop", "free", "empty vote", "odd cycle")) >= 20, seen


def test_matching_order_equals_the_reference():
    for e in _degree_two_elections(41, 400):
        edges = multigraph_rep(e)
        pairs = [c for c, ends in enumerate(edges) if len(ends) == 2]
        for cands in (range(e.m), pairs):
            assert _matching_order(e.n, edges, cands) == reference_matching_order(
                edges, range(e.n), cands)


def test_pav_deg22_counts_the_components_of_multigraph_components():
    rng = random.Random(42)
    for e in _degree_two_elections(41, 400) + [_five_cycles(5000)]:
        comps, free = multigraph_components(e.n, multigraph_rep(e))
        res = pav_deg22(Instance(e, PAV, rng.randint(0, e.m), 0))
        assert (res.stats["components"], res.stats["free"]) == (len(comps), len(free))


def test_pav_deg22_rejects_a_vote_of_three_candidates():
    with pytest.raises(ValueError):
        pav_deg22(Instance(Election(3, (frozenset({0, 1, 2}),)), PAV, 1, 0))


def test_poly_solvers_match_oracle():
    rng = random.Random(32)
    for _ in range(80):
        e = random_election(rng, max_dc=2)
        for k in range(e.m + 1):
            for rule, solver in ((MAV, mav_deg2), (CCAV, ccav_deg2)):
                opt = brute_force(Instance(election=e, rule=rule, k=k, d=0)).opt_score
                for inst in instances_around_opt(e, rule, k, opt):
                    _check_against_oracle(inst, solver(inst))

        e = random_election(rng, max_dc=1)
        for k in range(e.m + 1):
            opt = brute_force(Instance(election=e, rule=PAV, k=k, d=0)).opt_score
            for inst in instances_around_opt(e, PAV, k, opt):
                _check_against_oracle(inst, pav_deg1(inst))

        e = random_election(rng, max_dv=2, max_dc=2)
        for k in range(e.m + 1):
            opt = brute_force(Instance(election=e, rule=PAV, k=k, d=0)).opt_score
            for inst in instances_around_opt(e, PAV, k, opt):
                _check_against_oracle(inst, pav_deg22(inst))


# Metamorphic properties of the degree-two routes, past the oracle's reach.
_FAST = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def _deg2_elections(draw):
    m = draw(st.integers(1, 60))
    n = draw(st.integers(0, 60))
    room = [2] * m
    votes = []
    for _ in range(n):
        picks = draw(st.frozensets(st.integers(0, m - 1), max_size=2))
        v = frozenset(c for c in picks if room[c])
        for c in v:
            room[c] -= 1
        votes.append(v)
    return Election(m, tuple(votes)), draw(st.integers(0, m))


def _answers(e, k, d):
    return (
        ccav_deg2(Instance(e, CCAV, k, 0)).opt_score,
        pav_deg22(Instance(e, PAV, k, 0)).opt_score,
        mav_deg2(Instance(e, MAV, k, d)).decision,
    )


@_FAST
@given(_deg2_elections(), st.randoms(use_true_random=False), st.integers(0, 8))
def test_relabelling_and_reordering_keep_the_poly_answers(case, rng, d):
    e, k = case
    perm = list(range(e.m))
    rng.shuffle(perm)
    votes = [frozenset(perm[c] for c in v) for v in e.votes]
    rng.shuffle(votes)
    assert _answers(Election(e.m, tuple(votes)), k, d) == _answers(e, k, d)


@_FAST
@given(_deg2_elections(), st.integers(0, 8))
def test_an_unapproved_candidate_or_empty_vote_keeps_the_poly_answers(case, d):
    e, k = case
    ccav, pav, mav = _answers(e, k, d)
    assert _answers(Election(e.m + 1, e.votes), k, d) == (ccav, pav, mav)
    # an empty vote sits at distance exactly k from every k-committee
    with_empty = Election(e.m, e.votes + (frozenset(),))
    assert _answers(with_empty, k, d) == (ccav, pav, mav and d >= k)
