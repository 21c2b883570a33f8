import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from approvalwd import (
    CCAV,
    compute_params,
    Election,
    format_instance,
    Instance,
    MAV,
    meets_threshold,
    PAV,
    RULES,
    score,
)
from approvalwd import cli, fpt, graphs, oracle, portfolio, twdp
from approvalwd.oracle import brute_force
from approvalwd.portfolio import (
    AllSolversExceededError,
    bench,
    dispatch,
    generate,
    GeneratorConfig,
    verify,
)

from helpers import (
    e1,
    edge_list,
    near_path,
    random_election,
    reference_dispatch,
    sweep_against_oracle,
)


def test_every_route_rechecks_its_witness_under_optimisation():
    # core.answer's re-score is an explicit check, not an assert that -O
    # strips: with score broken, every route that returns a witness raises
    script = textwrap.dedent("""
        from fractions import Fraction
        from approvalwd import core, Election, Instance, portfolio

        assert False, "asserts are stripped under -O"
        e = Election(3, ({0, 1}, {1, 2}, {2}))
        on_rule = {"mav": Instance(e, "mav", 1, 2), "ccav": Instance(e, "ccav", 1, 2),
                   "pav": Instance(e, "pav", 2, 3)}
        on_name = {"av_optimal": Instance(Election(3, ({0}, {1}, {0})), "ccav", 1, 0),
                   "pav_deg1": Instance(Election(3, ({0, 1}, {2})), "pav", 2, 0),
                   "exhaustive": on_rule["pav"]}
        cases = [
            (s.name, lambda s=s: s(on_name.get(s.name) or on_rule[s.rule]))
            for s in portfolio.SOLVERS if s.algo not in ("auto", "brute")
        ]
        bound = Instance(Election(3, ({0, 1}, {0, 1}, {0, 2})), "mav", 1, 3)
        cases.append(("score_bound", lambda: portfolio.dispatch(bound)))
        found = {name: run() for name, run in cases}
        core.score = lambda *args: Fraction(10**9)
        for name, run in cases:
            try:
                run()
                raised = False
            except core.InternalError:
                raised = True
            res = found[name]
            print(name, res.algorithm, res.witness is not None, raised)
    """)
    src = os.path.dirname(os.path.dirname(portfolio.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout.split()
    rows = [tuple(out[i:i + 4]) for i in range(0, len(out), 4)]
    routes = [s.name for s in portfolio.SOLVERS if s.algo not in ("auto", "brute")]
    assert rows == [
        (name, algorithm, "True", "True")
        for name, algorithm in zip(routes + ["score_bound"], routes + ["score_bound"])
    ]


def test_dispatch_routing():
    res = dispatch(Instance(election=e1(), rule=PAV, k=2, d=Fraction(7, 2)))
    assert res.algorithm == "pav_deg22" and res.decision

    av = Election(m=3, votes=(frozenset({0}), frozenset({0}), frozenset({1})))
    res = dispatch(Instance(election=av, rule=CCAV, k=1, d=2))
    assert res.algorithm == "av_optimal" and res.decision

    res = dispatch(Instance(election=e1(), rule=MAV, k=1, d=2))
    assert res.algorithm == "mav_deg2" and res.decision


def test_dispatch_fpt_route():
    # deltaC = 3 knocks out every polynomial special case
    e = Election(
        m=4,
        votes=(
            frozenset({0, 1, 2}),
            frozenset({0, 2, 3}),
            frozenset({0, 1, 3}),
        ),
    )
    for rule in RULES:
        inst = Instance(election=e, rule=rule, k=2, d=1)
        res = dispatch(inst)
        assert res.decision == brute_force(inst).decision
        assert res.algorithm != "brute_force"


def test_dispatch_score_bounds():
    # e1 is answered by a polynomial route before the bounds are reached;
    # deltaV = deltaC = 3 leaves the bounds to answer
    deg3 = Election(
        m=4,
        votes=(frozenset({0, 1, 2}), frozenset({0, 2, 3}), frozenset({0, 1, 3})),
    )
    for e in (e1(), deg3):
        for rule, d, decision in (
            (CCAV, e.delta_c + 1, False),
            (PAV, e.delta_c + 1, False),
            (MAV, 1 + e.delta_v, True),
        ):
            res = dispatch(Instance(election=e, rule=rule, k=1, d=d))
            assert res.decision == decision
            if e is deg3:
                assert res.algorithm == "score_bound"
    rng = random.Random(48)
    for rule in (MAV, CCAV, PAV):
        sweep_against_oracle(rng, rule, dispatch, 25, max_m=5, max_n=5)


def _fpt_instances():
    """Seeded instances that no polynomial route answers."""
    rng = random.Random(2107)
    out = []
    while len(out) < 36:
        delta = rng.choice((3, 4))
        config = GeneratorConfig(
            m=rng.randint(8, 16), n=rng.randint(6, 14), max_dv=delta, max_dc=delta
        )
        e = generate(config, rng.randrange(10**6))
        if e.delta_v < 2 or e.delta_c < 3:
            continue
        rule = RULES[len(out) % 3]
        k = rng.randint(3, 6)
        top = k + e.delta_v if rule == MAV else k * e.delta_c + 1
        out.append(Instance(election=e, rule=rule, k=k, d=rng.randint(0, top)))
    return out


# dispatch's route on each of _fpt_instances(), recorded before dispatch
# checked the score bounds; only instances inside a bound may differ.  Rows 0,
# 3, 15, 18, 21 and 24 (mav_by_classes or mav_k_deltac before) and 2 and 32
# (pav_annotated before) moved when the set-packing and pav_bb_dv costs became
# their searches' node bounds; row 27 (mav_by_classes before) moved when
# mav_by_classes stopped being ranked, to mav_k_deltac's identical search
FPT_ROUTES = [
    "mav_dual_grsp", "ccav_tw_dp", "pav_bb_dv", "mav_dual_grsp",
    "ccav_tw_dp", "pav_annotated", "mav_dual_grsp", "ccav_tw_dp",
    "pav_annotated", "mav_by_classes", "ccav_tw_dp", "pav_annotated",
    "mav_k_deltac", "ccav_tw_dp", "pav_annotated", "mav_dual_grsp",
    "ccav_tw_dp", "pav_annotated", "mav_dual_grsp", "ccav_tw_dp",
    "pav_annotated", "mav_dual_grsp", "ccav_tw_dp", "pav_bb_dv",
    "mav_dual_grsp", "ccav_bb_dual", "pav_annotated", "mav_k_deltac",
    "ccav_tw_dp", "pav_annotated", "mav_k_deltac", "ccav_tw_dp",
    "pav_bb_dv", "mav_by_classes", "ccav_tw_dp", "pav_bb_dv",
]


# the CCAV and PAV rows of _fpt_instances() that the root certificates answer
# before the ranking runs, through the rule's branch-and-bound route with 0
# nodes; FPT_ROUTES keeps the ranking's pick for them, which the test checks
# with the root stubbed out
ROOT_ROWS = {1, 4, 5, 7, 8, 10, 11, 13, 16, 17, 19, 22, 26, 28, 29, 31, 34}


def test_dispatch_route_choice_is_pinned(monkeypatch):
    bounded = set()
    rows = list(enumerate(zip(_fpt_instances(), FPT_ROUTES, strict=True)))
    for i, (inst, route) in rows:
        e = inst.election
        if inst.rule == MAV and inst.d >= inst.k + e.delta_v or (
            inst.rule != MAV and inst.d > inst.k * e.delta_c
        ):
            route = "score_bound"
            bounded.add(i)
        elif i in ROOT_ROWS:
            route = {CCAV: "ccav_bb_dual", PAV: "pav_bb_dv"}[inst.rule]
        res = dispatch(inst)
        assert res.algorithm == route
        if i in ROOT_ROWS:
            assert res.stats["nodes"] == 0
    assert len(bounded) == 3
    # with the root leaving every instance undecided, the ranking picks the
    # pinned route on every row inside no score bound
    monkeypatch.setattr(fpt, "_submodular_root", lambda instance: None)
    for i, (inst, route) in rows:
        if i not in bounded:
            assert dispatch(inst).algorithm == route


@pytest.mark.parametrize("rule", RULES)
def test_dispatch_counts_the_approvals_once(rule, monkeypatch):
    # deltaV = 4 and deltaC = 3: no polynomial route or score bound answers,
    # so dispatch reads the degrees, computes the parameters and picks a route;
    # under CCAV and PAV the stand-in for the rule's branch-and-bound route
    # first leaves the root undecided, so the ranked route runs after it
    e = generate(GeneratorConfig(14, 12, 4, 4), 3)
    passes, at_route = [], []
    counts = Election.__dict__["approver_counts"]
    count = counts.func

    def counted(self):
        passes.append(self)
        return count(self)

    def route(*args, root_only=False):
        at_route.append(len(passes))
        return None if root_only else "route"

    monkeypatch.setattr(counts, "func", counted)
    for solver in portfolio.SOLVERS:
        if solver.cost:
            monkeypatch.setattr(twdp if hasattr(twdp, solver.name) else portfolio.fpt,
                                solver.name, route)
    assert dispatch(Instance(election=e, rule=rule, k=4, d=3)) == "route"
    assert at_route == [1] * (1 if rule == MAV else 2)


def test_dispatch_matches_oracle():
    rng = random.Random(80)
    for _ in range(80):
        e = random_election(rng)
        inst = Instance(
            election=e,
            rule=rng.choice(RULES),
            k=rng.randint(0, e.m),
            d=Fraction(rng.randint(0, 8), rng.choice((1, 2))),
        )
        assert dispatch(inst).decision == brute_force(inst).decision


def test_dispatch_budget_exhaustion():
    e = Election(m=30, votes=tuple(frozenset({c, (c + 1) % 30, (c + 2) % 30}) for c in range(30)))
    inst = Instance(election=e, rule=PAV, k=15, d=40)
    with pytest.raises(AllSolversExceededError):
        dispatch(inst)


# vote j approves {j, j + 1, j + 2}: every degree is 3 and the width 2, and
# every other FPT route is over its cap, so dispatch ends in a treewidth route.
# The root certificates settle every CCAV question on it, and PAV's at k = 7
# up to the optimum, 41/2: the treewidth tests ask PAV d = 21, past it
_THICK_PATH = Election(m=22, votes=tuple(frozenset({j, j + 1, j + 2}) for j in range(20)))
# the 3 x 5 grid graph, a vote per edge: width 3, and at k = 6, d = 19 (the
# optimum) the root certificates leave CCAV undecided and the treewidth DP wins
_GRID = Election(m=15, votes=tuple(frozenset({c, c + step}) for c in range(15)
                                   for step in (1, 5) if c + step < 15 and (step == 5 or c % 5 < 4)))


@pytest.mark.parametrize("rule,k,d,route", [
    (MAV, 6, 8, "mav_tw_dp"), (CCAV, 6, 19, "ccav_tw_dp"), (PAV, 7, 21, "pav_tw_dp"),
])
def test_dispatch_to_a_treewidth_route_runs_min_fill_once(rule, k, d, route, monkeypatch):
    calls = []
    min_fill_order = graphs.min_fill_order

    def spy(graph, *args):
        calls.append(graph)
        return min_fill_order(graph, *args)

    monkeypatch.setattr(graphs, "min_fill_order", spy)
    inst = Instance(election=_GRID if rule == CCAV else _THICK_PATH, rule=rule, k=k, d=d)
    res = dispatch(inst)
    assert res.algorithm == route
    assert len(calls) == 1
    # called alone, the registry entry builds the same decomposition afresh
    alone = cli.ALGOS[f"{rule}-tw"](inst)
    assert len(calls) == 2
    assert (res, res.stats) == (alone, alone.stats)


@pytest.mark.parametrize("config,seed,rule,k,d,width,route", [
    # the s10 stratum of perfbench's fpt-mixed: width 12, over TW_WIDTH_CAP;
    # d = 21 is past the optimum, 20, where the root leaves it undecided
    ((22, 36, 6, 6), 10000, CCAV, 4, 21, 12, "exhaustive"),
    # the s08 stratum: the treewidth route's lower bound ranks first, but past
    # width 3 it costs more than pav_bb_dv, and the width is 7; d = 21 is past
    # the optimum, 20, where the root leaves it undecided
    ((24, 26, 5, 5), 0, PAV, 5, 21, 7, "pav_bb_dv"),
])
def test_dispatch_finishes_no_min_fill_where_the_treewidth_route_loses(
        config, seed, rule, k, d, width, route, monkeypatch):
    found = []
    min_fill_order = graphs.min_fill_order

    def spy(graph, *args):
        found.append(min_fill_order(graph, *args))
        return found[-1]

    monkeypatch.setattr(graphs, "min_fill_order", spy)
    inst = Instance(generate(GeneratorConfig(*config), seed), rule, k, d)
    assert dispatch(inst).algorithm == route
    # one min-fill started, and stopped before its last elimination
    assert found == [None]
    assert compute_params(inst).tw_upper == width


def test_dispatch_to_a_treewidth_route_builds_the_incidence_graph_once(monkeypatch):
    calls = []
    incidence_graph = graphs.incidence_graph

    def spy(election):
        calls.append(election)
        return incidence_graph(election)

    monkeypatch.setattr(graphs, "incidence_graph", spy)
    res = dispatch(Instance(election=_THICK_PATH, rule=PAV, k=7, d=21))
    assert res.algorithm == "pav_tw_dp"
    assert len(calls) == 1


def test_dispatch_to_a_matching_route_computes_one_matching(monkeypatch):
    # the wide + pairs election of the eager-reference sweep: the ranking
    # reads alpha off the matching that the route then splits on
    calls = []
    max_matching = graphs.max_matching

    def spy(graph):
        calls.append(graph)
        return max_matching(graph)

    monkeypatch.setattr(graphs, "max_matching", spy)
    wide = [frozenset({j % 4} | {4 + i for i in range(16) if i % 5 == j}) for j in range(5)]
    pairs = [frozenset(p) for p in itertools.combinations(range(4), 2)] * 2
    e = Election(m=20, votes=tuple(wide + pairs))
    for d in (9, 10):
        calls.clear()
        assert dispatch(Instance(election=e, rule=MAV, k=10, d=d)).algorithm == "mav_by_matching"
        assert len(calls) == 1


def test_long_near_paths_are_decided_without_recursion(tmp_path):
    # δv = 3, so no polynomial route applies; a maximum matching takes every vote
    start = time.perf_counter()
    inst = Instance(election=near_path(3000), rule=PAV, k=6, d=3)
    p = compute_params(inst)
    assert (p.alpha, p.tw_upper, p.delta_v) == (3000, 1, 3)
    assert dispatch(inst).decision
    path = tmp_path / "nearpath1500.appr"
    path.write_text(format_instance(Instance(election=near_path(1500), rule=PAV, k=6, d=3)))
    assert cli.main(["params", str(path)]) == 0
    assert time.perf_counter() - start < 5.0


def _outcome(route, inst):
    try:
        res = route(inst)
    except (AllSolversExceededError, portfolio.BudgetExceededError) as exc:
        return type(exc).__name__, str(exc)
    return res.algorithm, res.decision, res.opt_score, res.witness, res.stats


def _dual_scale_shaped(size, seed):
    """A dual-scale-shaped election: m = n = size, both degrees at most 4."""
    return generate(GeneratorConfig(m=size, n=size, max_dv=4, max_dc=4), seed)


def _seeded_instances(rng, count, m, n, k=None):
    for i in range(count):
        e = generate(
            GeneratorConfig(m=rng.randint(*m), n=rng.randint(*n),
                            max_dv=rng.choice((2, 3, 4, 5)), max_dc=rng.choice((3, 4, 5))),
            rng.randrange(10**9),
        )
        rule = RULES[i % 3]
        kk = rng.randint(0, e.m) if k is None else min(rng.randint(*k), e.m)
        top = kk + e.delta_v if rule == MAV else kk * e.delta_c
        yield Instance(election=e, rule=rule, k=kk, d=Fraction(rng.randint(0, 2 * top + 1), 2))


def test_a_ranked_route_with_a_cost_stays_within_its_budget():
    # dispatch runs the first route it ranks and catches no BudgetExceededError:
    # a class route raises it only where its cost is None, so it is never
    # ranked there.  n falls on both sides of CLASS_VOTE_BUDGET = 16.  The
    # matching routes have no budget: pav_by_matching runs here at alpha 17
    # and 18, and both answer at alpha = 18 in the verify test below.
    # ccav_bb_dual has no budget and runs here only within FPT_COST_CAP, as in
    # dispatch: at this size its no-instances take seconds
    rng = random.Random(16)
    ran, gated, alphas = set(), set(), set()
    for inst in _seeded_instances(rng, 120, m=(6, 22), n=(12, 22), k=(1, 2)):
        p = compute_params(inst)
        for solver in portfolio.SOLVERS:
            if not solver.cost or solver.rule != inst.rule:
                continue
            cost = solver.cost(inst, p)
            if solver.name == "pav_annotated":
                (gated if cost is None else ran).add(p.n)
            if cost is None or solver.name == "ccav_bb_dual" and cost > portfolio.FPT_COST_CAP:
                continue
            solver.run(inst, p)
            if solver.name == "pav_by_matching":
                alphas.add(p.alpha)
    assert 16 in ran and 17 in gated and {17, 18} <= alphas


# Metamorphic properties of every FPT route, ranked or not, on elections small
# enough for the class routes to stay within their budget once every vote is
# doubled.
def _ranked_answer(solver, election, k, d):
    res = solver(Instance(election, solver.rule, k, d))
    return res.decision, res.opt_score


@pytest.mark.parametrize("solver", [s for s in portfolio.SOLVERS if s.rule and not s.degrees],
                         ids=lambda s: s.name)
def test_a_ranked_route_answers_alike_on_equivalent_elections(solver):
    rng = random.Random(sum(map(ord, solver.name)))
    rule = solver.rule
    for _ in range(50):
        e = random_election(rng, max_m=8, max_n=8)
        k = rng.randint(0, e.m)
        opt = brute_force(Instance(e, rule, k, 0)).opt_score
        d = opt + rng.choice((0, -1 if rule == MAV else 1))
        decision, value = base = _ranked_answer(solver, e, k, d)
        assert decision == meets_threshold(rule, opt, d) and value in (None, opt)
        perm = list(range(e.m))
        rng.shuffle(perm)
        relabelled = Election(e.m, tuple(frozenset(perm[c] for c in v) for v in e.votes))
        assert _ranked_answer(solver, relabelled, k, d) == base
        votes = list(e.votes)
        rng.shuffle(votes)
        assert _ranked_answer(solver, Election(e.m, tuple(votes)), k, d) == base
        assert _ranked_answer(solver, Election(e.m + 1, e.votes), k, d) == base
        with_empty = Election(e.m, e.votes + (frozenset(),))
        doubled = Election(e.m, e.votes + e.votes)
        if rule == MAV:
            # an empty vote sits at distance exactly k from every k-committee
            assert _ranked_answer(solver, with_empty, k, d) == (
                decision and d >= k, None if value is None else max(value, k))
            assert _ranked_answer(solver, doubled, k, d) == base
        else:
            assert _ranked_answer(solver, with_empty, k, d) == base
            assert _ranked_answer(solver, doubled, k, 2 * d) == (
                decision, None if value is None else 2 * value)


def test_dispatch_matches_the_eager_reference():
    rng = random.Random(1843)
    instances = list(_seeded_instances(rng, 1500, m=(4, 16), n=(3, 14)))
    instances += _seeded_instances(rng, 60, m=(17, 20), n=(10, 18), k=(3, 8))
    for size, seed in ((150, 1), (160, 2)):
        e = _dual_scale_shaped(size, seed)
        for rule, k, d in ((MAV, size - 2, size - 4), (MAV, size - 2, 3), (CCAV, size - 2, size - 10),
                           (CCAV, size - 2, size), (PAV, 5, 3), (PAV, 5, 6), (PAV, 8, 3)):
            instances.append(Instance(election=e, rule=rule, k=k, d=d))
    # vote cover 9 on m = 20 with n = 17: the matching route beats set packing
    wide = [frozenset({j % 4} | {4 + i for i in range(16) if i % 5 == j}) for j in range(5)]
    pairs = [frozenset(p) for p in itertools.combinations(range(4), 2)] * 2
    e = Election(m=20, votes=tuple(wide + pairs))
    instances += [Instance(election=e, rule=MAV, k=10, d=d) for d in (9, 10)]
    # dense CCAV at m <= 22 with every route over its cap, and a refusal at m = 30,
    # where C(31, 15) is over the exhaustive route's cap
    for config, seed, k, d in (((18, 21, 6, 6), 19, 6, 32), ((19, 19, 6, 6), 25, 5, 17)):
        instances.append(Instance(election=generate(GeneratorConfig(*config), seed),
                                  rule=CCAV, k=k, d=d))
    e = Election(m=30, votes=tuple(frozenset({c, (c + 1) % 30, (c + 2) % 30}) for c in range(30)))
    instances.append(Instance(election=e, rule=PAV, k=15, d=40))
    # PAV questions that the root certificates leave to the treewidth and
    # matching routes: the thick path past its optimum, and the 11-hub
    # election at k = 6 past its optimum, 1361/20
    rng = random.Random(1)
    hub = Election(120, tuple(frozenset(rng.sample(range(11), rng.randint(6, 11)))
                              for _ in range(30)))
    instances += [Instance(_THICK_PATH, PAV, 7, 21), Instance(hub, PAV, 6, Fraction(1021, 15))]
    routes = set()
    for inst in instances:
        got = _outcome(dispatch, inst)
        assert got == _outcome(reference_dispatch, inst)
        routes.add(got[0])
    # the sweep reaches every kind of FPT route, the exhaustive route and a refusal
    assert {"mav_by_matching", "pav_by_matching", "mav_tw_dp", "ccav_tw_dp", "pav_tw_dp",
            "mav_dual_grsp", "ccav_bb_dual", "pav_bb_dv", "exhaustive",
            "AllSolversExceededError"} <= routes


def test_dispatch_decides_the_dense_shape_past_m_22():
    # m 23-29, n 36, both degrees 6, k = 4, d at the optimum and half a point
    # above: no ranked route is within the cap for CCAV, so the exhaustive
    # route decides it, past the oracle's m <= 22, wherever the root
    # certificates leave it undecided (23 of the 28 CCAV questions; the root
    # answers the other 5 yes, with 0 nodes).  Where the min-fill width is at
    # most 12, a treewidth DP called directly checks the optimum
    tw_routes = {CCAV: twdp.ccav_tw_dp, PAV: twdp.pav_tw_dp}
    checked, exhausted = set(), 0
    for m in range(23, 30):
        for seed in (0, 1):
            e = generate(GeneratorConfig(m, 36, 6, 6), seed)
            for rule, tw_route in tw_routes.items():
                opt = fpt.exhaustive(Instance(e, rule, 4, 0)).opt_score
                for d in (opt, opt + Fraction(1, 2)):
                    res = dispatch(Instance(e, rule, 4, d))
                    assert res.decision == (d == opt)
                    assert rule == PAV or res.algorithm == "exhaustive" or (
                        res.algorithm, res.decision, res.stats) == ("ccav_bb_dual", True, {"nodes": 0})
                    exhausted += res.algorithm == "exhaustive"
                inst = Instance(e, rule, 4, opt)
                p = compute_params(inst)
                if p.tw_upper <= 12:
                    assert tw_route(inst, p.decomposition).opt_score == opt
                    checked.add(rule)
    assert checked == {CCAV, PAV} and exhausted == 23


def test_dispatch_never_calls_the_oracle(monkeypatch):
    # brute force is the tests' reference, not a route: where no ranked route
    # fits, dispatch runs the exhaustive route, whose decision is the oracle's;
    # called for the optimum, the route gives the oracle's optimum and witness
    brute_force = oracle.brute_force
    calls = []
    monkeypatch.setattr(oracle, "brute_force", lambda *args, **kw: calls.append(args))
    instances = list(_seeded_instances(random.Random(2022), 150, m=(4, 12), n=(3, 12)))
    # and two yes- and two no-instances that neither the root certificates
    # nor a ranked route take: each CCAV one at or past its optimum, 24 and 20
    for config, seed, rule, k, d in (
            ((22, 36, 6, 6), 0, CCAV, 4, 24), ((22, 36, 6, 6), 10000, CCAV, 4, 21),
            ((15, 20, 5, 5), 0, PAV, 6, Fraction(49, 2)), ((15, 20, 5, 5), 0, PAV, 6, 25)):
        instances.append(Instance(generate(GeneratorConfig(*config), seed), rule, k, d))
    exhausted = []
    for inst in instances:
        res = dispatch(inst)
        if res.algorithm == "exhaustive":
            truth = brute_force(inst)
            assert res.decision == truth.decision
            opt = fpt.exhaustive(inst)
            assert (opt.decision, opt.opt_score, opt.witness) == (
                truth.decision, truth.opt_score, truth.witness)
            exhausted.append(res.decision)
    assert calls == [] and sorted(exhausted) == [False, False, True, True]


@pytest.mark.parametrize("rule,kbar,k,d,route", [
    (MAV, 2, None, 140, "mav_dual_grsp"),
    (CCAV, 2, None, 140, "ccav_bb_dual"),
    (PAV, None, 5, 3, "pav_bb_dv"),
])
def test_dual_scale_shapes_run_neither_matching_nor_min_fill(rule, kbar, k, d, route, monkeypatch):
    e = _dual_scale_shaped(150, 0)
    calls = []
    for name in ("max_matching", "tree_decomposition"):
        monkeypatch.setattr(graphs, name, lambda *a, name=name: calls.append(name))
    inst = Instance(election=e, rule=rule, k=e.m - kbar if k is None else k, d=d)
    assert dispatch(inst).algorithm == route
    assert calls == []


def test_bench_runs_neither_matching_nor_min_fill_on_dual_scale_shapes(tmp_path, monkeypatch):
    # the twUpper and alpha cells stay empty where dispatch computed neither,
    # and hold the width where its treewidth route ran
    e = _dual_scale_shaped(150, 0)
    for rule, k, d in ((MAV, e.m - 2, 140), (CCAV, e.m - 2, 140), (PAV, 5, 3)):
        inst = Instance(election=e, rule=rule, k=k, d=d)
        (tmp_path / f"{rule}.appr").write_text(format_instance(inst))
    thick = tmp_path / "thick.appr"
    thick.write_text(format_instance(Instance(election=_THICK_PATH, rule=PAV, k=7, d=21)))
    rows = [line.split(",")[7:10] for line in bench(str(tmp_path)).strip().splitlines()]
    assert rows[-1] == ["2", "", "pav_tw_dp"]
    thick.unlink()
    calls = []
    for name in ("max_matching", "tree_decomposition"):
        monkeypatch.setattr(graphs, name, lambda *a, name=name, **kw: calls.append(name))
    rows = [line.split(",")[7:10] for line in bench(str(tmp_path)).strip().splitlines()]
    assert rows == [["twUpper", "alpha", "solver"], ["", "", "ccav_bb_dual"],
                    ["", "", "mav_dual_grsp"], ["", "", "pav_bb_dv"]]
    assert calls == []


def test_costs_grow_with_alpha_and_tw_and_bounds_stay_below():
    rng = random.Random(7)
    grid = list(itertools.product(range(0, 20), range(0, 11)))
    for inst in _seeded_instances(rng, 60, m=(3, 14), n=(2, 12)):
        e = inst.election
        p = compute_params(inst)
        bounds = portfolio._lower_bounds(e, p.delta_v, p.delta_c)
        assert bounds["alpha"] <= p.alpha and bounds["tw_upper"] <= p.tw_upper
        for solver in portfolio.SOLVERS:
            if not solver.cost:
                continue
            costs = {}
            for alpha, tw in grid:
                view = SimpleNamespace(**{name: getattr(p, name) for name in (
                    "m", "n", "k", "kbar", "delta_v", "delta_c")}, alpha=alpha, tw_upper=tw)
                cost = solver.cost(inst, view)
                costs[alpha, tw] = float("inf") if cost is None else cost
            for (alpha, tw), cost in costs.items():
                assert cost <= costs.get((alpha + 1, tw), cost)
                assert cost <= costs.get((alpha, tw + 1), cost)


def test_lower_bounds_match_a_forest_check():
    # tw_upper's bound is 2 exactly when the incidence graph has a cycle;
    # counting proves one where |E| reaches the non-isolated vertices, and
    # the union-find decides the rest, so both sides are covered
    nx = pytest.importorskip("networkx")
    path = Election(5, tuple(frozenset({j, j + 1}) for j in range(4)))
    star = Election(6, (frozenset(range(6)),))
    even_cycle = Election(2, (frozenset({0, 1}), frozenset({0, 1})))
    cycle_and_edges = Election(5, even_cycle.votes + tuple(frozenset({c}) for c in (2, 3, 4)))
    hand_made = [
        path, star, even_cycle, cycle_and_edges,
        Election(4, (frozenset(), frozenset({1, 2}), frozenset())),  # empty votes, unapproved 0, 3
        Election(0, ()), Election(0, (frozenset(), frozenset())), Election(3, ()),
    ]
    rng = random.Random(43)
    seeded = [random_election(rng, max_m=9, max_n=8, max_dv=rng.randint(1, 4), max_dc=rng.randint(1, 3))
              for _ in range(300)]
    for _ in range(100):
        # a forest of stars, plus two votes on one pair: a 4-cycle that the
        # count proves only where the forest has at most two trees
        e = random_election(rng, max_m=9, max_n=8, max_dv=1)
        pair = frozenset(rng.sample(range(e.m + 2), 2))
        seeded.append(Election(e.m + 2, e.votes + (pair, pair)))
    sides = Counter()
    for e in hand_made + seeded:
        g = nx.Graph()
        g.add_edges_from(edge_list(graphs.incidence_graph(e)))
        edges = g.number_of_edges()
        cycle = bool(nx.cycle_basis(g))
        bounds = portfolio._lower_bounds(e, e.delta_v, e.delta_c)
        assert bounds == {
            "alpha": math.ceil(edges / max(e.delta_v, e.delta_c, 1)),
            "tw_upper": 2 if cycle else min(edges, 1),
        }, e
        sides[cycle, edges > 0 and edges >= g.number_of_nodes()] += 1
    # counted cycles, cycles left to the union-find, and forests
    assert min(sides[True, True], sides[True, False], sides[False, False]) >= 20, sides
    assert not sides[False, True]


def test_a_3000_class_mav_instance_is_decided_without_recursion():
    # vote j approves candidate c iff bit j of c + 1 is set: 3000 classes, one
    # each; k * deltaC + 1 >= n, so mav_k_deltac runs the search over every
    # vote: dispatch for the decision, then the route itself for the optimum
    votes = tuple(frozenset(c for c in range(3000) if (c + 1) >> j & 1) for j in range(12))
    e = Election(m=3000, votes=votes)
    start = time.perf_counter()
    for k, decision, opt, nodes in ((5, True, 1495, 24876), (2990, False, 2037, 24143)):
        inst = Instance(election=e, rule=MAV, k=k, d=1500)
        res = dispatch(inst)
        assert (res.algorithm, res.decision) == ("mav_k_deltac", decision)
        res = fpt.mav_k_deltac(inst)
        assert (res.algorithm, res.decision, res.opt_score, res.stats) == (
            "mav_k_deltac", decision, opt, {"nodes": nodes})
    assert time.perf_counter() - start < 5.0


def test_dispatch_decides_where_only_the_split_search_routes_answer():
    # a later change to the ranking must not refuse these: 30 votes over 11
    # hub candidates of 120 (alpha = 11) go to the matching routes, and few
    # votes over many candidates to pav_annotated: 8 votes over 200 (vote j
    # approves c iff bit j of c + 1 is set), and 9 generated votes over 50.
    # The root certificates answer the PAV yes at k = 20 on the hubs and at
    # 79/6 on the 200 candidates; the PAV questions they leave undecided go
    # to the split search.  Each yes is re-scored, and each no is checked
    # against an optimum: 1361/20 on the hubs (exhaustive on the 11 hubs),
    # and 79/6 and 17/2 from pav_by_matching
    rng = random.Random(1)
    hub = Election(120, tuple(frozenset(rng.sample(range(11), rng.randint(6, 11)))
                              for _ in range(30)))
    few = Election(200, tuple(frozenset(c for c in range(200) if (c + 1) >> j & 1)
                              for j in range(8)))
    nine = generate(GeneratorConfig(50, 9, 14, 3), 7)
    for inst, algorithm, decision in (
            (Instance(hub, MAV, 20, 22), "mav_by_matching", True),
            (Instance(hub, PAV, 20, 40), "pav_bb_dv", True),
            (Instance(hub, PAV, 6, Fraction(1021, 15)), "pav_by_matching", False),
            (Instance(few, PAV, 3, Fraction(79, 6)), "pav_bb_dv", True),
            (Instance(few, PAV, 3, Fraction(41, 3)), "pav_annotated", False),
            (Instance(nine, PAV, 3, Fraction(17, 2)), "pav_annotated", True),
            (Instance(nine, PAV, 3, Fraction(511, 60)), "pav_annotated", False)):
        res = dispatch(inst)
        assert (res.algorithm, res.decision) == (algorithm, decision)
        if decision:
            assert meets_threshold(inst.rule, score(inst.election, inst.rule, res.witness), inst.d)
    assert fpt.exhaustive(Instance(Election(11, hub.votes), PAV, 6, 0)).opt_score == Fraction(1361, 20)
    for e, opt in ((few, Fraction(79, 6)), (nine, Fraction(17, 2))):
        inst = Instance(e, PAV, 3, opt + Fraction(1, 60))
        res = fpt.pav_by_matching(inst, compute_params(inst).matching)
        assert (res.decision, res.opt_score) == (False, opt)


def test_dispatch_decides_the_probe_files_it_refused():
    # the CCAV and PAV files of the refusal probe, generate(GeneratorConfig(m,
    # n, dv, dc), 0) with d = k * min(dc, 3) / 2, that dispatch refused while
    # it only ranked routes: the root certificates answer each yes, with 0
    # nodes, and the witness is re-scored here too
    for m, n, dv, dc, k in ((80, 120, 4, 4, 8), (120, 200, 3, 3, 10), (200, 300, 4, 5, 12),
                            (50, 50, 5, 5, 25), (400, 800, 3, 3, 20)):
        e = generate(GeneratorConfig(m, n, dv, dc), 0)
        for rule, route in ((CCAV, "ccav_bb_dual"), (PAV, "pav_bb_dv")):
            inst = Instance(e, rule, k, Fraction(k * min(dc, 3), 2))
            res = dispatch(inst)
            assert (res.algorithm, res.decision, res.stats["nodes"]) == (route, True, 0)
            assert meets_threshold(rule, score(e, rule, res.witness), inst.d)
    # k = 42 of m = 44, d = 203/4 just past the optimum, 201/4: the removal
    # bound proves the no at the root, where pav_bb_dv's search runs for minutes
    e = generate(GeneratorConfig(44, 35, 4, 2), 118705)
    res = dispatch(Instance(e, PAV, 42, Fraction(203, 4)))
    assert (res.algorithm, res.decision, res.stats["nodes"]) == ("pav_bb_dv", False, 0)
    assert fpt.exhaustive(Instance(e, PAV, 42, 0)).opt_score == Fraction(201, 4)


def test_generator_determinism_and_caps():
    config = GeneratorConfig(m=5, n=4, max_dv=2, max_dc=None)
    assert generate(config, 1) == generate(config, 1)
    assert generate(config, 1) != generate(config, 2) or True  # seeds may collide, no assert
    for seed in range(30):
        e = generate(GeneratorConfig(m=6, n=5, max_dv=2, max_dc=1), seed)
        assert e.delta_v <= 2
        assert e.delta_c <= 1
        p = compute_params(Instance(election=e, rule=MAV, k=0, d=0))
        assert p.delta_v <= 2 and p.delta_c <= 1
    with pytest.raises(ValueError):
        generate(GeneratorConfig(m=-1, n=0), 0)
    with pytest.raises(ValueError):
        generate(GeneratorConfig(m=1, n=1, max_dv=-1), 0)


def _write_corpus(path, count, seed):
    rng = random.Random(seed)
    for i in range(count):
        e = random_election(rng, max_m=5, max_n=4)
        inst = Instance(
            election=e,
            rule=rng.choice(RULES),
            k=rng.randint(0, e.m),
            d=rng.randint(0, 4),
        )
        (path / f"inst{i:03d}.appr").write_text(format_instance(inst))


def test_verify_corpus(tmp_path):
    _write_corpus(tmp_path, 25, seed=81)
    ok, report = verify(str(tmp_path))
    assert ok
    assert not [r for r in report if r["status"] == "disagreement"]


def test_verify_corrupt_file(tmp_path):
    _write_corpus(tmp_path, 3, seed=82)
    (tmp_path / "broken.appr").write_text("not an instance\n")
    (tmp_path / "latin1.appr").write_bytes(b"ccav 1 1 1\n2 1\n0 1\n\xff\n")
    (tmp_path / "folder.appr").mkdir()
    (tmp_path / "ignored.txt").write_text("not scanned\n")
    ok, report = verify(str(tmp_path))
    assert ok  # parse errors are reported, not disagreements
    errors = {r["instance"]: r["detail"] for r in report if r["status"] == "parse-error"}
    assert sorted(errors) == ["broken.appr", "folder.appr", "latin1.appr"]
    assert "utf-8" in errors["latin1.appr"]


def test_verify_names_each_route_it_skips_past_its_budget(tmp_path):
    # the three class routes consider more votes than fpt.CLASS_VOTE_BUDGET
    # here: each gets a skipped row naming it, which is no disagreement.  The
    # matching routes have no budget, and pav_by_matching answers at alpha = 18
    e = generate(GeneratorConfig(20, 30, 3, 5), 0)
    for rule in (MAV, PAV):
        (tmp_path / f"{rule}.appr").write_text(format_instance(Instance(e, rule, 4, 3)))
    ok, report = verify(str(tmp_path))
    assert ok
    assert [(r["instance"], r["status"], r["solver"]) for r in report] == [
        ("mav.appr", "skipped", "mav_by_classes"), ("mav.appr", "skipped", "mav_k_deltac"),
        ("pav.appr", "skipped", "pav_annotated")]
    assert all(f"exceeds budget {fpt.CLASS_VOTE_BUDGET}" in r["detail"] for r in report)


def test_verify_empty_corpus(tmp_path):
    ok, report = verify(str(tmp_path))
    assert ok and report == []


def test_bench(tmp_path):
    _write_corpus(tmp_path, 5, seed=83)
    text = bench(str(tmp_path))
    lines = text.strip().splitlines()
    assert lines[0].startswith("instance,rule,m,n,k")
    assert len(lines) == 6


def test_bench_computes_params_once_per_instance(tmp_path, monkeypatch):
    _write_corpus(tmp_path, 5, seed=83)
    # every degree is 3, so dispatch passes the polynomial routes and reads params
    e = Election(m=4, votes=(frozenset({0, 1, 2}),) * 3 + (frozenset({1, 2, 3}),))
    (tmp_path / "inst999.appr").write_text(format_instance(Instance(election=e, rule=PAV, k=2, d=2)))
    calls = []

    def spy(instance):
        calls.append(instance)
        return compute_params(instance)

    monkeypatch.setattr(portfolio, "compute_params", spy)
    rows = bench(str(tmp_path)).strip().splitlines()[1:]
    assert len(calls) == len(rows) == 6
    assert rows[-1].split(",")[9] not in ("pav_deg22", "av_optimal", "score_bound")


def test_bench_keeps_a_row_for_a_refused_instance(tmp_path):
    # the root certificates leave the m = 30 PAV ring of
    # test_dispatch_budget_exhaustion undecided, C(31, 15) committees is over
    # FPT_COST_CAP and every ranked route is over its cap: dispatch refuses
    # it.  A candidate outside [0, m) and a byte that is not UTF-8 each make a
    # parse-error row.  bench still writes every other row
    _write_corpus(tmp_path, 3, seed=83)
    ring = Election(m=30, votes=tuple(frozenset({c, (c + 1) % 30, (c + 2) % 30}) for c in range(30)))
    refused = Instance(ring, PAV, 15, 40)
    with pytest.raises(AllSolversExceededError):
        dispatch(refused)
    (tmp_path / "ring30.appr").write_text(format_instance(refused))
    (tmp_path / "cand5.appr").write_text("ccav 1 1 1\n2 1\n5\n")
    (tmp_path / "latin1.appr").write_bytes(b"ccav 1 1 1\n2 1\n0 1\n\xff\n")
    rows = [line.split(",") for line in bench(str(tmp_path)).strip().splitlines()]
    assert rows[0][9:12] == ["solver", "decision", "nodes"]
    assert [row[0] for row in rows[1:]] == ["cand5.appr", "inst000.appr", "inst001.appr",
                                            "inst002.appr", "latin1.appr", "ring30.appr"]
    for row in (rows[1], rows[5]):
        assert row[1:] == [""] * 8 + ["parse-error"] + [""] * 3
    assert rows[-1][9:12] == ["refused", "", ""]
    assert all(row[9] not in ("refused", "parse-error") for row in rows[2:5])
