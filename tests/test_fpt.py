import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from approvalwd import (
    CCAV,
    class_partition,
    compute_params,
    core,
    Election,
    fpt,
    Instance,
    MAV,
    meets_threshold,
    PAV,
    RULES,
    score,
)
from approvalwd.fpt import (
    ccav_bb_dual,
    exhaustive,
    grsp_solve,
    mav_by_classes,
    mav_dual_grsp,
    mav_k_deltac,
    pav_annotated,
    pav_bb_dv,
)
from approvalwd.cli import ALGOS
from approvalwd.oracle import brute_force, BudgetExceededError
from approvalwd.portfolio import dispatch, generate, GeneratorConfig, SOLVERS

from helpers import (
    brute_force_grsp,
    check_against_oracle,
    deep_search_instances,
    e1,
    instances_around_opt,
    random_election,
    reference_pav_bb_dv,
    reference_split_search,
    sweep_against_oracle,
)

# the matching routes as the registry runs them, on the parameters' matching
mav_by_matching, pav_by_matching = ALGOS["mav-matching"], ALGOS["pav-matching"]


def test_mav_by_classes_examples():
    res = mav_by_classes(Instance(election=e1(), rule=MAV, k=1, d=2))
    assert res.decision and res.witness == (1,)
    # score can never exceed deltaV + k
    e = e1()
    assert mav_by_classes(
        Instance(election=e, rule=MAV, k=2, d=e.delta_v + 2)
    ).decision


def test_mav_by_classes_budget():
    e = Election(m=1, votes=(frozenset({0}),) * 20)
    with pytest.raises(BudgetExceededError):
        mav_by_classes(Instance(election=e, rule=MAV, k=1, d=5))


def test_mav_by_classes_sweep():
    sweep_against_oracle(random.Random(40), MAV, mav_by_classes, 60)


def test_mav_k_deltac_pruning():
    e = e1()
    padded = Election(m=3, votes=e.votes + (frozenset(),) * 5)
    for d in range(0, 5):
        a = mav_k_deltac(Instance(election=padded, rule=MAV, k=1, d=d))
        b = brute_force(Instance(election=e, rule=MAV, k=1, d=d))
        assert a.decision == b.decision
    # n == k * deltaC + 1 means no vote is dropped
    inst = Instance(election=e, rule=MAV, k=1, d=2)
    assert e.n == inst.k * e.delta_c + 1
    assert mav_k_deltac(inst).decision


def test_mav_k_deltac_sweep():
    rng = random.Random(41)
    for _ in range(60):
        e = random_election(rng, max_m=5, max_n=6, max_dc=2)
        k = rng.randint(0, e.m)
        opt = brute_force(Instance(election=e, rule=MAV, k=k, d=0)).opt_score
        for inst in instances_around_opt(e, MAV, k, opt):
            check_against_oracle(inst, mav_k_deltac(inst))


def test_mav_dual_grsp_examples():
    assert mav_dual_grsp(Instance(election=e1(), rule=MAV, k=2, d=2)).decision
    # some vote too small: d < k - |v| is an immediate no
    e = Election(m=4, votes=(frozenset({0}),))
    assert not mav_dual_grsp(Instance(election=e, rule=MAV, k=4, d=1)).decision


def test_mav_dual_grsp_sweep():
    sweep_against_oracle(random.Random(42), MAV, mav_dual_grsp, 60)


def test_grsp_examples():
    sets = (frozenset({"a", "b"}), frozenset({"b", "c"}))
    ok, sel, _ = grsp_solve(sets, {"a": 1, "b": 1, "c": 1}, 2)
    assert not ok and sel is None
    ok, sel, _ = grsp_solve(sets, {"a": 1, "b": 2, "c": 1}, 2)
    assert ok and sorted(sel) == [0, 1]


def test_grsp_against_oracle():
    rng = random.Random(43)
    for _ in range(300):
        universe = tuple(range(rng.randint(1, 5)))
        sets = tuple(
            frozenset(rng.sample(universe, rng.randint(0, len(universe))))
            for _ in range(rng.randint(0, 7))
        )
        f = {u: rng.randint(0, 3) for u in universe}
        kappa = rng.randint(0, len(sets))
        ok, sel, _ = grsp_solve(sets, f, kappa)
        assert ok == brute_force_grsp(universe, list(sets), f, kappa)
        if ok:
            counts = {}
            for i in sel:
                for u in sets[i]:
                    counts[u] = counts.get(u, 0) + 1
            assert len(sel) == kappa
            assert all(counts.get(u, 0) <= f[u] for u in universe)


def test_ccav_bb_dual_examples():
    assert ccav_bb_dual(Instance(election=e1(), rule=CCAV, k=2, d=3)).decision
    # every vote bigger than kbar: any k-committee covers everything
    e = Election(m=3, votes=(frozenset({0, 1, 2}), frozenset({0, 1, 2})))
    assert ccav_bb_dual(Instance(election=e, rule=CCAV, k=2, d=2)).decision
    assert not ccav_bb_dual(Instance(election=e, rule=CCAV, k=2, d=3)).decision


def test_ccav_bb_dual_sweep_and_node_bound():
    rng = random.Random(44)
    for _ in range(80):
        e = random_election(rng)
        k = rng.randint(0, e.m)
        opt = brute_force(Instance(election=e, rule=CCAV, k=k, d=0)).opt_score
        for inst in instances_around_opt(e, CCAV, k, opt):
            res = ccav_bb_dual(inst)
            check_against_oracle(inst, res)
            kbar = e.m - k
            bound = max(1, e.delta_c * kbar) ** kbar * (kbar + 1) + 1
            assert res.stats["nodes"] <= bound


def test_pav_annotated_examples():
    res = pav_annotated(Instance(e1(), PAV, 2, Fraction(7, 2)))
    assert res.decision and res.witness == (0, 1)
    # the decision form stops at the first committee that reaches d, if any
    res = pav_annotated(Instance(e1(), PAV, 2, 3), decide=True)
    assert (res.decision, res.opt_score, res.witness) == (True, None, (0, 1))
    res = pav_annotated(Instance(e1(), PAV, 2, Fraction(15, 4)), decide=True)
    assert (res.decision, res.opt_score, res.witness) == (False, None, None)


def test_pav_annotated_matches_constrained_oracle(monkeypatch):
    # annotated PAV fixes part of the committee.  pav_by_matching solves it
    # once for each guessed matched part c': held to one guess, it answers
    # with the best committee whose part among the matched candidates is
    # exactly c'.  pav_annotated splits at nothing matched, so its one part is
    # the empty one, and it answers with the optimum
    rng = random.Random(45)
    guess = []
    monkeypatch.setattr(fpt, "_subsets", lambda items, k: guess if items else [()])
    for _ in range(60):
        e = random_election(rng, max_m=5, max_n=5)
        k = rng.randint(0, e.m)
        inst = Instance(e, PAV, k, 0)
        matching = compute_params(inst).matching
        c_m = fpt._matching_split(e, matching)[0]
        size = rng.randint(max(0, k - (e.m - len(c_m))), min(k, len(c_m)))
        cprime = set(rng.sample(c_m, size))
        guess[:] = [tuple(sorted(cprime))]
        best = max(score(e, PAV, w) for w in itertools.combinations(range(e.m), k)
                   if cprime == set(w).intersection(c_m))
        res = fpt.pav_by_matching(inst, matching)
        assert res.opt_score == best and cprime == set(res.witness).intersection(c_m)
        assert pav_annotated(inst).opt_score == brute_force(inst).opt_score


def test_pav_by_matching_cuts_by_the_best_total(monkeypatch):
    # each subinstance searches only for a total beating the best so far: on
    # this election the split visits 67,068 count-search nodes without that
    # cut and 7,542 with it; the optimum is the treewidth DP's
    drive, nodes = fpt._depth_first, []

    def counted(root):
        value, visited = drive(root)
        nodes.append(visited)
        return value, visited

    monkeypatch.setattr(fpt, "_depth_first", counted)
    inst = Instance(generate(GeneratorConfig(22, 22, 3, 4), 0), PAV, 6, 0)
    res = pav_by_matching(inst)
    assert res.opt_score == Fraction(29, 2) == ALGOS["pav-tw"](inst).opt_score
    assert sum(nodes) <= 20_000


def _both_searches(inst, votes, matched=(), outside=(), decide=False):
    """(fpt._split_search, its whole-node-bound reference) on one split."""
    return (fpt._split_search(inst, votes, matched, outside, decide),
            reference_split_search(inst, votes, matched, outside, decide))


def test_the_split_search_matches_its_whole_node_bound_reference():
    # the settled votes' running total plus the active votes' terms is the
    # whole-node bound's integer at every node, so on 600 seeded elections,
    # MAV and PAV, with nothing matched and split at a maximum matching, both
    # forms return the same (optimum, committee, nodes, subinstances).  The
    # decision thresholds sit at the optimum and a step to either side
    rng = random.Random(3303)
    seen = Counter()
    for trial in range(600):
        e = random_election(rng, max_m=9, max_n=8, max_dv=5, max_dc=4)
        rule, k = (MAV, PAV)[trial % 2], rng.randint(0, e.m)
        inst = Instance(e, rule, k, 0)
        step = Fraction(1, 2 * core.lcm_upto(k)) if rule == PAV else Fraction(1, 2)
        matched, votes, outside = fpt._matching_split(e, compute_params(inst).matching)
        for split in ((range(e.n), (), ()), (votes, matched, outside)):
            new, old = _both_searches(inst, *split)
            assert new == old, (e, rule, k, split)
            d = new[0] + rng.choice((-step, 0, step))
            new, old = _both_searches(Instance(e, rule, k, d), *split, decide=True)
            assert new == old, (e, rule, k, d, split)
            seen[rule, bool(split[1]), new[1] is not None] += 1
    assert len(seen) == 8 and min(seen.values()) >= 50, seen


# (election, rule, k, d, matched, considered votes, outside votes), each a
# corner of the settled total
_SETTLED_ROWS = {
    "an empty vote, settled at level 0": (
        Election(3, (frozenset({0, 1}), frozenset(), frozenset({2}))), 2, 2, (), (0, 1, 2), ()),
    "a vote approving only matched candidates, settled at level 0": (
        Election(4, (frozenset({0}), frozenset({0, 1, 2}), frozenset({3}), frozenset({0}))),
        2, 1, (0,), (0, 1, 2), (frozenset({0}),)),
    "no considered votes": (Election(3, ()), 2, 0, (), (), ()),
    "no considered votes past the matched part": (
        Election(2, (frozenset({0}), frozenset({1}))), 1, 1, (0, 1), (),
        (frozenset({0}), frozenset({1}))),
    "k = 0": (Election(3, (frozenset({0, 1}), frozenset({2}))), 0, 0, (), (0, 1), ()),
    "a single class": (
        Election(3, (frozenset({0, 1, 2}), frozenset({0, 1, 2}))), 2, 1, (), (0, 1), ()),
}


@pytest.mark.parametrize("rule", [MAV, PAV])
@pytest.mark.parametrize("row", _SETTLED_ROWS)
def test_the_settled_total_at_its_edges(row, rule):
    e, k, d, matched, votes, outside = _SETTLED_ROWS[row]
    for decide in (False, True):
        new, old = _both_searches(Instance(e, rule, k, d), votes, matched, outside, decide)
        assert new == old
        if row == "no considered votes" and rule == MAV and not decide:
            # the empty largest distance reads 0
            assert new == (0, [0, 1], 2, 1)


@pytest.mark.parametrize("rule", [MAV, PAV])
def test_a_decision_stops_at_goal_in_its_first_leaf(rule):
    # every committee meets d (a PAV score of 0, a MAV distance of m + k), so
    # the decision form walks the first path, the root and one node per
    # class, and stops at its leaf
    e = generate(GeneratorConfig(m=9, n=8, max_dv=3, max_dc=3), 5)
    inst = Instance(e, rule, 3, e.m + 3 if rule == MAV else 0)
    classes = class_partition(e, range(e.n))
    new, old = _both_searches(inst, range(e.n), decide=True)
    assert new == old and new[1] is not None and new[2] == len(classes) + 1


def test_pav_path_state_matches_the_gains_and_score_from_scratch():
    # pav_bb_dv, exhaustive and the root greedies read their gains off one
    # path state; after every push or pop, each gain is the per-node sum over
    # the candidate's votes, and the gains read before each push add up to
    # the path's score, under PAV's table and CCAV's
    rng = random.Random(1919)
    for i in range(160):
        rule = (PAV, CCAV)[i % 2]
        e = random_election(rng, max_m=9, max_n=8)
        k = rng.randint(1, e.m)
        approvers = e.approver_sets()
        bound = min(k, e.delta_v)
        scale, step = fpt._steps(rule, k, e.delta_v)
        state = fpt._PavPath(e, step)
        path, total = [], 0
        for _ in range(3 * k):
            if path and (len(path) == k or rng.random() < 0.4):
                x = path.pop()
                state.move(x, -1)
                total -= state.gain[x]
            else:
                x = rng.choice([c for c in range(e.m) if c not in path])
                total += state.gain[x]
                state.move(x, 1)
                path.append(x)
            assert state.cov == [len(v.intersection(path)) for v in e.votes]
            assert max(state.cov, default=0) <= bound
            assert state.gain == [sum(state.step[state.cov[j]] for j in approvers[c])
                                  for c in range(e.m)]
            assert total == score(e, rule, path) * scale


def test_pav_bb_dv_examples():
    assert pav_bb_dv(Instance(election=e1(), rule=PAV, k=2, d=Fraction(7, 2))).decision
    # candidate 1 approved twice: d = 2 is an immediate yes
    assert pav_bb_dv(Instance(election=e1(), rule=PAV, k=1, d=2)).decision


def test_pav_bb_dv_sweep_and_branch_bound():
    rng = random.Random(47)
    for _ in range(80):
        e = random_election(rng)
        k = rng.randint(0, e.m)
        opt = brute_force(Instance(election=e, rule=PAV, k=k, d=0)).opt_score
        for inst in instances_around_opt(e, PAV, k, opt):
            res = pav_bb_dv(inst)
            check_against_oracle(inst, res)
            if inst.d > 0 and "max_branch" in res.stats:
                assert res.stats["max_branch"] <= math.ceil(inst.d * e.delta_v)


def _greedy_pav_score(e, k):
    w = []
    for _ in range(k):
        w.append(max((c for c in range(e.m) if c not in w), key=lambda c: score(e, PAV, w + [c])))
    return score(e, PAV, w)


def test_pav_bb_dv_cut_keeps_every_answer_and_the_costs_bound_the_searches():
    # thresholds at and just above the greedy score, where the searches are
    # deepest; the reference is the search cut by depth only
    cost = {solver.name: solver.cost for solver in SOLVERS}
    rng = random.Random(1414)
    cut = 0
    for _ in range(150):
        e = generate(GeneratorConfig(m=rng.randint(4, 16), n=rng.randint(3, 16),
                                     max_dv=rng.randint(2, 5), max_dc=rng.randint(2, 5)),
                     rng.randrange(10**9))
        k = rng.randint(1, min(e.m, 6))
        inst = Instance(e, PAV, k, _greedy_pav_score(e, k) + Fraction(rng.randint(0, 3), 2))
        res, ref = pav_bb_dv(inst), reference_pav_bb_dv(inst)
        assert (res.decision, res.witness) == (ref.decision, ref.witness)
        assert res.stats["nodes"] <= ref.stats["nodes"] <= cost["pav_bb_dv"](inst, compute_params(inst))
        cut += res.stats["nodes"] < ref.stats["nodes"]
        mav = Instance(e, MAV, rng.randint(0, e.m), rng.randint(0, e.delta_v + 2))
        nodes = mav_dual_grsp(mav).stats["nodes"]
        assert nodes <= cost["mav_dual_grsp"](mav, compute_params(mav))
    assert cut >= 30


def test_mav_by_matching_examples():
    assert mav_by_matching(Instance(election=e1(), rule=MAV, k=1, d=2)).decision
    # every committee misses one of the two disjoint big votes
    e = Election(m=4, votes=(frozenset({0, 1}), frozenset({2, 3})))
    assert not mav_by_matching(Instance(election=e, rule=MAV, k=1, d=1)).decision


def test_mav_by_matching_sweep():
    sweep_against_oracle(random.Random(49), MAV, mav_by_matching, 60, max_m=5, max_n=5)


def test_pav_by_matching_examples():
    res = pav_by_matching(Instance(election=e1(), rule=PAV, k=2, d=Fraction(7, 2)))
    assert res.decision and res.opt_score == Fraction(7, 2)


def test_pav_by_matching_builds_classes_once(monkeypatch):
    e = generate(GeneratorConfig(m=9, n=8, max_dv=3, max_dc=3), 5)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return class_partition(*args, **kwargs)

    monkeypatch.setattr(fpt, "class_partition", spy)
    res = pav_by_matching(Instance(election=e, rule=PAV, k=3, d=1))
    assert res.stats["subinstances"] == 42
    assert len(calls) == 1
    assert res.opt_score == brute_force(Instance(election=e, rule=PAV, k=3, d=1)).opt_score


def test_pav_by_matching_sweep():
    sweep_against_oracle(random.Random(50), PAV, pav_by_matching, 50, max_m=5, max_n=5)


# (seed, k, decision, opt, witness, nodes) and (seed, k, decision, opt, witness,
# subinstances), recorded from the Fraction-valued search: the scaled integer
# search must visit the same nodes and return the same committees.  The
# matching route's witnesses of seeds 0, 2, 6, 7 and 8 are other optima, taken
# since it searches only the unmatched candidates past its guess
_PINNED_ANNOTATED = [
    (0, 2, True, "13/2", (4, 6), 57),
    (3, 5, True, "14", (0, 1, 2, 6, 7), 358),
    (6, 3, True, "21/2", (0, 3, 7), 150),
    (9, 6, False, "31/3", (0, 2, 4, 5, 7, 8), 123),
]
_PINNED_BY_MATCHING = [
    (0, 2, True, "7/2", (3, 6), 7),
    (1, 3, True, "7", (0, 2, 5), 64),
    (2, 4, True, "6", (3, 5, 6, 8), 31),
    (3, 5, True, "28/3", (1, 2, 3, 7, 9), 120),
    (4, 2, True, "5", (0, 3), 16),
    (5, 3, True, "6", (1, 2, 5), 15),
    (6, 4, True, "8", (2, 3, 6, 8), 99),
    (7, 5, True, "9", (2, 3, 4, 8, 9), 120),
    (8, 2, False, "6", (0, 5), 22),
    (9, 3, False, "7", (0, 3, 6), 93),
]


@pytest.mark.parametrize("seed,k,decision,opt,witness,nodes", _PINNED_ANNOTATED)
def test_pav_annotated_pinned(seed, k, decision, opt, witness, nodes):
    e = generate(GeneratorConfig(m=8 + seed % 5, n=8 + seed % 7, max_dv=4, max_dc=4), seed)
    res = pav_annotated(Instance(e, PAV, k, Fraction(3 * seed, 2)))
    assert (res.decision, res.opt_score, res.witness) == (decision, Fraction(opt), witness)
    assert res.stats == {"nodes": nodes}


@pytest.mark.parametrize("seed,k,decision,opt,witness,subinstances", _PINNED_BY_MATCHING)
def test_pav_by_matching_pinned(seed, k, decision, opt, witness, subinstances):
    config = GeneratorConfig(m=7 + seed % 4, n=6 + seed % 5, max_dv=3, max_dc=3)
    e = generate(config, 100 + seed)
    res = pav_by_matching(Instance(e, PAV, k, Fraction(seed)))
    assert (res.decision, res.opt_score, res.witness) == (decision, Fraction(opt), witness)
    assert res.stats == {"subinstances": subinstances}


# (seed, decision, witness, nodes, max_branch), recorded from the search that
# re-scored every candidate in Fractions and cut by depth only, which
# helpers.reference_pav_bb_dv keeps: the integer gains must visit the same
# nodes and return the same committees
_PINNED_BB_DV = [
    (0, False, None, 139, 6),
    (1, True, (0, 1, 2, 3), 4, 6),
    (2, True, (0, 1, 3, 4, 6), 4, 6),
    (3, False, None, 983, 5),
    (4, True, (9, 12, 14), 65, 5),
    (5, True, (2, 3, 4, 5), 5, 5),
    (6, True, (0, 1, 3, 9, 13), 6, 6),
    (7, True, (0, 1, 2, 3, 4, 10), 5, 4),
    (8, True, (1, 5, 8), 4, 7),
    (9, False, None, 119, 5),
    (10, True, (0, 1, 2, 6, 8), 6, 5),
    (11, True, (0, 1, 2, 3, 4, 5), 5, 6),
    (12, False, None, 45, 5),
    (13, True, (0, 1, 2, 3), 4, 6),
    (14, True, (0, 1, 2, 7, 12), 5, 3),
    (15, False, None, 439, 4),
    (16, False, None, 61, 4),
    (17, True, (0, 2, 8, 14), 6, 6),
    (18, True, (2, 3, 6, 8, 11), 18, 5),
    (19, True, (0, 1, 2, 3, 4, 5), 3, 6),
]
# seed: (nodes, max_branch, pruned) of pav_bb_dv with its submodular cut,
# where they differ from the depth-only search's (nodes, max_branch, 0)
_CUT_BB_DV = {
    0: (1, 0, 1), 3: (1, 0, 1), 4: (13, 5, 5), 9: (1, 0, 1),
    12: (1, 0, 1), 15: (1, 0, 1), 16: (1, 0, 1), 18: (10, 5, 4),
}


@pytest.mark.parametrize("seed,decision,witness,nodes,max_branch", _PINNED_BB_DV)
def test_pav_bb_dv_pinned(seed, decision, witness, nodes, max_branch, monkeypatch):
    e = generate(GeneratorConfig(m=12 + seed % 9, n=12 + seed % 7, max_dv=3, max_dc=3), 300 + seed)
    d = Fraction(10 + seed % 6 * 2, 1 + seed % 3)
    inst = Instance(election=e, rule=PAV, k=3 + seed % 4, d=d)
    ref = reference_pav_bb_dv(inst)
    assert (ref.decision, ref.witness) == (decision, witness)
    assert ref.stats == {"nodes": nodes, "max_branch": max_branch}
    calls = []

    def spy(*args):
        calls.append(args)
        return score(*args)

    monkeypatch.setattr(core, "score", spy)
    res = pav_bb_dv(inst)
    assert (res.decision, res.witness) == (decision, witness)
    nodes, max_branch, pruned = _CUT_BB_DV.get(seed, (nodes, max_branch, 0))
    assert res.stats == {"nodes": nodes, "max_branch": max_branch, "pruned": pruned}
    # the search scores in integers; only a yes is re-scored, once
    assert len(calls) == decision


# (seed, k, d, decision, witness, nodes) for ccav_bb_dual and (seed, decision,
# opt, witness, nodes) for mav_k_deltac, recorded from the searches that kept
# their own node counters: the search driver must count the same nodes
_PINNED_CCAV_BB = [
    (0, 3, 6, True, (1, 5, 6), 13),
    (1, 4, 9, False, None, 304),
    (2, 5, 7, True, (2, 3, 5, 6, 7), 2),
    (3, 3, 7, False, None, 9851),
    (4, 4, 8, True, (1, 2, 4, 6), 18),
    (5, 5, 9, False, None, 35),
    (6, 3, 6, True, (7, 8, 9), 7),
    (7, 4, 9, False, None, 3857),
    (8, 5, 7, True, (2, 3, 4, 5, 6), 2),
    (9, 3, 7, False, None, 741),
    (10, 4, 6, True, (5, 7, 8, 9), 6),
    (11, 5, 8, False, None, 115),
    (12, 3, 6, True, (1, 5, 7), 6),
    (13, 4, 7, False, None, 15),
    (14, 5, 9, True, (1, 2, 6, 8, 9), 50),
    (15, 3, 6, False, None, 564),
    (16, 4, 8, True, (4, 5, 6, 7), 5),
    (17, 5, 9, False, None, 52),
    (18, 3, 6, True, (7, 8, 9), 8),
    (19, 4, 9, False, None, 1670),
]
_PINNED_K_DELTAC = [
    (0, False, "4", (2, 3), 22),
    (1, False, "5", (0, 1, 3), 54),
    (2, True, "5", (1, 3, 5, 7), 52),
    (3, True, "4", (2, 3), 28),
    (4, False, "5", (0, 3, 5), 91),
    (5, False, "5", (0, 1, 2, 3), 51),
    (6, True, "4", (0, 3), 29),
    (7, True, "5", (0, 1, 5), 27),
    (8, False, "5", (0, 2, 3, 6), 88),
    (9, False, "5", (0, 2), 25),
    (10, True, "4", (2, 3, 7), 43),
    (11, True, "5", (0, 3, 4, 6), 52),
    (12, False, "4", (0, 1), 19),
    (13, False, "5", (0, 1, 4), 100),
    (14, True, "4", (0, 1, 3, 11), 33),
    (15, True, "4", (1, 3), 27),
    (16, False, "4", (0, 2, 5), 30),
    (17, False, "5", (0, 1, 4, 7), 40),
    (18, True, "4", (6, 8), 71),
    (19, True, "5", (0, 1, 5), 45),
]


# the seeds of _PINNED_CCAV_BB whose k largest approval counts sum below d:
# ccav_bb_dual answers them at its root check, before the pinned search
_CCAV_ROOT_NO = {1, 3, 7, 9, 19}


@pytest.mark.parametrize("seed,k,d,decision,witness,nodes", _PINNED_CCAV_BB)
def test_ccav_bb_dual_pinned(seed, k, d, decision, witness, nodes, monkeypatch):
    e = generate(GeneratorConfig(m=8 + seed % 4, n=10 + seed % 5, max_dv=3, max_dc=2), 500 + seed)
    inst = Instance(election=e, rule=CCAV, k=k, d=d)
    res = ccav_bb_dual(inst)
    expected = {"nodes": 0 if seed in _CCAV_ROOT_NO else nodes}
    assert (res.decision, res.witness, res.stats) == (decision, witness, expected)
    # counts of n per candidate pass the root check, so the search runs
    monkeypatch.setattr(Election, "approver_counts", property(lambda self: (self.n,) * self.m))
    res = ccav_bb_dual(inst)
    assert (res.decision, res.witness, res.stats) == (decision, witness, {"nodes": nodes})


@pytest.mark.parametrize("seed,decision,opt,witness,nodes", _PINNED_K_DELTAC)
def test_mav_k_deltac_pinned(seed, decision, opt, witness, nodes):
    e = generate(GeneratorConfig(m=8 + seed % 5, n=8 + seed % 7, max_dv=4, max_dc=2), 700 + seed)
    res = mav_k_deltac(Instance(election=e, rule=MAV, k=2 + seed % 3, d=3 + seed % 4))
    assert (res.decision, res.opt_score, res.witness) == (decision, Fraction(opt), witness)
    assert res.stats == {"nodes": nodes}


# (seed, k, d, decision, witness, subinstances) for mav_by_matching and (seed,
# k, d, decision, witness, nodes) for mav_dual_grsp, recorded from the routes
# that scanned each candidate's approvers and grouped the classes themselves,
# with the nodes counted by fpt._depth_first; the order of the classes and of
# the sets decides which witness each returns
_PINNED_MAV_MATCHING = [
    (0, 3, "3", True, (5, 7, 8), 15),
    (1, 4, "16/3", True, (2, 4, 10, 11), 3),
    (2, 5, "20/3", True, (0, 2, 6, 9, 10), 17),
    (3, 3, "5/2", False, None, 4),
    (4, 4, "5", True, (1, 4, 6, 8), 3),
    (5, 5, "16/3", True, (2, 6, 8, 9, 11), 4),
    (6, 3, "11/3", True, (0, 5, 6), 3),
    (7, 4, "7/2", False, None, 31),
    (8, 5, "5", True, (0, 3, 4, 8, 10), 50),
    (9, 3, "10/3", True, (3, 6, 10), 14),
    (10, 4, "17/3", True, (7, 10, 11, 12), 1),
    (11, 5, "9/2", False, None, 63),
    (12, 3, "3", True, (4, 8, 10), 4),
    (13, 4, "13/3", True, (0, 9, 10, 11), 5),
    (14, 5, "17/3", True, (1, 8, 9, 10, 12), 2),
    (15, 3, "7/2", False, None, 26),
    (16, 4, "4", True, (3, 5, 9, 10), 15),
    (17, 5, "16/3", True, (1, 7, 9, 10, 11), 3),
    (18, 3, "14/3", True, (0, 2, 7), 2),
    (19, 4, "7/2", False, None, 16),
]
_PINNED_DUAL_GRSP = [
    (0, 6, "6", True, (2, 4, 5, 6, 7, 8), 4),
    (1, 6, "11/2", False, None, 0),
    (2, 6, "5", False, None, 48),
    (3, 9, "7", True, (2, 3, 4, 5, 6, 7, 8, 10, 11), 4),
    (4, 5, "9/2", False, None, 0),
    (5, 5, "4", False, None, 0),
    (6, 8, "8", True, (2, 3, 5, 6, 7, 8, 9, 10), 4),
    (7, 8, "15/2", False, None, 0),
    (8, 4, "4", False, None, 47),
    (9, 7, "6", True, (2, 4, 5, 6, 7, 8, 9), 4),
    (10, 7, "13/2", False, None, 0),
    (11, 7, "6", False, None, 0),
    (12, 6, "6", True, (2, 4, 5, 6, 7, 8), 4),
    (13, 6, "11/2", False, None, 0),
    (14, 6, "5", False, None, 0),
    (15, 9, "9", True, (2, 4, 5, 6, 7, 8, 9, 10, 11), 4),
    (16, 5, "7/2", False, None, 22),
    (17, 5, "5", False, None, 139),
    (18, 8, "6", True, (0, 1, 3, 5, 6, 8, 9, 10), 4),
    (19, 8, "15/2", False, None, 0),
]


@pytest.mark.parametrize("seed,k,d,decision,witness,subinstances", _PINNED_MAV_MATCHING)
def test_mav_by_matching_pinned(seed, k, d, decision, witness, subinstances):
    e = generate(GeneratorConfig(m=11 + seed % 4, n=5 + seed % 3, max_dv=4, max_dc=3), 900 + seed)
    res = mav_by_matching(Instance(e, MAV, k, Fraction(d)))
    assert (res.decision, res.witness) == (decision, witness)
    assert res.stats == {"subinstances": subinstances}


@pytest.mark.parametrize("seed,k,d,decision,witness,nodes", _PINNED_DUAL_GRSP)
def test_mav_dual_grsp_pinned(seed, k, d, decision, witness, nodes):
    m = 9 + seed % 4
    e = generate(GeneratorConfig(m=m, n=5 + seed % 4, max_dv=m - 1, max_dc=4), 1100 + seed)
    res = mav_dual_grsp(Instance(e, MAV, k, Fraction(d)))
    assert (res.decision, res.witness, res.stats) == (decision, witness, {"nodes": nodes})


def test_routes_never_scan_approvers(monkeypatch):
    # every route reads V(c) from the one pass Election.approver_sets; the
    # per-candidate scan is left to the tests as their reference
    calls = []
    scan = Election.approvers

    def counted(self, c):
        calls.append(c)
        return scan(self, c)

    monkeypatch.setattr(Election, "approvers", counted)
    # kbar = 2 as in the dual-scale MAV cases; no single candidate meets the
    # PAV threshold, so pav_bb_dv searches; both thresholds are the optimum
    mav_e = generate(GeneratorConfig(m=10, n=10, max_dv=4, max_dc=4), 3)
    pav_e = generate(GeneratorConfig(m=10, n=10, max_dv=3, max_dc=3), 4)
    for inst in (Instance(mav_e, MAV, 8, 7), Instance(pav_e, PAV, 4, Fraction(22, 3))):
        assert dispatch(inst).decision
        for solver in SOLVERS:
            if solver.rule == inst.rule and not solver.degrees:
                assert solver(inst).decision, solver.name
    assert calls == []


def test_mav_dual_grsp_deeper_than_the_recursion_limit():
    assert mav_dual_grsp(deep_search_instances()["mav-grsp"]).decision


def test_ccav_bb_dual_deeper_than_the_recursion_limit():
    res = ccav_bb_dual(deep_search_instances()["ccav-bb"])
    assert res.decision and res.stats == {"nodes": 1010}


def test_pav_bb_dv_deeper_than_the_recursion_limit():
    res = pav_bb_dv(deep_search_instances()["pav-bb"])
    assert res.decision and res.stats == {"nodes": 1002, "max_branch": 3, "pruned": 0}


def test_exhaustive_matches_brute_force_on_the_exact_triple():
    # the same lexicographically first optimum as the oracle at every k from 0
    # to m, on elections with no votes, with empty votes and at random
    rng = random.Random(1818)
    elections = [Election(0, ()), Election(3, ()), Election(4, (frozenset(),) * 2)]
    elections += [random_election(rng, max_m=8, max_n=7) for _ in range(80)]
    assert any(frozenset() in e.votes for e in elections[3:])
    for e in elections:
        for rule in RULES:
            for k in range(e.m + 1):
                inst = Instance(e, rule, k, Fraction(rng.randint(0, 8), 2))
                res, truth = exhaustive(inst), brute_force(inst)
                assert (res.decision, res.opt_score, res.witness) == (
                    truth.decision, truth.opt_score, truth.witness)


def test_exhaustive_deeper_than_the_recursion_limit():
    # k = m = 1005: one committee, one search level per member but the last
    e = Election(m=1005, votes=tuple(frozenset({c}) for c in range(0, 1005, 5)))
    for rule, opt in ((CCAV, 201), (PAV, 201), (MAV, 1004)):
        res = exhaustive(Instance(e, rule, 1005, 0))
        assert (res.opt_score, res.stats) == (opt, {"nodes": 1004})


def _decision_forms(inst):
    """{route: its decision form on inst} for the routes that have one."""
    forms = {"exhaustive": lambda: exhaustive(inst, decide=True)}
    if inst.rule == MAV:
        forms["mav_k_deltac"] = lambda: mav_k_deltac(inst, decide=True)
    if inst.rule == PAV:
        forms["pav_annotated"] = lambda: pav_annotated(inst, decide=True)
    return forms


def test_the_decision_forms_agree_with_the_oracle_around_the_optimum():
    # d at the optimum and one step to either side of it: half a unit for MAV
    # and CCAV, 1 / (2 lcm(1..k)) for PAV, below any gap between PAV scores.
    # A decision form reports no optimum beyond the one committee of k = 0,
    # and the exhaustive one answers with the first committee that meets d
    rng = random.Random(2121)
    for trial in range(120):
        e = random_election(rng, max_m=12, max_n=9, max_dv=4, max_dc=4)
        rule = RULES[trial % 3]
        k = rng.randint(0, e.m)
        scored = [(w, score(e, rule, w)) for w in core.all_committees(e.m, k)]
        opt = brute_force(Instance(e, rule, k, 0)).opt_score
        step = Fraction(1, 2 * core.lcm_upto(k)) if rule == PAV else Fraction(1, 2)
        for d in (opt - step, opt, opt + step):
            inst = Instance(e, rule, k, d)
            truth = brute_force(inst)
            for name, form in _decision_forms(inst).items():
                res = form()
                assert (res.algorithm, res.decision) == (name, truth.decision)
                assert res.opt_score is None or k == 0 and res.opt_score == opt
                if res.decision:
                    assert len(res.witness) == k
                    assert meets_threshold(rule, score(e, rule, res.witness), d)
            first = next((w for w, s in scored if meets_threshold(rule, s, d)), None)
            assert exhaustive(inst, decide=True).witness == (first if k else ())


def test_the_submodular_root_is_sound():
    # 1,000 seeded elections, both rules, every k and d at opt - 1, opt,
    # opt + 1/60 and opt + 1: a root yes is k candidates whose exact score
    # meets d, and a root no never falls on a yes case.  k runs up to m, so
    # the forward greedy (2k <= m) and the removal side (2k > m) both answer,
    # each past the single-count and k-largest-counts checks
    rng = random.Random(2032)
    decided, checks = Counter(), 0
    for i in range(1000):
        rule = (CCAV, PAV)[i % 2]
        e = random_election(rng, max_m=9, max_n=8)
        counts = e.approver_counts
        for k in range(e.m + 1):
            opt = brute_force(Instance(e, rule, k, 0)).opt_score
            for d in (opt - 1, opt, opt + Fraction(1, 60), opt + 1):
                found = fpt._submodular_root(Instance(e, rule, k, d))
                checks += 1
                if found is None:
                    continue
                past_counts = 0 < d and k and max(counts) < d <= sum(sorted(counts)[e.m - k:])
                side = "forward" if 2 * k <= e.m else "removal"
                if found is False:
                    assert d > opt, (e, rule, k, d)
                    decided[side, "no"] += past_counts
                else:
                    assert len(set(found)) == len(found) == k, (e, rule, k, d, found)
                    assert meets_threshold(rule, score(e, rule, found), d), (e, rule, k, d, found)
                    decided[side, "yes"] += past_counts
    assert checks >= 12000
    assert min(decided[side, answer] for side in ("forward", "removal")
               for answer in ("yes", "no")) >= 50, decided
