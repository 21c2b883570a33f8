import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import approvalwd
from approvalwd import CCAV, Instance, MAV, PAV, score
from approvalwd.graphs import incidence_graph, to_nice, tree_decomposition
from approvalwd.oracle import brute_force
from approvalwd.portfolio import generate, GeneratorConfig
from approvalwd.twdp import ccav_tw_dp, mav_tw_dp, pav_tw_dp

from helpers import e1, instances_around_opt, random_election


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


def test_rule_checks():
    with pytest.raises(ValueError):
        ccav_tw_dp(Instance(election=e1(), rule=MAV, k=1, d=1))
    with pytest.raises(ValueError):
        pav_tw_dp(Instance(election=e1(), rule=MAV, k=1, d=1))
    with pytest.raises(ValueError):
        mav_tw_dp(Instance(election=e1(), rule=PAV, k=1, d=1))


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
    solvers = {MAV: mav_tw_dp, CCAV: ccav_tw_dp, PAV: pav_tw_dp}
    for _ in range(30):
        e = random_election(rng, max_m=5, max_n=4)
        if e.m + e.n == 0 or e.m + e.n > 9:
            continue
        g = incidence_graph(e)
        ntd_a = to_nice(tree_decomposition(g, mode="heuristic"))
        ntd_b = to_nice(tree_decomposition(g, mode="exactSmall"))
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
    from approvalwd.graphs import DecompositionError, NiceNode, NiceTreeDecomposition

    bogus = NiceTreeDecomposition(root=NiceNode("leaf", frozenset()))
    with pytest.raises(DecompositionError):
        ccav_tw_dp(Instance(election=e1(), rule=CCAV, k=1, d=1), ntd=bogus)


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
        from approvalwd import CCAV, Election, Instance, MAV, PAV, twdp
        from approvalwd.core import InternalError

        assert False, "asserts are stripped under -O"
        twdp.score = lambda *args: Fraction(10**9)
        e = Election(3, ({0, 1}, {1, 2}, {2}))
        cases = [
            (twdp.ccav_tw_dp, Instance(e, CCAV, 2, 0)),
            (twdp.pav_tw_dp, Instance(e, PAV, 2, 0)),
            (twdp.mav_tw_dp, Instance(e, MAV, 1, 3)),
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
    assert out[:3] == ["ccav_tw_dp raised", "pav_tw_dp raised", "mav_tw_dp raised"]
