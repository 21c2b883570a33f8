import random
from fractions import Fraction

import pytest

from approvalwd import CCAV, Election, Instance, MAV, PAV, RULES, score
from approvalwd.oracle import brute_force, BudgetExceededError

from helpers import brute_force_grsp, brute_force_phs, e1, random_election


def test_brute_force_e1():
    res = brute_force(Instance(election=e1(), rule=PAV, k=2, d=Fraction(7, 2)))
    assert res.decision
    assert res.opt_score == Fraction(7, 2)
    assert res.witness == (0, 1)

    res = brute_force(Instance(election=e1(), rule=MAV, k=1, d=2))
    assert res.decision
    assert res.opt_score == 2
    assert res.witness == (1,)

    # {0} and {1} tie at score 2; lexicographic pick
    res = brute_force(Instance(election=e1(), rule=CCAV, k=1, d=2))
    assert res.decision
    assert res.opt_score == 2
    assert res.witness == (0,)


def test_brute_force_consistency():
    rng = random.Random(20)
    for _ in range(150):
        e = random_election(rng)
        inst = Instance(
            election=e, rule=rng.choice(RULES), k=rng.randint(0, e.m), d=0
        )
        res = brute_force(inst)
        assert len(res.witness) == inst.k
        assert score(e, inst.rule, res.witness) == res.opt_score
        assert res.stats["committees"] >= 1


def test_brute_force_budget():
    e = Election(m=23, votes=())
    with pytest.raises(BudgetExceededError):
        brute_force(Instance(election=e, rule=MAV, k=1, d=0))


def test_grsp_examples():
    assert not brute_force_grsp(("a",), [{"a"}, {"a"}], {"a": 1}, 2)
    assert brute_force_grsp(("a", "b"), [{"a"}, {"b"}], {"a": 1, "b": 1}, 2)
    assert brute_force_grsp(("a",), [], {"a": 0}, 0)
    assert not brute_force_grsp(("a",), [{"a"}], {"a": 1}, 2)


def test_phs_examples():
    assert brute_force_phs(("x",), [{"x"}, {"x"}], 1, 2)
    assert brute_force_phs(("x",), [], 0, 0)
    assert not brute_force_phs(("x", "y"), [{"x"}, {"y"}], 1, 2)
