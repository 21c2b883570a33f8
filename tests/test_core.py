import ast
import pathlib
import random
from fractions import Fraction

import pytest

import approvalwd
from approvalwd import (
    CCAV,
    class_partition,
    compute_params,
    Election,
    format_election,
    format_instance,
    FormatError,
    hamming,
    harmonic,
    Instance,
    MAV,
    meets_threshold,
    parse_election,
    parse_instance,
    PAV,
    RULES,
    score,
    SolveResult,
)
from approvalwd.core import (
    all_committees,
    answer,
    checked_witness,
    InternalError,
    lcm_upto,
    scaled_harmonics,
)

from helpers import e1, random_election, reference_score


def test_hamming_examples():
    assert hamming({0, 1}, {1}) == 1
    assert hamming(set(), set()) == 0
    assert hamming({0}, {1, 2}) == 3


def test_hamming_metric_properties():
    rng = random.Random(1)
    for _ in range(200):
        a = frozenset(rng.sample(range(6), rng.randint(0, 6)))
        b = frozenset(rng.sample(range(6), rng.randint(0, 6)))
        c = frozenset(rng.sample(range(6), rng.randint(0, 6)))
        assert hamming(a, b) == hamming(b, a)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
        assert (hamming(a, b) == 0) == (a == b)


def test_score_examples():
    e = e1()
    assert score(e, PAV, {0, 1}) == Fraction(7, 2)
    assert score(e, CCAV, {0, 1}) == 3
    assert score(e, MAV, {1}) == 2
    assert score(e, PAV, set()) == 0
    assert score(e, CCAV, set()) == 0


def test_score_no_votes():
    e = Election(m=2, votes=())
    assert score(e, MAV, {0}) == 0
    assert score(e, CCAV, {0}) == 0
    assert score(e, PAV, {0}) == 0


def test_harmonic():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)


def test_harmonic_at_scale():
    # one step per unit of i used to recurse past Python's recursion limit
    h = harmonic(5000)
    assert isinstance(h, Fraction)
    assert h - harmonic(4999) == Fraction(1, 5000)
    n = 1100
    assert score(Election(n, (range(n),)), PAV, range(n)) == harmonic(n)


def test_meets_threshold():
    assert meets_threshold(MAV, Fraction(2), Fraction(2))
    assert not meets_threshold(MAV, Fraction(2), Fraction(1))
    assert meets_threshold(CCAV, Fraction(2), Fraction(2))
    assert not meets_threshold(PAV, Fraction(1), Fraction(3, 2))


def test_compute_params_e1():
    p = compute_params(Instance(election=e1(), rule=PAV, k=2, d=0))
    assert (p.m, p.n, p.k, p.kbar) == (3, 3, 2, 1)
    assert (p.delta_v, p.delta_c) == (2, 2)
    assert p.alpha == 3
    # the incidence graph of this election is a tree
    assert p.tw_upper == 1


def test_compute_params_empty():
    p = compute_params(Instance(election=Election(m=0, votes=()), rule=MAV, k=0, d=0))
    assert (p.m, p.n, p.k, p.kbar, p.delta_v, p.delta_c, p.tw_upper, p.alpha) == (
        0, 0, 0, 0, 0, 0, 0, 0,
    )


def test_compute_params_kbar():
    p = compute_params(Instance(election=e1(), rule=MAV, k=1, d=0))
    assert p.kbar == 2
    assert (p.delta_v, p.delta_c, p.alpha) == (2, 2, 3)


def test_class_partition_e1():
    part = class_partition(e1())
    assert part == (
        (frozenset({0, 2}), (0,)),
        (frozenset({0, 1}), (1,)),
        (frozenset({1}), (2,)),
    )


def test_class_partition_restricted():
    part = class_partition(e1(), [0])
    assert part == (
        (frozenset({0}), (0, 1)),
        (frozenset(), (2,)),
    )


def test_class_partition_supports_are_positions_in_votes():
    # vote 2 sits at position 0 and vote 0 at position 1; vote 1 is left out
    assert class_partition(e1(), [2, 0]) == (
        (frozenset({0, 1}), (0,)),
        (frozenset({1}), (1,)),
        (frozenset(), (2,)),
    )


def test_class_partition_unapproved_candidate():
    e = Election(m=1, votes=(frozenset(),))
    part = class_partition(e)
    assert part == ((frozenset(), (0,)),)


def test_class_partition_is_partition():
    rng = random.Random(2)
    for _ in range(100):
        e = random_election(rng)
        part = class_partition(e)
        seen = []
        for support, members in part:
            for c in members:
                assert e.approvers(c) == support
            seen.extend(members)
        assert sorted(seen) == list(range(e.m))


def test_score_bounds_and_integrality():
    rng = random.Random(3)
    for _ in range(150):
        e = random_election(rng)
        k = rng.randint(0, e.m)
        w = tuple(rng.sample(range(e.m), k))
        assert 0 <= score(e, MAV, w) <= e.delta_v + k
        assert 0 <= score(e, CCAV, w) <= e.n
        assert score(e, PAV, w) <= e.n * harmonic(k)
        assert (score(e, PAV, w) * lcm_upto(k)).denominator == 1


def test_monotonicity():
    rng = random.Random(4)
    for _ in range(100):
        e = random_election(rng)
        if e.m == 0:
            continue
        k = rng.randint(0, e.m - 1)
        w = set(rng.sample(range(e.m), k))
        extra = rng.choice([c for c in range(e.m) if c not in w])
        for rule in (CCAV, PAV):
            assert score(e, rule, w | {extra}) >= score(e, rule, w)


def test_lcm_upto():
    assert lcm_upto(0) == 1
    assert lcm_upto(1) == 1
    assert lcm_upto(4) == 12
    assert lcm_upto(6) == 60
    for k in range(31):
        for x in range(k + 1):
            assert (lcm_upto(k) * harmonic(x)).denominator == 1


def test_scaled_harmonics_match_the_exact_harmonics():
    assert scaled_harmonics(0) == (1, (0,))
    assert scaled_harmonics(2) == (2, (0, 2, 3))
    for k in range(31):
        scale, hsum = scaled_harmonics(k)
        assert scale == lcm_upto(k) and len(hsum) == k + 1
        assert all(Fraction(hsum[x], scale) == harmonic(x) for x in range(k + 1))


def test_all_committees_order():
    assert list(all_committees(3, 2)) == [(0, 1), (0, 2), (1, 2)]
    assert list(all_committees(2, 0)) == [()]


def test_election_validation():
    with pytest.raises(ValueError):
        Election(m=2, votes=(frozenset({2}),))
    with pytest.raises(ValueError):
        Election(m=-1, votes=())
    with pytest.raises(ValueError):
        Instance(election=e1(), rule="borda", k=1, d=0)
    with pytest.raises(ValueError):
        Instance(election=e1(), rule=MAV, k=4, d=0)


def test_election_format_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        e = random_election(rng)
        text = format_election(e)
        assert parse_election(text) == e
        assert format_election(parse_election(text)) == text


def test_instance_format_roundtrip():
    rng = random.Random(6)
    for _ in range(100):
        e = random_election(rng)
        inst = Instance(
            election=e,
            rule=rng.choice(RULES),
            k=rng.randint(0, e.m),
            d=Fraction(rng.randint(-5, 20), rng.randint(1, 6)),
        )
        text = format_instance(inst)
        assert parse_instance(text) == inst
        assert format_instance(parse_instance(text)) == text


def test_format_comments_and_empty_votes():
    text = "# comment\n2 2\n0 1\n\n"
    e = parse_election(text)
    assert e.votes == (frozenset({0, 1}), frozenset())


def test_format_errors():
    for bad in ("", "2\n", "2 1\n", "2 1\n0 5\n", "1 0\nstray line\n", "2 x\n"):
        with pytest.raises(FormatError):
            parse_election(bad)
    # a vote is a set: a repeated candidate is an error, not folded into one
    with pytest.raises(FormatError, match="'0 0' names a candidate twice"):
        parse_instance("pav 1 1 1\n2 1\n0 0\n")
    for bad in ("", "foo 1 2 1\n1 0\n", "mav 1 1 0\n1 0\n", "mav 1\n1 0\n", "mav 9 0 1\n1 0\n"):
        with pytest.raises(FormatError):
            parse_instance(bad)


def test_checked_witness():
    assert checked_witness((0, 1), lambda w: len(w) == 2, "pair") == (0, 1)
    with pytest.raises(InternalError, match="pair: witness fails its exact re-check"):
        checked_witness((0,), lambda w: len(w) == 2, "pair")
    with pytest.raises(InternalError):
        checked_witness(None, lambda w: True, "pair")


def test_score_matches_the_per_vote_reference():
    # one intersection per vote gives the same exact values as the definitions
    rng = random.Random(60)
    for trial in range(40):
        e = random_election(rng, max_m=60, max_n=30, max_dv=rng.randint(1, 8))
        if trial % 2:
            e = Election(e.m, e.votes + (frozenset(),))
        if trial % 5 == 0:
            e = Election(e.m, ())
        for k in range(e.m + 1):
            w = rng.sample(range(e.m), k)
            for rule in RULES:
                s = score(e, rule, w)
                assert type(s) is Fraction and s == reference_score(e, rule, w), (e, rule, w)


def _answer(witness, opt=None, rule=CCAV, d=0, optimal=False):
    return answer(Instance(e1(), rule, 2, d), "probe", {"nodes": 1}, witness, opt, optimal=optimal)


def test_answer_builds_the_result_from_the_rescore():
    assert _answer(None) == SolveResult(False, None, None, "probe")
    res = _answer([1, 0], d=3)
    assert (res.decision, res.opt_score, res.witness) == (True, None, (0, 1))
    assert res.stats == {"nodes": 1}
    res = _answer((0, 1), Fraction(7, 2), rule=PAV, d=4)
    assert (res.decision, res.opt_score, res.witness) == (False, Fraction(7, 2), (0, 1))
    res = _answer((2, 1), rule=MAV, d=2, optimal=True)
    assert (res.decision, res.opt_score, res.witness) == (False, 3, (1, 2))


@pytest.mark.parametrize("witness", [(0,), (0, 1, 2), (1, 1), (0, 3), (-1, 0)])
def test_answer_rejects_a_witness_that_is_not_k_distinct_candidates(witness):
    for kwargs in ({}, {"opt": Fraction(3)}, {"optimal": True}):
        with pytest.raises(InternalError, match="probe: witness"):
            _answer(witness, **kwargs)


def test_answer_rejects_a_witness_its_rescore_contradicts():
    with pytest.raises(InternalError, match="misses d"):
        _answer((1, 2), d=3)
    with pytest.raises(InternalError, match="not the claimed optimum"):
        _answer((0, 1), Fraction(4), rule=PAV)
    for kwargs in ({"opt": Fraction(3)}, {"optimal": True}):
        with pytest.raises(InternalError, match="an optimum without a witness"):
            _answer(None, **kwargs)


def test_results_are_built_only_by_answer_and_the_oracle():
    # one checked exit: every route returns through core.answer; the oracle,
    # the reference the routes are tested against, builds its own result
    found = []
    for path in sorted(pathlib.Path(approvalwd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if "SolveResult" not in (getattr(func, "id", None), getattr(func, "attr", None)):
                continue
            while node in parent and not isinstance(node, ast.FunctionDef):
                node = parent[node]
            found.append(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert sorted(found) == ["core.answer"] * 2 + ["oracle.brute_force"]


def test_src_has_no_assert_statements():
    # python -O strips asserts, so a post-condition must be an explicit check
    found = []
    for path in sorted(pathlib.Path(approvalwd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_src_calls_itself_only_through_yield():
    # a direct self-call recurses once per search level; a search node yields
    # its children to the explicit-stack driver fpt._depth_first instead
    found = []
    for path in sorted(pathlib.Path(approvalwd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yielded = {id(node.value) for node in ast.walk(func) if isinstance(node, ast.Yield)}
            found += [
                f"{path.name}:{node.lineno}" for node in ast.walk(func)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == func.name
                and id(node) not in yielded
            ]
    assert found == []
