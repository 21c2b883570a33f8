"""Routes against their rule's treewidth DP, past the oracle's m <= 22.

The FPT routes run on random elections of m 30-60, n 20-60, degrees 2-4 and
k 1-4 whose min-fill width is at most 6; the degree-two routes on elections
of m, n up to 300.  Each route must give the DP's decision at the optimum
and half a point either side (one for MAV, whose distances are integers),
and the DP's optimum wherever it reports one.

The FPT routes' parameters are unbounded on these shapes, so each route
call gets a budget of search nodes and subinstances, and a call that runs
past it is not compared: the budget counts work, not time, so every host
compares the same calls.  Each test requires a floor of compared calls per
route, so a route that stops answering within the budget fails it.
"""

import contextlib
from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from approvalwd import CCAV, compute_params, fpt, Instance, MAV, PAV
from approvalwd.cli import ALGOS
from approvalwd.poly import ccav_deg2, mav_deg2, pav_deg22
from approvalwd.portfolio import generate, GeneratorConfig

# the DPs and the matching routes as the registry runs them, on the
# parameters' min-fill decomposition and matching
ccav_tw_dp, mav_tw_dp, pav_tw_dp = ALGOS["ccav-tw"], ALGOS["mav-tw"], ALGOS["pav-tw"]
mav_by_matching, pav_by_matching = ALGOS["mav-matching"], ALGOS["pav-matching"]

HALF = Fraction(1, 2)
BUDGET = 1_000  # search nodes and matching subinstances per route call
FLOOR = 55  # route calls compared per FPT route, of 75 (60-75 here)
PAV_MATCHING_FLOOR = 40  # pav_by_matching's, of 75 (45 here)


class _Overrun(Exception):
    """A route call went past BUDGET."""


@contextlib.contextmanager
def _budget():
    """Inside the block, every node of a search that ``fpt._depth_first``
    drives and every subinstance of a matching route counts toward BUDGET,
    and _Overrun is raised past it."""
    drive, split, spent = fpt._depth_first, fpt._subsets, [0]

    def tick():
        spent[0] += 1
        if spent[0] > BUDGET:
            raise _Overrun

    def counted(node):
        value = None
        while True:
            try:
                child = node.send(value)
            except StopIteration as done:
                return done.value
            tick()
            value = yield counted(child)

    def subsets(items, k):
        for subset in split(items, k):
            tick()
            yield subset

    fpt._depth_first, fpt._subsets = (lambda root: drive(counted(root))), subsets
    try:
        yield
    finally:
        fpt._depth_first, fpt._subsets = drive, split


def _past(examples):
    return settings(max_examples=examples, derandomize=True, deadline=None)


def _compare(cases, floor, floors=None):
    """Run the hypothesis examples of ``cases`` and require every route they
    run to be compared on at least ``floor`` calls, or ``floors[route]``."""
    compared = Counter()
    cases(compared)
    floors = floors or {}
    short = {route: n for route, n in compared.items() if n < floors.get(route, floor)}
    assert not short, short


@st.composite
def _elections(draw):
    """(election, k) of the shapes above, at min-fill width at most 6."""
    m, n = draw(st.integers(30, 60)), draw(st.integers(20, 60))
    dv, dc = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    e = generate(GeneratorConfig(m, n, dv, dc), draw(st.integers(0, 10**6)))
    assume(compute_params(Instance(e, PAV, 0, 0)).tw_upper <= 6)
    return e, draw(st.integers(1, 4))


def _agree(rule, e, k, routes, opt, step, compared):
    """Each route's decision is the DP's at opt - step, opt and opt + step, and
    an optimum it reports is the DP's; ``compared`` counts the calls compared
    per route."""
    for d in (opt - step, opt, opt + step):
        inst = Instance(e, rule, k, d)
        expected = d >= opt if rule == MAV else d <= opt
        for route in routes:
            try:
                with _budget():
                    res = route(inst)
            except _Overrun:
                compared[route] += 0  # a route never compared is short too
                continue
            assert res.decision == expected, (route, d)
            assert res.opt_score in (None, opt), (route, d)
            compared[route] += 1


def _mav_opt(e, k, decide):
    """The least integer d at which ``decide(d)`` says yes, by bisection on
    [0, k + deltaV], the distance no committee exceeds; the DP must say no
    just below it and yes at it."""
    lo, hi = 0, k + e.delta_v
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if decide(Instance(e, MAV, k, mid)).decision else (mid + 1, hi)
    assert mav_tw_dp(Instance(e, MAV, k, lo)).decision
    assert lo == 0 or not mav_tw_dp(Instance(e, MAV, k, lo - 1)).decision
    return lo


@_past(25)
@given(_elections())
def _pav_cases(compared, case):
    e, k = case
    opt = pav_tw_dp(Instance(e, PAV, k, 0)).opt_score
    _agree(PAV, e, k, (fpt.pav_bb_dv, pav_by_matching, pav_tw_dp), opt, HALF, compared)


@_past(25)
@given(_elections())
def _ccav_cases(compared, case):
    e, k = case
    opt = ccav_tw_dp(Instance(e, CCAV, k, 0)).opt_score
    _agree(CCAV, e, k, (fpt.ccav_bb_dual, ccav_tw_dp), opt, HALF, compared)


@_past(25)
@given(_elections())
def _mav_cases(compared, case):
    e, k = case
    opt = _mav_opt(e, k, mav_tw_dp)
    _agree(MAV, e, k, (fpt.mav_dual_grsp, mav_by_matching, mav_tw_dp), opt, 1, compared)


@_past(15)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 10**6), st.data())
def _degree_two_cases(compared, m, n, seed, data):
    e = generate(GeneratorConfig(m, n, 2, 2), seed)
    k = data.draw(st.integers(0, m))
    for rule, route, dp in ((CCAV, ccav_deg2, ccav_tw_dp), (PAV, pav_deg22, pav_tw_dp)):
        opt = dp(Instance(e, rule, k, 0)).opt_score
        _agree(rule, e, k, (route, dp), opt, HALF, compared)
    _agree(MAV, e, k, (mav_deg2, mav_tw_dp), _mav_opt(e, k, mav_deg2), 1, compared)


def test_pav_bb_dv_agrees_with_the_dp():
    _compare(_pav_cases, FLOOR, {pav_by_matching: PAV_MATCHING_FLOOR})


def test_ccav_bb_dual_agrees_with_the_dp():
    _compare(_ccav_cases, FLOOR)


def test_the_mav_routes_agree_with_the_dp():
    _compare(_mav_cases, FLOOR)


def test_the_degree_two_routes_agree_with_the_dps():
    _compare(_degree_two_cases, 45)  # every call: they run no search
