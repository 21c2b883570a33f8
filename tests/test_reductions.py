import itertools
import random

import pytest

from approvalwd import CCAV, FormatError, Instance, MAV, PAV
from approvalwd.oracle import brute_force
from approvalwd.reductions import (
    ids_to_ccav,
    mvs_to_pav,
    parse_graph,
    pvc_to_ccav,
    vc_to_mav,
)

from helpers import (
    brute_force_phs,
    ccav_phs_convert,
    e1,
    format_graph,
    random_election,
    random_graph,
    random_regular_graph,
)

K3 = (3, [(0, 1), (1, 2), (0, 2)])
C4 = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])
STAR = (4, [(0, 1), (0, 2), (0, 3)])


def _has_vertex_cover(n, edges, kappa):
    return any(
        all(u in set(s) or v in set(s) for u, v in edges)
        for s in itertools.combinations(range(n), kappa)
    )


def _has_independent_set(n, edges, kappa):
    return any(
        not any(u in set(s) and v in set(s) for u, v in edges)
        for s in itertools.combinations(range(n), kappa)
    )


def _min_edges_after_deletion(n, edges, kappa):
    return min(
        sum(1 for u, v in edges if u not in set(s) and v not in set(s))
        for s in itertools.combinations(range(n), kappa)
    )


def _max_edges_covered(n, edges, kappa):
    return max(
        sum(1 for u, v in edges if u in set(s) or v in set(s))
        for s in itertools.combinations(range(n), kappa)
    )


def test_graph_format_roundtrip():
    rng = random.Random(70)
    for _ in range(100):
        n, edges = random_graph(rng)
        text = format_graph(n, edges)
        assert parse_graph(text) == (n, edges)
    assert parse_graph("c comment\n# also\np 2 1\ne 1 2\n") == (2, [(0, 1)])
    for bad in ("", "e 1 2\n", "p 2 1\n", "p 2 0\ne 1 2\n", "p 2 1\ne 1 5\n", "q 1\n",
                "p 2 1\ne 1\n", "p 2 1\ne 1 2 3\n", "p x 1\n", "p 2 1\ne 1 2\np 3 1\n"):
        with pytest.raises(FormatError):
            parse_graph(bad)


def test_vc_to_mav_examples():
    n, edges = K3
    assert brute_force(vc_to_mav(n, edges, 2)).decision
    assert not brute_force(vc_to_mav(n, edges, 1)).decision
    inst = vc_to_mav(2, [], 0)
    assert inst.rule == MAV and brute_force(inst).decision


def test_ids_to_ccav_examples():
    assert brute_force(ids_to_ccav(*C4, 2)).decision
    assert not brute_force(ids_to_ccav(*K3, 2)).decision
    assert brute_force(ids_to_ccav(*K3, 0)).decision
    with pytest.raises(ValueError):
        ids_to_ccav(*K3, 4)


def test_mvs_to_pav_examples():
    inst = mvs_to_pav(*C4, 2, 0)
    assert inst.rule == PAV and inst.d == 4
    assert brute_force(inst).decision
    inst = mvs_to_pav(*K3, 1, 0)
    assert inst.d == 4
    assert not brute_force(inst).decision
    with pytest.raises(ValueError):
        mvs_to_pav(*STAR, 1, 0)  # not regular
    with pytest.raises(ValueError):
        mvs_to_pav(*K3, 3, 0)  # kappa must stay below n


def test_pvc_to_ccav_examples():
    assert brute_force(pvc_to_ccav(*STAR, 1, 3)).decision
    assert not brute_force(pvc_to_ccav(*STAR, 1, 4)).decision
    assert brute_force(pvc_to_ccav(*STAR, 0, 0)).decision


def test_reduction_equivalence_sweep():
    rng = random.Random(71)
    for _ in range(60):
        n, edges = random_graph(rng, max_n=6)
        kappa = rng.randint(0, n)
        assert brute_force(vc_to_mav(n, edges, kappa)).decision == _has_vertex_cover(
            n, edges, kappa
        )
        assert brute_force(ids_to_ccav(n, edges, kappa)).decision == (
            _has_independent_set(n, edges, kappa)
        )
        ell = rng.randint(0, len(edges))
        assert brute_force(pvc_to_ccav(n, edges, kappa, ell)).decision == (
            _max_edges_covered(n, edges, kappa) >= ell
        )

        n, edges = random_regular_graph(rng)
        kappa = rng.randint(0, n - 1)
        ell = rng.randint(0, len(edges))
        assert brute_force(mvs_to_pav(n, edges, kappa, ell)).decision == (
            _min_edges_after_deletion(n, edges, kappa) <= ell
        )


def test_reductions_produce_dv2_elections():
    rng = random.Random(72)
    for _ in range(40):
        n, edges = random_graph(rng)
        if not edges:
            continue
        for inst in (
            vc_to_mav(n, edges, 1),
            ids_to_ccav(n, edges, 1),
            pvc_to_ccav(n, edges, 1, 0),
        ):
            assert inst.election.delta_v == 2


def test_phs_convert():
    inst = Instance(election=e1(), rule=CCAV, k=1, d=2)
    universe, sets, a, b = ccav_phs_convert("to_phs", inst)
    assert universe == (0, 1, 2)
    assert sets == e1().votes
    assert (a, b) == (1, 2)
    assert ccav_phs_convert("to_ccav", (universe, sets, a, b)) == inst
    with pytest.raises(ValueError):
        ccav_phs_convert("to_phs", Instance(election=e1(), rule=MAV, k=1, d=2))
    with pytest.raises(ValueError):
        ccav_phs_convert("to_ccav", ((5, 7), (), 0, 0))
    with pytest.raises(ValueError):
        ccav_phs_convert("sideways", None)


def test_phs_decision_equivalence():
    rng = random.Random(73)
    for _ in range(80):
        e = random_election(rng, max_m=5, max_n=5)
        k = rng.randint(0, e.m)
        d = rng.randint(0, e.n + 1)
        inst = Instance(election=e, rule=CCAV, k=k, d=d)
        universe, sets, a, b = ccav_phs_convert("to_phs", inst)
        assert brute_force(inst).decision == brute_force_phs(universe, sets, a, b)
