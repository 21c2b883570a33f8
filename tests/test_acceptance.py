"""Acceptance gate: oracle-equivalence sweeps and structural invariants.

Each criterion prints exactly one PASS/FAIL line on the terminal (bypassing
capture) and then asserts, so a red criterion is visible in both places.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from approvalwd import (
    CCAV,
    compute_params,
    format_election,
    format_instance,
    Instance,
    MAV,
    meets_threshold,
    parse_election,
    parse_instance,
    PAV,
    RULES,
    score,
)
from approvalwd import cli, fpt, graphs, poly, twdp
from approvalwd.oracle import brute_force, BudgetExceededError
from approvalwd.portfolio import applicable, generate, GeneratorConfig
from approvalwd.reductions import (
    ids_to_ccav,
    mvs_to_pav,
    pvc_to_ccav,
    vc_to_mav,
)

from helpers import (
    adjacency,
    ccav_phs_convert,
    exact_decomposition,
    exhaustive_b_edge_cover_exists,
    exhaustive_max_matching_size,
    random_election,
    random_graph,
    random_regular_graph,
)


def _report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\n[criterion {num}] {name}: {status}{suffix}")


def _witness_ok(inst, res):
    if not res.decision:
        return True
    if res.witness is None or len(res.witness) != inst.k:
        return False
    s = score(inst.election, inst.rule, res.witness)
    return meets_threshold(inst.rule, s, inst.d)


def _solver_rows(inst, params, width, k):
    """Every registered solver applicable to this instance.

    The two committee-overlap treewidth tables are budget-gated by their
    worst-case size so the full sweep stays inside the time budget; coverage
    counts below assert they still run on a large share of the sweep.
    """
    mu_budget = (k + 1) ** (width + 1) * 2 ** min(width + 1, inst.election.m) <= 30000
    return [
        solver for solver in applicable(inst, params)
        if mu_budget or solver.name not in ("mav_tw_dp", "pav_tw_dp")
    ]


def test_criterion_1_oracle_equivalence_sweep(capsys):
    rng = random.Random(101)
    failures = []
    coverage = {}
    instances = 0
    while instances < 1000:
        e = random_election(rng, max_m=9, max_n=7)
        width = graphs.tree_decomposition(graphs.incidence_graph(e)).width()
        for rule in RULES:
            k = rng.randint(0, e.m)
            opt = brute_force(Instance(election=e, rule=rule, k=k, d=0)).opt_score
            for d in (opt - 1, opt, opt + 1):
                inst = Instance(election=e, rule=rule, k=k, d=d)
                instances += 1
                truth = brute_force(inst)
                params = compute_params(inst)
                for solver in _solver_rows(inst, params, width, k):
                    name = solver.name
                    try:
                        res = solver.run(inst, params)
                    except BudgetExceededError:
                        continue
                    coverage[name] = coverage.get(name, 0) + 1
                    bad = []
                    if res.decision != truth.decision:
                        bad.append("decision")
                    if res.opt_score is not None and res.opt_score != truth.opt_score:
                        bad.append("optScore")
                    if not _witness_ok(inst, res):
                        bad.append("witness")
                    if bad:
                        failures.append((name, rule, bad, format_instance(inst)))
    expected = {
        "dispatch", "av_optimal",
        "mav_by_classes", "mav_k_deltac", "mav_dual_grsp", "mav_by_matching",
        "mav_deg2", "mav_tw_dp",
        "ccav_bb_dual", "ccav_tw_dp", "ccav_deg2",
        "pav_bb_dv", "pav_by_matching", "pav_deg1", "pav_deg22", "pav_tw_dp",
    }
    thin = [s for s in expected if coverage.get(s, 0) < 30]
    ok = not failures and not thin
    _report(
        capsys, 1, "oracle equivalence sweep", ok,
        f"{instances} instances, {sum(coverage.values())} solver runs",
    )
    assert not failures, failures[:3]
    assert not thin, f"undercovered solvers: {thin}"


def test_criterion_2_poly_case_conformance(capsys):
    rng = random.Random(102)
    failures = []

    def check(inst, res):
        truth = brute_force(inst)
        if res.decision != truth.decision or not _witness_ok(inst, res):
            failures.append((res.algorithm, format_instance(inst)))
        if res.opt_score is not None and res.opt_score != truth.opt_score:
            failures.append((res.algorithm + ":score", format_instance(inst)))

    for _ in range(300):
        # deltaV <= 1: AV committee optimal under all three rules at once
        e = random_election(rng, max_m=6, max_n=6, max_dv=1)
        k = rng.randint(0, e.m)
        for rule in RULES:
            inst = Instance(election=e, rule=rule, k=k, d=0)
            if poly.av_optimal(inst).opt_score != brute_force(inst).opt_score:
                failures.append(("av_optimal", rule, format_election(e), k))

        # deltaC <= 2: MAV and CCAV special solvers
        e = random_election(rng, max_m=6, max_n=6, max_dc=2)
        k = rng.randint(0, e.m)
        for rule, solver in ((MAV, poly.mav_deg2), (CCAV, poly.ccav_deg2)):
            opt = brute_force(Instance(election=e, rule=rule, k=k, d=0)).opt_score
            d = opt + rng.randint(-1, 1)
            check(Instance(election=e, rule=rule, k=k, d=d), solver(
                Instance(election=e, rule=rule, k=k, d=d)
            ))

        # deltaC <= 1: PAV greedy
        e = random_election(rng, max_m=6, max_n=6, max_dc=1)
        k = rng.randint(0, e.m)
        opt = brute_force(Instance(election=e, rule=PAV, k=k, d=0)).opt_score
        inst = Instance(election=e, rule=PAV, k=k, d=opt + Fraction(rng.randint(-2, 2), 2))
        check(inst, poly.pav_deg1(inst))

        # deltaV = deltaC = 2: k-way merge of component gains
        e = random_election(rng, max_m=6, max_n=6, max_dv=2, max_dc=2)
        k = rng.randint(0, e.m)
        opt = brute_force(Instance(election=e, rule=PAV, k=k, d=0)).opt_score
        inst = Instance(election=e, rule=PAV, k=k, d=opt + Fraction(rng.randint(-2, 2), 2))
        check(inst, poly.pav_deg22(inst))

    _report(capsys, 2, "poly-case conformance", not failures, "300 instances per case")
    assert not failures, failures[:3]


def test_criterion_3_reduction_equivalence(capsys):
    rng = random.Random(103)
    failures = []

    def vc(n, edges, kappa):
        return any(
            all(u in set(s) or v in set(s) for u, v in edges)
            for s in itertools.combinations(range(n), kappa)
        )

    def ids(n, edges, kappa):
        return any(
            not any(u in s and v in s for u, v in edges)
            for s in (set(t) for t in itertools.combinations(range(n), kappa))
        )

    def pvc(n, edges, kappa, ell):
        return max(
            (
                sum(1 for u, v in edges if u in set(s) or v in set(s))
                for s in itertools.combinations(range(n), kappa)
            ),
            default=0,
        ) >= ell

    def mvs(n, edges, kappa, ell):
        return min(
            sum(1 for u, v in edges if u not in set(s) and v not in set(s))
            for s in itertools.combinations(range(n), kappa)
        ) <= ell

    for _ in range(200):
        n, edges = random_graph(rng, max_n=10, p=0.3)
        kappa = rng.randint(0, n)
        ell = rng.randint(0, len(edges))
        cases = [
            (vc_to_mav(n, edges, kappa), vc(n, edges, kappa)),
            (ids_to_ccav(n, edges, kappa), ids(n, edges, kappa)),
            (pvc_to_ccav(n, edges, kappa, ell), pvc(n, edges, kappa, ell)),
        ]
        rn, redges = random_regular_graph(rng)
        rkappa = rng.randint(0, rn - 1)
        rell = rng.randint(0, len(redges))
        inst = mvs_to_pav(rn, redges, rkappa, rell)
        r = len(redges) * 2 // rn
        if inst.d != Fraction((rn - rkappa) * r) - Fraction(rell, 2):
            failures.append(("mvs threshold", rn, redges, rkappa, rell))
        cases.append((inst, mvs(rn, redges, rkappa, rell)))
        for instance, graph_answer in cases:
            if brute_force(instance).decision != graph_answer:
                failures.append((instance.rule, format_instance(instance)))

    _report(capsys, 3, "reduction equivalence", not failures, "200 graphs per reduction")
    assert not failures, failures[:3]


def test_criterion_4_decomposition_independence(capsys):
    rng = random.Random(104)
    failures = []
    solvers = {MAV: twdp.mav_tw_dp, CCAV: twdp.ccav_tw_dp, PAV: twdp.pav_tw_dp}
    done = 0
    while done < 100:
        e = random_election(rng, max_m=5, max_n=5)
        if not 1 <= e.m + e.n <= 10:
            continue
        g = graphs.incidence_graph(e)
        td_a = graphs.tree_decomposition(g)
        td_b = exact_decomposition(g)
        k = rng.randint(0, e.m)
        rule = rng.choice(RULES)
        opt = brute_force(Instance(election=e, rule=rule, k=k, d=0)).opt_score
        inst = Instance(election=e, rule=rule, k=k, d=opt + rng.randint(-1, 1))
        ra = solvers[rule](inst, td=td_a)
        rb = solvers[rule](inst, td=td_b)
        if ra.decision != rb.decision or ra.opt_score != rb.opt_score:
            failures.append((rule, format_instance(inst)))
        done += 1

    _report(capsys, 4, "decomposition independence", not failures, "100 instances")
    assert not failures, failures[:3]


def test_criterion_5_complexity_bounds(capsys):
    rng = random.Random(105)
    failures = []
    for _ in range(200):
        e = random_election(rng, max_m=7, max_n=6)
        k = rng.randint(0, e.m)
        kbar = e.m - k
        d = rng.randint(0, e.n + 1)

        res = fpt.ccav_bb_dual(Instance(election=e, rule=CCAV, k=k, d=d))
        # branch tree: depth <= kbar, branch factor <= deltaC * kbar, plus
        # one node per level of the single initial chain (polynomial slack)
        bound = max(1, e.delta_c * kbar) ** kbar * (kbar + 1) + 1
        if res.stats["nodes"] > bound:
            failures.append(("ccav_bb_dual nodes", res.stats["nodes"], bound))

        res = cli.ALGOS["ccav-tw"](Instance(election=e, rule=CCAV, k=k, d=d))
        if res.stats["max_entries"] > 2 ** (res.stats["width"] + 1) * (k + 1):
            failures.append(("ccav_tw_dp entries", res.stats))

        dp = Fraction(d) + Fraction(rng.randint(0, 1), 2)
        res = fpt.pav_bb_dv(Instance(election=e, rule=PAV, k=k, d=dp))
        if dp > 0 and res.stats.get("max_branch", 0) > math.ceil(dp * e.delta_v):
            failures.append(("pav_bb_dv branch", res.stats, dp, e.delta_v))

    _report(capsys, 5, "complexity-bound assertions", not failures, "200 instances")
    assert not failures, failures[:3]


def test_criterion_6_infrastructure(capsys):
    rng = random.Random(106)
    failures = []
    for _ in range(500):
        n, edges = random_graph(rng, max_n=7, p=0.4)
        edges = edges[:10]
        g = adjacency(range(n), edges)
        matching = graphs.max_matching(g)
        used = set()
        valid = True
        for edge in matching:
            u, v = tuple(edge)
            if u in used or v in used or v not in g[u]:
                valid = False
            used.update(edge)
        if not valid or len(matching) != exhaustive_max_matching_size(edges):
            failures.append(("matching", n, edges))

    for _ in range(500):
        nv = rng.randint(1, 4)
        medges = []
        for _ in range(rng.randint(0, 8)):
            roll = rng.random()
            if roll < 0.1:
                medges.append(())
            elif roll < 0.35:
                medges.append((rng.randrange(nv),))
            else:
                u, v = rng.randrange(nv), rng.randrange(nv)
                medges.append((u,) if u == v else tuple(sorted((u, v))))
        degree = [0] * nv
        for ep in medges:
            for v in set(ep):
                degree[v] += 1
        f = [rng.randint(0, degree[v] + 1) for v in range(nv)]
        kappa = rng.randint(0, len(medges))
        got = graphs.simple_b_edge_cover_exact(nv, medges, f, kappa)
        want = exhaustive_b_edge_cover_exists(nv, medges, f, kappa)
        if (got is not None) != want:
            failures.append(("b-edge-cover", nv, medges, f, kappa))

    for _ in range(200):
        n, edges = random_graph(rng, max_n=8, p=0.4)
        g = adjacency(range(n), edges)
        td = graphs.tree_decomposition(g)
        ntd = graphs.to_nice(td)
        try:
            ntd.validate(g)
        except graphs.DecompositionError:
            failures.append(("to_nice validate", n, edges))
            continue
        if ntd.width() != td.width():
            failures.append(("to_nice width", n, edges))

    _report(capsys, 6, "infrastructure correctness", not failures, "500/500/200 cases")
    assert not failures, failures[:3]


def test_criterion_7_format_roundtrips(capsys):
    rng = random.Random(107)
    failures = []
    for _ in range(200):
        e = random_election(rng, max_m=8, max_n=7)
        k = rng.randint(0, e.m)
        inst = Instance(
            election=e,
            rule=rng.choice(RULES),
            d=Fraction(rng.randint(-3, 12), rng.randint(1, 4)),
            k=k,
        )
        text = format_instance(inst)
        if parse_instance(text) != inst or format_instance(parse_instance(text)) != text:
            failures.append(("appr", text))
        etext = format_election(e)
        if parse_election(etext) != e or format_election(parse_election(etext)) != etext:
            failures.append(("appr election", etext))
        cinst = Instance(election=e, rule=CCAV, k=k, d=rng.randint(0, e.n + 1))
        if ccav_phs_convert("to_ccav", ccav_phs_convert("to_phs", cinst)) != cinst:
            failures.append(("phs roundtrip", format_instance(cinst)))

    _report(capsys, 7, "format round-trips", not failures, "200 instances")
    assert not failures, failures[:3]


def test_criterion_8_smoke_scale(capsys):
    e = generate(GeneratorConfig(m=30, n=30, max_dv=2, max_dc=2), seed=108)
    assert e.m + e.n == 60
    width = graphs.tree_decomposition(graphs.incidence_graph(e)).width()
    inst = Instance(election=e, rule=CCAV, k=10, d=20)
    start = time.perf_counter()
    res = cli.ALGOS["ccav-tw"](inst)
    elapsed = time.perf_counter() - start
    ok = width <= 4 and elapsed < 10.0 and res.opt_score is not None
    _report(
        capsys, 8, "smoke-scale treewidth run", ok,
        f"60 vertices, width {width}, {elapsed:.2f}s",
    )
    assert width <= 4
    assert elapsed < 10.0
    assert score(e, CCAV, res.witness) == res.opt_score
