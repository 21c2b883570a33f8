"""Parameter-aware solver dispatch, instance generation, and corpus tools."""

from __future__ import annotations

import csv
import heapq
import io
import math
import os
import random
import time
from collections.abc import Callable
from dataclasses import dataclass

from . import fpt, graphs, oracle, poly, twdp
from .core import (
    answer,
    CCAV,
    compute_params,
    Election,
    FormatError,
    MAV,
    meets_threshold,
    parse_instance,
    PAV,
    score,
)
from .oracle import BudgetExceededError


class AllSolversExceededError(RuntimeError):
    """No solver fits within the policy budgets."""


# dispatch skips an FPT route estimated above FPT_COST_CAP or a treewidth
# route above TW_WIDTH_CAP, and runs the exhaustive route last only where its
# C(m + 1, k) nodes are within FPT_COST_CAP
FPT_COST_CAP = 10**7
TW_WIDTH_CAP = 8


@dataclass(frozen=True)
class Solver:
    """One exact route, as ``solve --algo``, dispatch and verify see it.

    Every route runs as ``run(instance, params)``; the matching and treewidth
    routes take their structure from the ``core.Params``.  ``run`` looks its
    solver up on the module at call time, so that a tracer rebinding the
    module attribute sees every call.  ``degrees(delta_v, delta_c)`` marks a polynomial route and
    says when it applies; ``cost(instance, params)`` ranks an FPT route for
    dispatch and is None when a budget gates the route out, and a route
    without ``cost`` is never ranked.  As ``params.alpha`` or
    ``params.tw_upper`` grows, a cost must not fall and a gated route must
    stay gated, since dispatch ranks on lower bounds of both first.
    ``decide(instance, params)``, where set, is the route's decision form,
    which dispatch runs in place of ``run``: it stops at the first committee
    that meets d and reports no optimum.

    The registry is a route's one checked entry: calling a Solver computes the
    parameters and runs its route once ``applies`` holds, and raises
    ValueError naming the rule or the degree gate otherwise.  ``run`` itself
    assumes both, as dispatch and verify call it after their own ``applies``
    check.
    """

    algo: str  # the --algo name
    name: str  # SolveResult.algorithm
    rule: str | None  # None: every rule
    run: Callable
    degrees: Callable | None = None
    cost: Callable | None = None
    decide: Callable | None = None

    def applies(self, instance, params):
        return self.rule in (None, instance.rule) and (
            self.degrees is None or self.degrees(params.delta_v, params.delta_c)
        )

    def __call__(self, instance):
        if self.rule not in (None, instance.rule):
            raise ValueError(f"{self.algo} needs rule {self.rule}, not {instance.rule}")
        params = compute_params(instance)
        if not self.applies(instance, params):
            raise ValueError(f"{self.algo} is outside its degree gate at "
                             f"deltaV={params.delta_v}, deltaC={params.delta_c}")
        return self.run(instance, params)


def _class_cost(size):
    def cost(instance, p):
        s = size(instance, p)
        return 2 ** s if s <= fpt.CLASS_VOTE_BUDGET else None
    return cost


def _tw_cost(per_entry):
    def cost(instance, p):
        if p.tw_upper > TW_WIDTH_CAP:
            return None
        return per_entry(instance.k, p.tw_upper) * 2 ** (p.tw_upper + 1) * (p.m + p.n + 1)
    return cost


def _grsp_cost(instance, p):
    """The nodes ``fpt.grsp_solve`` can visit: at most C(m + 1, kbar).

    Its search visits increasing sequences of set indices that can still be
    completed to kbar sets, and sum_i C(m - kbar + i, i) = C(m + 1, kbar).
    """
    return math.comb(p.m + 1, p.kbar)


def _pav_bb_cost(instance, p):
    """The nodes ``fpt.pav_bb_dv`` can visit: sum_{i <= D} b^i, or 1 at the root.

    With deltaC >= d one candidate meets d and the route answers at the root.
    Otherwise every branch set is the union of at most deltaC votes of at most
    deltaV candidates each, so b = max(2, min(m, deltaC * deltaV)) bounds the
    branching, and D = min(k, ceil(d * deltaV)) the depth.
    """
    if p.delta_c >= instance.d:
        return 1
    branch = max(2, min(p.m, p.delta_c * p.delta_v))
    depth = min(instance.k, math.ceil(instance.d * p.delta_v))
    return (branch ** (depth + 1) - 1) // (branch - 1)


SOLVERS = (
    Solver("auto", "dispatch", None, lambda inst, p: dispatch(inst, p)),
    Solver("brute", "brute_force", None, lambda inst, p: oracle.brute_force(inst)),
    # dispatch's last resort, never ranked: see dispatch
    Solver("exhaustive", "exhaustive", None, lambda inst, p: fpt.exhaustive(inst)),
    # the polynomial routes, in the order dispatch tries them
    Solver("av", "av_optimal", None, lambda inst, p: poly.av_optimal(inst),
           degrees=lambda dv, dc: dv <= 1),
    Solver("mav-deg2", "mav_deg2", MAV, lambda inst, p: poly.mav_deg2(inst),
           degrees=lambda dv, dc: dc <= 2),
    Solver("ccav-deg2", "ccav_deg2", CCAV, lambda inst, p: poly.ccav_deg2(inst),
           degrees=lambda dv, dc: dc <= 2),
    Solver("pav-deg1", "pav_deg1", PAV, lambda inst, p: poly.pav_deg1(inst),
           degrees=lambda dv, dc: dc <= 1),
    Solver("pav-deg22", "pav_deg22", PAV, lambda inst, p: poly.pav_deg22(inst),
           degrees=lambda dv, dc: dv <= 2 and dc <= 2),
    # the FPT routes, ranked by cost in dispatch; mav_by_classes is not: the
    # cost of mav_k_deltac never exceeds its 2^n, and where they tie
    # (n <= k * deltaC + 1) mav_k_deltac considers every vote, the same search
    Solver("mav-classes", "mav_by_classes", MAV, lambda inst, p: fpt.mav_by_classes(inst)),
    Solver("mav-kdc", "mav_k_deltac", MAV, lambda inst, p: fpt.mav_k_deltac(inst),
           cost=_class_cost(lambda inst, p: min(p.n, inst.k * p.delta_c + 1)),
           decide=lambda inst, p: fpt.mav_k_deltac(inst, decide=True)),
    Solver("mav-grsp", "mav_dual_grsp", MAV, lambda inst, p: fpt.mav_dual_grsp(inst),
           cost=_grsp_cost),
    Solver("mav-matching", "mav_by_matching", MAV,
           lambda inst, p: fpt.mav_by_matching(inst, p.matching),
           cost=lambda inst, p: 4 ** p.alpha),
    Solver("mav-tw", "mav_tw_dp", MAV,
           lambda inst, p: twdp.mav_tw_dp(inst, p.decomposition),
           cost=_tw_cost(lambda k, width: (k + 1) ** (width + 1))),
    Solver("ccav-bb", "ccav_bb_dual", CCAV, lambda inst, p: fpt.ccav_bb_dual(inst),
           cost=lambda inst, p: max(2, p.delta_c * p.kbar) ** p.kbar),
    Solver("ccav-tw", "ccav_tw_dp", CCAV,
           lambda inst, p: twdp.ccav_tw_dp(inst, p.decomposition),
           cost=_tw_cost(lambda k, width: 2 * (k + 1))),
    Solver("pav-bb", "pav_bb_dv", PAV, lambda inst, p: fpt.pav_bb_dv(inst),
           cost=_pav_bb_cost),
    Solver("pav-classes", "pav_annotated", PAV, lambda inst, p: fpt.pav_annotated(inst),
           cost=_class_cost(lambda inst, p: p.n),
           decide=lambda inst, p: fpt.pav_annotated(inst, decide=True)),
    Solver("pav-matching", "pav_by_matching", PAV,
           lambda inst, p: fpt.pav_by_matching(inst, p.matching),
           cost=lambda inst, p: 4 ** p.alpha),
    Solver("pav-tw", "pav_tw_dp", PAV,
           lambda inst, p: twdp.pav_tw_dp(inst, p.decomposition),
           cost=_tw_cost(lambda k, width: (k + 1) ** (width + 1))),
)


class _Optimistic:
    """``params`` as a cost reads it before dispatch pays for alpha or tw_upper.

    A parameter in ``bounds`` reads as that lower bound, and ``guessed``
    collects the names so read: a cost read through this view with any of
    them is a lower bound too.
    """

    def __init__(self, params, bounds):
        self._params, self._bounds, self.guessed = params, bounds, set()

    def __getattr__(self, name):
        if name in self._bounds:
            self.guessed.add(name)
            return self._bounds[name]
        return getattr(self._params, name)


def _widest(instance, params, solver, limit):
    """The largest tw_upper at which the solver's cost is within ``limit``
    (-1 where none is); costs grow with the width, so every width past it
    costs more or gates the route out."""
    width = -1
    while True:
        cost = solver.cost(instance, _Optimistic(params, {"tw_upper": width + 1}))
        if cost is None or cost > limit:
            return width
        width += 1


def _lower_bounds(election, delta_v, delta_c):
    """Lower bounds on alpha and tw_upper, from linear passes over the votes.

    A bipartite graph of maximum degree D is the union of D matchings (Kőnig's
    edge-colouring theorem), so alpha >= ceil(|E| / D).  Every decomposition
    of a graph with an edge has width >= 1, and of a graph with a cycle width
    >= 2.  A forest with an edge has fewer edges than non-isolated vertices,
    so a count proves a cycle where there are at least as many; otherwise a
    union-find over the incidence edges looks for one.
    """
    votes, counts, m = election.votes, election.approver_counts, election.m
    edges = sum(counts)
    cycle = edges > 0 and edges >= m - counts.count(0) + sum(map(bool, votes))
    if not cycle:
        root = list(range(m + election.n))
        for j, vote in enumerate(votes):
            for c in vote:
                a, b = graphs._find(root, c), graphs._find(root, m + j)
                cycle = cycle or a == b
                root[a] = b
    return {
        "alpha": -(-edges // max(delta_v, delta_c, 1)),
        "tw_upper": 2 if cycle else min(edges, 1),
    }


def dispatch(instance, params=None):
    """Route the instance to the cheapest applicable exact solver.

    The polynomial routes come first, then two score bounds: a MAV distance
    never exceeds k + deltaV, and a CCAV or PAV score never exceeds
    k * deltaC.  All of these read the degrees from the parameters, which
    are computed first unless the caller passes them; their incidence-graph
    values wait for a read.  A CCAV or PAV instance then goes to its rule's
    branch-and-bound route, ``ccav_bb_dual`` or ``pav_bb_dv``, with
    ``root_only``: the route's root certificates, a greedy committee for yes
    and two submodular bounds for no, answer under its name, and only where
    they leave the instance undecided does the ranking below run.  Then the
    FPT route of least estimated cost runs.
    When none is within the caps, the exhaustive route runs if its C(m + 1, k)
    search-tree nodes, ``_grsp_cost``'s bound with k in place of kbar, are
    within FPT_COST_CAP.  It is not ranked beside the others: one of their
    nodes costs an order of magnitude more than one of its committees, so
    raw counts would rank it first where they are faster.

    A route is first ranked on lower bounds of alpha and tw_upper.  Every cost
    and every gate grows with both, so the matching or the min-fill runs only
    when such an optimistic rank comes first; the route is then ranked again
    on the real values.  A treewidth route can then win only up to the width
    at which its cost reaches the least real cost queued (or FPT_COST_CAP):
    the min-fill stops at its first bag past that width and the route drops
    out.  The route that runs is the one that ranking on the real values would
    put first, and it reuses the matching or decomposition that its rank
    computed.

    Dispatch asks a decision: a route with a decision form, and the
    exhaustive route, stop at the first committee that meets d and report no
    optimum.
    """
    e = instance.election
    k, d = instance.k, instance.d
    if params is None:
        params = compute_params(instance)
    delta_v, delta_c = params.delta_v, params.delta_c
    for solver in SOLVERS:
        if solver.degrees and solver.applies(instance, params):
            return solver.run(instance, params)
    if instance.rule == MAV and d >= k + delta_v:
        return answer(instance, "score_bound", {}, range(k))
    if instance.rule != MAV and d > k * delta_c:
        return answer(instance, "score_bound", {})
    if instance.rule != MAV:
        res = (fpt.ccav_bb_dual if instance.rule == CCAV else fpt.pav_bb_dv)(
            instance, root_only=True)
        if res is not None:
            return res
    bounds = _lower_bounds(e, delta_v, delta_c)
    heap = []  # (cost, name, the bounds the cost read, solver)

    def push(cost, solver, guessed):
        if cost is not None and cost <= FPT_COST_CAP:
            heapq.heappush(heap, (cost, solver.name, guessed, solver))

    for solver in SOLVERS:
        if solver.cost and solver.rule == instance.rule:
            view = _Optimistic(params, bounds)
            push(solver.cost(instance, view), solver, view.guessed)
    while heap:
        _, _, guessed, solver = heapq.heappop(heap)
        if "tw_upper" in guessed:
            limit = min([FPT_COST_CAP] + [cost for cost, _, g, _ in heap if not g])
            if params.decomposition_within(_widest(instance, params, solver, limit)) is None:
                continue
        if guessed:
            push(solver.cost(instance, params), solver, set())
            continue
        # a class route raises BudgetExceededError only where its cost is None
        return (solver.decide or solver.run)(instance, params)
    if math.comb(e.m + 1, k) <= FPT_COST_CAP:
        return fpt.exhaustive(instance, decide=True)
    raise AllSolversExceededError("no solver within policy budgets")


def applicable(instance, params):
    """The ``solve --algo`` routes that apply to the instance, brute force aside.

    These are the routes verify checks against the brute-force oracle.
    """
    return [
        solver for solver in SOLVERS
        if solver.algo != "brute" and solver.applies(instance, params)
    ]


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorConfig:
    m: int
    n: int
    max_dv: int | None = None
    max_dc: int | None = None


def generate(config, seed):
    """Seed-reproducible random election honoring the degree caps."""
    if config.m < 0 or config.n < 0:
        raise ValueError("negative sizes")
    max_dv = config.m if config.max_dv is None else config.max_dv
    max_dc = config.n if config.max_dc is None else config.max_dc
    if max_dv < 0 or max_dc < 0:
        raise ValueError("negative degree cap")
    rng = random.Random(seed)
    capacity = {c: max_dc for c in range(config.m)}
    votes = []
    for _ in range(config.n):
        available = [c for c in range(config.m) if capacity[c] > 0]
        size = rng.randint(0, min(max_dv, len(available)))
        vote = rng.sample(available, size)
        for c in vote:
            capacity[c] -= 1
        votes.append(frozenset(vote))
    return Election(m=config.m, votes=tuple(votes))


# ---------------------------------------------------------------------------
# Corpus verification and benchmarking
# ---------------------------------------------------------------------------

def check_result(instance, res, truth):
    """Mismatch strings for one solver result against the oracle result."""
    problems = []
    if res.decision != truth.decision:
        problems.append(f"decision {res.decision} vs {truth.decision}")
    if res.opt_score is not None and res.opt_score != truth.opt_score:
        problems.append(f"optScore {res.opt_score} vs {truth.opt_score}")
    if res.decision:
        if res.witness is None:
            problems.append("yes without witness")
        else:
            if len(res.witness) != instance.k:
                problems.append("witness size != k")
            s = score(instance.election, instance.rule, res.witness)
            if not meets_threshold(instance.rule, s, instance.d):
                problems.append(f"witness score {s} misses threshold {instance.d}")
    return problems


def _read_corpus(corpus_dir):
    """Each ``.appr`` file of ``corpus_dir`` in name order, as (name, instance,
    detail): detail is the file's text, or, where the file cannot be read,
    is not UTF-8 or is not an instance, instance is None and detail says why."""
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".appr"):
            continue
        try:
            with open(os.path.join(corpus_dir, name), encoding="utf-8") as fh:
                text = fh.read()
            instance = parse_instance(text)
        except (FormatError, OSError, UnicodeDecodeError) as exc:
            yield name, None, str(exc)
        else:
            yield name, instance, text


def verify(corpus_dir, budget=22):
    """Run every applicable solver against the oracle on each corpus file."""
    report = []
    for name, instance, text in _read_corpus(corpus_dir):
        if instance is None:
            report.append({"instance": name, "status": "parse-error", "detail": text})
            continue
        try:
            truth = oracle.brute_force(instance, max_m=budget)
        except BudgetExceededError:
            report.append({"instance": name, "status": "skipped", "detail": "oracle budget"})
            continue
        params = compute_params(instance)
        for solver in applicable(instance, params):
            try:
                res = solver.run(instance, params)
            except BudgetExceededError as exc:  # unchecked, but no disagreement
                report.append({"instance": name, "status": "skipped", "solver": solver.name,
                               "detail": str(exc)})
                continue
            except AllSolversExceededError as exc:  # a refusal, not a disagreement
                report.append({"instance": name, "status": "refused", "solver": solver.name,
                               "detail": str(exc)})
                continue
            problems = check_result(instance, res, truth)
            if problems:
                report.append({
                    "instance": name,
                    "status": "disagreement",
                    "solver": solver.name,
                    "detail": "; ".join(problems) + " | " + text.replace("\n", "\\n"),
                })
    ok = not any(r["status"] == "disagreement" for r in report)
    return ok, report


def bench(corpus_dir):
    """CSV rows (instance, params, solver, nodes, seconds) over a corpus, refusals
    and unreadable files included.

    twUpper and alpha are written where dispatch computed them and left empty
    otherwise, so a row costs no more than its dispatch.
    """
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([
        "instance", "rule", "m", "n", "k", "deltaV", "deltaC",
        "twUpper", "alpha", "solver", "decision", "nodes", "seconds",
    ])
    for name, instance, _ in _read_corpus(corpus_dir):
        if instance is None:
            writer.writerow([name] + [""] * 8 + ["parse-error"] + [""] * 3)
            continue
        start = time.perf_counter()
        params = compute_params(instance)
        try:
            res = dispatch(instance, params)
        except AllSolversExceededError:
            solver, decision, nodes = "refused", "", ""
        else:
            solver, decision = res.algorithm, int(res.decision)
            nodes = res.stats.get("nodes", res.stats.get("max_entries", ""))
        elapsed = time.perf_counter() - start
        # the parameters keep a min-fill or matching once one ran
        known = vars(params)
        writer.writerow([
            name, instance.rule, params.m, params.n, instance.k,
            params.delta_v, params.delta_c,
            params.tw_upper if "decomposition" in known else "",
            params.alpha if "matching" in known else "",
            solver, decision, nodes, f"{elapsed:.6f}",
        ])
    return out.getvalue()
