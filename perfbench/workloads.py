"""Seeded corpora for the benchmark's four workloads.

A corpus is a pure function of (workload, seed).  Generation runs in two
steps: ``draft`` makes the elections, rules and committee sizes (cheap), and
``finish`` turns each draft into instances once its ground truth is known,
putting thresholds at the optimum and one step past it.  Ground truth comes
from ``checker`` and networkx, never from approvalwd.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
from networkx.algorithms.approximation import treewidth_min_fill_in

import checker

WORKLOADS = ("deg2-large", "fpt-mixed", "tw-forced", "dual-scale")
RULES = ("mav", "ccav", "pav")
TW_ALGO = {"mav": "mav-tw", "ccav": "ccav-tw", "pav": "pav-tw"}
PAV_STEP = Fraction(1, 60)  # below every PAV score gap when |v| <= 5


def generate(m, n, max_dv, max_dc, seed):
    """Votes drawn exactly as approvalwd.portfolio.generate draws them."""
    rng = random.Random(seed)
    capacity = [max_dc] * m
    votes = []
    for _ in range(n):
        available = [c for c in range(m) if capacity[c] > 0]
        size = rng.randint(0, min(max_dv, len(available)))
        vote = rng.sample(available, size)
        for c in vote:
            capacity[c] -= 1
        votes.append(tuple(sorted(vote)))
    return tuple(votes)


def format_instance(rule, k, d, m, votes):
    """The .appr instance text, as approvalwd.core.format_instance writes it."""
    lines = [f"{rule} {k} {d.numerator} {d.denominator}", f"{m} {len(votes)}"]
    lines.extend(" ".join(str(c) for c in v) for v in votes)
    return "\n".join(lines) + "\n"


def incidence_width(m, votes):
    """Min-fill treewidth upper bound of the incidence graph, via networkx."""
    g = nx.Graph()
    g.add_nodes_from(range(m + len(votes)))
    g.add_edges_from((c, m + j) for j, v in enumerate(votes) for c in v)
    return treewidth_min_fill_in(g)[0]


def _relabel(rng, m, votes):
    """Shuffle candidate labels and vote order, keeping the shape."""
    perm = list(range(m))
    rng.shuffle(perm)
    out = [tuple(sorted(perm[c] for c in v)) for v in votes]
    rng.shuffle(out)
    return tuple(out)


def _draft(name, rule, k, m, votes, truth, algo="auto", low=None, fixed=None):
    return {
        "name": name, "algo": algo, "rule": rule, "k": k, "m": m,
        "votes": votes, "truth": truth, "low": low, "fixed": fixed,
    }


# ---------------------------------------------------------------------------
# Drafts per workload
# ---------------------------------------------------------------------------

def _deg2_large(rng):
    """Random elections with many small components (their cost averages out
    within one instance) and relabelled paths and cycles, whose pav_deg22 cost
    sets the tail; k is a fixed share of m."""
    out = []
    families = (
        ("rnd", 2, 2, ((150, 150), (200, 200), (300, 300), (400, 400)), ("mav", "ccav")),
        ("rnd", 2, 2, ((100, 100), (150, 150)), ("pav",)),
        ("av", 1, 2, ((150, 200), (300, 300)), RULES),
        ("one", 2, 1, ((200, 100), (400, 200)), RULES),
    )
    for family, dv, dc, sizes, rules in families:
        for m, n in sizes:
            for rule in rules:
                votes = generate(m, n, dv, dc, rng.randrange(2**32))
                out.append(_draft(f"{family}{m}x{n}-{rule}", rule, m // 8, m, votes, "deg2"))
    for shape in ("path", "cycle"):
        def ring(n):
            m = n + 1 if shape == "path" else n
            return m, _relabel(rng, m, tuple((j, (j + 1) % m) for j in range(n)))

        for n in (60, 80, 100, 120):
            for rule in ("mav", "ccav"):
                m, votes = ring(n)
                out.append(_draft(f"{shape}{n}-{rule}", rule, n // 3, m, votes, "deg2"))
        # PAV on the 100-vote path and cycle, four labellings each, is the
        # slowest sixth: a block of like instances for the tail percentile
        for t in range(4):
            m, votes = ring(100)
            out.append(_draft(f"{shape}100.{t}-pav", "pav", 33, m, votes, "deg2"))
    return out


# (m, n, max_dv, max_dc, k, rule, draws): fixed shapes, chosen so that every
# seed meets the same mix of routes
FPT_STRATA = (
    (20, 14, 4, 4, 6, "mav", 3),
    (24, 24, 3, 3, 3, "mav", 3),
    (12, 20, 4, 4, 8, "mav", 3),
    (12, 20, 4, 4, 8, "ccav", 3),
    (20, 12, 3, 3, 5, "ccav", 3),
    (20, 20, 3, 4, 4, "pav", 3),
    (16, 11, 4, 4, 5, "pav", 3),
    (14, 10, 3, 3, 5, "pav", 3),
    (24, 26, 5, 5, 5, "pav", 3),
    # no route fits the cost caps: brute-force fallback (m <= 22)
    (18, 22, 5, 5, 4, "mav", 3),
    (22, 36, 6, 6, 4, "ccav", 3),
)

# (m, n, max_dv, max_dc, k, rule, base seed, labellings): one election each
# that dispatch leaves to brute force, whose cost C(m, k) * n does not depend
# on labels; drawn often enough to hold the median and the tail rank, which
# would otherwise fall on whichever search happens to rank there
FPT_BLOCKS = (
    ("median", 12, 24, 6, 6, 4, "mav", 99, 12),
    ("tail", 16, 24, 5, 5, 4, "pav", 98, 7),
)


def _fpt_mixed(rng):
    """Fixed base elections per slot; the seed relabels candidates and reorders
    votes.  Search costs here are heavy-tailed in the election's structure, so
    fresh structures per seed would swamp every summary statistic."""
    out = []
    for s, (m, n, dv, dc, k, rule, draws) in enumerate(FPT_STRATA):
        for t in range(draws):
            votes = _relabel(rng, m, generate(m, n, dv, dc, 1000 * s + t))
            out.append(_draft(f"s{s:02d}.{t}-{rule}", rule, k, m, votes, "exhaustive"))
    for name, m, n, dv, dc, k, rule, seed, labellings in FPT_BLOCKS:
        base = generate(m, n, dv, dc, seed)
        for t in range(labellings):
            out.append(_draft(f"{name}{t}-{rule}", rule, k, m, _relabel(rng, m, base),
                              "exhaustive"))
    for i, (source, rule) in enumerate((("vc", "mav"), ("ids", "ccav"), ("pvc", "ccav"),
                                        ("mvs", "pav"))):
        for t in range(3):
            degree, nv, kappa = (3, 4)[t % 2], (10, 12, 14)[t], 3 + t
            g = nx.random_regular_graph(degree, nv, seed=100 * i + t)
            votes = _relabel(rng, nv, sorted(tuple(sorted(e)) for e in g.edges()))
            if source in ("vc", "ids"):
                # kappa is set from the graph's independence number in finish
                out.append(_draft(f"{source}{t}-{rule}", rule, None, nv, votes, source))
            else:
                k = kappa if source == "pvc" else nv - kappa
                out.append(_draft(f"{source}{t}-{rule}", rule, k, nv, votes, "exhaustive"))
    # the refused instance of the project roadmap, verbatim:
    # gen --m 23 --n 21 --max-dv 4 --max-dc 4 --seed 0 --rule pav --k 5 --d 10
    out.append(_draft("roadmap4-pav", "pav", 5, 23, generate(23, 21, 4, 4, 0),
                      "exhaustive", fixed=Fraction(10)))
    return out


TW_SLOTS = {2: 6, 3: 6, 4: 8, 5: 10, 6: 10}  # instances per min-fill width
TW_SHAPES = {2: (2, 2), 3: (3, 2), 4: (3, 3), 5: (4, 3), 6: (4, 4)}


def _tw_base(width, slot):
    """The slot-th base election whose networkx min-fill width is ``width``."""
    pick = random.Random(f"tw/{width}/{slot}")
    dv, dc = TW_SHAPES[width]
    while True:
        m, n = pick.randint(12, 22), pick.randint(10, 24)
        votes = generate(m, n, pick.randint(dv, dv + 1), pick.randint(dc, dc + 1),
                         pick.randrange(2**32))
        if incidence_width(m, votes) == width:
            return m, votes


def _tw_forced(rng):
    """Fixed base elections of min-fill width 2..6, relabelled by the seed;
    rule and k follow a fixed pattern, so every seed asks for the same table
    sizes up to decomposition tie-breaks.  The slowest sixth is one width-6
    PAV election in eight labellings: its DP cost barely depends on the
    labelling, so the tail percentile lands inside a block of like instances
    instead of on whichever random instance happens to rank there."""
    out = []
    for width, count in TW_SLOTS.items():
        for slot in range(count):
            m, votes = _tw_base(width, slot)
            rule, k = RULES[slot % 3], 3 + slot % 4
            out.append(_draft(f"w{width}-{slot}-{rule}", rule, k, m, _relabel(rng, m, votes),
                              "exhaustive", algo=TW_ALGO[rule]))
    m, votes = _tw_base(6, 100)
    for t in range(8):
        out.append(_draft(f"heavy-{t}-pav", "pav", 4, m, _relabel(rng, m, votes), "exhaustive",
                          algo=TW_ALGO["pav"]))
    return out


def _near_path(n):
    """Votes j approve {j, j+1}; every 50th also approves a fresh candidate.

    Labels stay in path order: that order is what drives the augmenting
    paths of a depth-first matching as deep as the path is long.
    """
    m = n + 1
    votes = []
    for j in range(n):
        v = [j, j + 1]
        if j % 50 == 0:
            v.append(m)
            m += 1
        votes.append(tuple(v))
    return m, tuple(votes)


def _dual_scale(rng):
    """Fixed large random elections, relabelled by the seed, with kbar = 2 for
    MAV and CCAV and d = 3 for PAV, plus two near-paths in path order."""
    out = []
    for size in (150, 160, 170, 180):
        for i, rule in enumerate(RULES):
            votes = _relabel(rng, size, generate(size, size, 4, 4, 10 * size + i))
            if rule == "pav":
                for k in (5, 8):
                    out.append(_draft(f"rnd{size}-pav-k{k}", rule, k, size, votes,
                                      "greedy", low=Fraction(3)))
            else:
                out.append(_draft(f"rnd{size}-{rule}", rule, size - 2, size, votes,
                                  "exclusion"))
    for n in (150, 1200):
        m, votes = _near_path(n)
        out.append(_draft(f"nearpath{n}-pav", "pav", 6, m, votes, "greedy", low=Fraction(3)))
    return out


DRAFTERS = {
    "deg2-large": _deg2_large,
    "fpt-mixed": _fpt_mixed,
    "tw-forced": _tw_forced,
    "dual-scale": _dual_scale,
}


def drafts(workload, seed):
    return DRAFTERS[workload](random.Random(f"{workload}/{seed}"))


# ---------------------------------------------------------------------------
# Ground truth and instances
# ---------------------------------------------------------------------------

def _independence_number(nv, edges):
    g = nx.empty_graph(nv)
    g.add_edges_from(edges)
    return len(nx.max_weight_clique(nx.complement(g), weight=None)[0])


def truth_of(draft):
    """Ground truth facts for a draft, as a JSON-ready dict of strings."""
    m, votes, rule, k = draft["m"], draft["votes"], draft["rule"], draft["k"]
    method = draft["truth"]
    if method in ("vc", "ids"):
        return {"alpha": _independence_number(m, votes), "source": "networkx clique"}
    if method == "greedy":
        w = checker.greedy_committee(m, votes, k)
        return {"lower": str(checker.score(votes, rule, w)), "source": "greedy committee"}
    solve = {
        "exhaustive": checker.exhaustive_opt,
        "deg2": checker.deg2_opt,
        "exclusion": checker.exclusion_opt,
    }[method]
    return {"opt": str(solve(m, votes, rule, k)), "source": method}


def _case(draft, name, k, d, decision, opt=None, lower=None, source=""):
    return {
        "name": name, "algo": draft["algo"], "rule": draft["rule"], "k": k, "d": d,
        "m": draft["m"], "votes": draft["votes"], "decision": decision, "opt": opt,
        "lower": lower, "source": source,
        "text": format_instance(draft["rule"], k, d, draft["m"], draft["votes"]),
    }


def finish(draft, truth):
    """The instances of one draft: a yes/no pair at the optimum, or one case."""
    rule, name, source = draft["rule"], draft["name"], truth["source"]
    if "alpha" in truth:
        nv, ne, alpha = draft["m"], len(draft["votes"]), truth["alpha"]
        if draft["truth"] == "vc":  # a cover of size nv - alpha is the smallest
            tau = nv - alpha
            return [_case(draft, f"{name}-yes", tau, Fraction(tau), True, source=source),
                    _case(draft, f"{name}-no", tau - 1, Fraction(tau - 1), False, source=source)]
        full = Fraction(ne)  # ids: an independent set of size kappa <=> coverage ne
        return [_case(draft, f"{name}-yes", nv - alpha, full, True, opt=full, source=source),
                _case(draft, f"{name}-no", nv - alpha - 1, full, False, source=source)]
    k = draft["k"]
    if "lower" in truth:
        lower = Fraction(truth["lower"])
        d = min(draft["low"], lower)
        return [_case(draft, name, k, d, True, lower=lower, source=source)]
    opt = Fraction(truth["opt"])
    if draft["fixed"] is not None:
        d = draft["fixed"]
        return [_case(draft, name, k, d, checker.meets(rule, opt, d), opt=opt, source=source)]
    past = {"mav": opt - 1, "ccav": opt + 1, "pav": opt + PAV_STEP}[rule]
    return [_case(draft, f"{name}-yes", k, opt, True, opt=opt, source=source),
            _case(draft, f"{name}-no", k, past, False, opt=opt, source=source)]

