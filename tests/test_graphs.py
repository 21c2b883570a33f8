import itertools
import random
import re
import sys
import time

import pytest

from approvalwd import Election
from approvalwd.graphs import (
    DecompositionError,
    incidence_graph,
    max_b_matching,
    max_matching,
    min_fill_order,
    multigraph_components,
    multigraph_rep,
    simple_b_edge_cover_exact,
    to_nice,
    tree_decomposition,
    TreeDecomposition,
)
from approvalwd.portfolio import generate, GeneratorConfig

from helpers import (
    adjacency,
    classify_component,
    e1,
    edge_list,
    exact_decomposition,
    exhaustive_b_edge_cover_exists,
    exhaustive_max_matching_size,
    near_path,
    random_election,
    random_graph,
    reference_max_matching,
    reference_min_fill_order,
    reference_nice_validate,
    reference_td_from_elimination_order,
    reference_validate,
)


def _random_simple_graph(rng, max_n=7, p=0.4):
    n, edges = random_graph(rng, max_n=max_n, p=p)
    return adjacency(range(n), edges)


def test_incidence_graph_e1():
    g = incidence_graph(e1())
    # the min-fill numbers its bitmasks, and breaks ties, in this order
    assert list(g) == list(range(6))
    assert edge_list(g) == [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4)]


def test_incidence_graph_degenerate():
    assert incidence_graph(Election(m=0, votes=())) == {}
    star = incidence_graph(Election(m=4, votes=(frozenset(range(4)),)))
    assert edge_list(star) == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_matching_examples():
    assert len(max_matching(incidence_graph(e1()))) == 3
    assert max_matching(adjacency(range(3))) == set()
    triangle = adjacency(edges=[(0, 1), (1, 2), (0, 2)])
    assert len(max_matching(triangle)) == 1


def test_matching_is_valid_and_maximum():
    rng = random.Random(10)
    for _ in range(200):
        g = _random_simple_graph(rng)
        matching = max_matching(g)
        used = set()
        for edge in matching:
            u, v = tuple(edge)
            assert v in g[u]
            assert u not in used and v not in used
            used.update(edge)
        assert len(matching) == exhaustive_max_matching_size(edge_list(g))


def test_max_matching_equals_the_reference():
    rng = random.Random(61)
    cases = [incidence_graph(e) for e in _generated_elections(200)]
    # vote multigraphs, as poly matches them: votes joined by a shared candidate
    for seed in range(200):
        e = generate(GeneratorConfig(m=rng.randint(1, 40), n=rng.randint(1, 40),
                                     max_dv=rng.randint(1, 6), max_dc=2), seed)
        pairs = [ends for ends in multigraph_rep(e) if len(ends) == 2]
        cases.append(adjacency(range(e.n), set(pairs)))
    # general graphs, whose odd cycles make blossoms
    cases += [_random_simple_graph(rng, max_n=30, p=rng.choice((0.05, 0.1, 0.2, 0.4)))
              for _ in range(300)]
    for g in cases:
        assert max_matching(g) == reference_max_matching(g)


def test_max_matching_equals_the_reference_on_sparse_graphs_with_many_blossoms():
    # a contraction puts the tree's inner vertices into the queue in
    # increasing order, as a scan of every vertex would; in another order
    # the search can augment along another path
    rng = random.Random(5)
    for _ in range(400):
        g = _random_simple_graph(rng, max_n=120, p=rng.choice((0.02, 0.04, 0.06, 0.1)))
        assert max_matching(g) == reference_max_matching(g)


def test_max_matching_of_a_disjoint_union_is_the_union_of_its_parts():
    # pav_deg22 matches the whole vote multigraph once and reads each
    # component's matching off it: no search may leave its root's component
    rng = random.Random(62)
    for _ in range(200):
        parts = [_random_simple_graph(rng, max_n=12, p=rng.choice((0.2, 0.3, 0.5)))
                 for _ in range(rng.randint(2, 6))]
        offset, edges, want = 0, [], set()
        for g in parts:
            edges += [(u + offset, v + offset) for u, v in edge_list(g)]
            want |= {frozenset(x + offset for x in edge) for edge in max_matching(g)}
            offset += len(g)
        assert max_matching(adjacency(range(offset), edges)) == want


def test_bipartite_koenig():
    # matching size equals minimum vertex cover size on bipartite graphs
    rng = random.Random(12)
    for _ in range(60):
        e = random_election(rng, max_m=4, max_n=4)
        g = incidence_graph(e)
        alpha = len(max_matching(g))
        verts = sorted(g)
        edges = edge_list(g)
        best = len(verts)
        for r in range(len(verts) + 1):
            found = False
            for cover in itertools.combinations(verts, r):
                cset = set(cover)
                if all(u in cset or v in cset for u, v in edges):
                    found = True
                    break
            if found:
                best = r
                break
        assert alpha == best


def test_multigraph_rep_and_components():
    edges = multigraph_rep(e1())
    assert edges == ((0, 2), (0, 1), (1,))
    comps, free = multigraph_components(3, edges)
    assert free == ()
    assert comps == [(frozenset({0, 1, 2}), (0, 1, 2))]
    with pytest.raises(ValueError, match="candidate 0 approved by 3 votes; not a multigraph"):
        multigraph_rep(Election(m=1, votes=(frozenset({0}),) * 3))


def test_classify_component_examples():
    assert classify_component({0}, {0: (0,)}) == "hairstick"
    assert classify_component({0, 1, 2}, {0: (0, 1), 1: (1, 2)}) == "path"
    assert classify_component({0, 1}, {0: (0, 1), 1: (0,), 2: (1,)}) == "dh-hairstick"
    assert classify_component({0, 1, 2}, {0: (0, 1), 1: (1, 2), 2: (0, 2)}) == "cycle"
    assert classify_component({0}, {}) == "path"
    star = {0: (0, 1), 1: (0, 2), 2: (0, 3)}
    assert classify_component({0, 1, 2, 3}, star) == "other"


def test_classify_never_other_when_degrees_le_2():
    rng = random.Random(13)
    for _ in range(100):
        e = random_election(rng, max_dv=2, max_dc=2)
        edges = multigraph_rep(e)
        comps, _ = multigraph_components(e.n, edges)
        for votes, cands in comps:
            kind = classify_component(votes, {c: edges[c] for c in cands})
            assert kind in ("path", "cycle", "hairstick", "dh-hairstick")


def test_b_edge_cover_examples():
    # two vertices, two parallel edges
    assert simple_b_edge_cover_exact(2, [(0, 1), (0, 1)], [1, 1], 1) is not None
    assert simple_b_edge_cover_exact(2, [(0, 1), (0, 1)], [1, 1], 2) == [0, 1]
    # path u-v-w with f(v)=2 forces both edges
    assert simple_b_edge_cover_exact(3, [(0, 1), (1, 2)], [1, 2, 1], 2) == [0, 1]
    assert simple_b_edge_cover_exact(3, [(0, 1), (1, 2)], [1, 2, 1], 1) is None
    assert simple_b_edge_cover_exact(1, [(0,)], [2], 1) is None


def test_b_edge_cover_against_exhaustive():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 4)
        edges = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.random()
            if kind < 0.15:
                edges.append(())
            elif kind < 0.4:
                edges.append((rng.randrange(n),))
            else:
                u = rng.randrange(n)
                v = rng.randrange(n)
                edges.append((u,) if u == v else tuple(sorted((u, v))))
        degree = [0] * n
        for endpoints in edges:
            for v in set(endpoints):
                degree[v] += 1
        f = [rng.randint(0, degree[v] + 1) for v in range(n)]
        kappa = rng.randint(0, len(edges))
        got = simple_b_edge_cover_exact(n, edges, f, kappa)
        want = exhaustive_b_edge_cover_exists(n, edges, f, kappa)
        assert (got is not None) == want
        if got is not None:
            assert len(got) == kappa


def test_b_matching_respects_caps():
    rng = random.Random(15)
    for _ in range(100):
        n = rng.randint(2, 5)
        edges = []
        for _ in range(rng.randint(0, 6)):
            u, v = rng.sample(range(n), 2)
            edges.append(tuple(sorted((u, v))))
        caps = [rng.randint(0, 3) for _ in range(n)]
        chosen = max_b_matching(n, edges, caps)
        load = [0] * n
        for e in chosen:
            u, v = edges[e]
            load[u] += 1
            load[v] += 1
        assert all(load[v] <= caps[v] for v in range(n))


def test_tree_decomposition_examples():
    path = adjacency(edges=[(0, 1), (1, 2), (2, 3)])
    assert tree_decomposition(path).width() == 1
    k4 = adjacency(edges=[(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert exact_decomposition(k4).width() == 3
    c5 = adjacency(edges=[(i, (i + 1) % 5) for i in range(5)])
    assert exact_decomposition(c5).width() == 2


def test_tree_decomposition_valid():
    rng = random.Random(16)
    for trial in range(100):
        g = _random_simple_graph(rng)
        td = tree_decomposition(g)
        td.validate(g)
        if len(g) <= 8:
            td2 = exact_decomposition(g)
            td2.validate(g)
            assert td2.width() <= td.width()


def test_to_nice_single_vertex():
    td = TreeDecomposition([frozenset({0})], [])
    ntd = to_nice(td)
    kinds = [x.kind for x in ntd.postorder()]
    assert kinds == ["leaf", "introduce", "forget"]
    assert not ntd.root.bag


def test_to_nice_properties():
    rng = random.Random(17)
    for _ in range(100):
        g = _random_simple_graph(rng)
        td = tree_decomposition(g)
        ntd = to_nice(td)
        ntd.validate(g)
        assert ntd.width() == td.width()
        forgotten = [x.vertex for x in ntd.postorder() if x.kind == "forget"]
        assert sorted(forgotten) == sorted(g)
        assert len(forgotten) == len(set(forgotten))


def test_to_nice_deep_path_keeps_the_recursion_limit(monkeypatch):
    # a path decomposition rooted at one end is deeper than the recursion limit
    n = sys.getrecursionlimit() + 100

    def refuse(limit):
        raise AssertionError("to_nice changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    g = adjacency(range(n + 1), [(i, i + 1) for i in range(n)])
    td = TreeDecomposition([{i, i + 1} for i in range(n)], range(1, n))
    ntd = to_nice(td)
    ntd.validate(g)
    assert ntd.width() == 1
    # leaf, two introduces, a forget and an introduce per tree edge, two forgets
    assert len(ntd.postorder()) == 2 * n + 3


def _generated_elections(count):
    for seed in range(count):
        rng = random.Random(seed)
        config = GeneratorConfig(m=rng.randint(1, 40), n=rng.randint(0, 40),
                                 max_dv=rng.randint(1, 6), max_dc=rng.randint(1, 6))
        yield generate(config, seed)


def _tie_heavy_graphs():
    """Graphs whose vertices mostly share one (fill, degree) key."""
    for n in range(3, 12):
        yield adjacency(edges=[(i, (i + 1) % n) for i in range(n)])
        yield adjacency(edges=[(u, n + w) for u in range(n // 2) for w in range(n - n // 2)])
        yield adjacency(edges=[(3 * c + i, 3 * c + (i + 1) % 3) for c in range(n) for i in range(3)])
    for r in range(2, 6):
        for c in range(2, 7):
            yield adjacency(edges=[(r * y + x, r * y + x + 1) for y in range(c) for x in range(r - 1)]
                        + [(r * y + x, r * (y + 1) + x) for y in range(c - 1) for x in range(r)])
    for dim in range(1, 6):
        yield adjacency(edges=[(v, v ^ (1 << b)) for v in range(1 << dim) for b in range(dim)
                           if v < v ^ (1 << b)])


def _wide_fill_graphs():
    """Incidence graphs whose eliminations add many fill edges: min-fill
    widths of about 4 to 45."""
    yield incidence_graph(generate(GeneratorConfig(200, 300, 4, 5), 0))
    for seed in range(3):
        yield incidence_graph(generate(GeneratorConfig(80, 120, 4, 4), seed))
        yield incidence_graph(generate(GeneratorConfig(30, 40, 6, 6), seed))
        yield incidence_graph(generate(GeneratorConfig(60, 80, 3, 4), seed))


def test_min_fill_order_matches_the_reference():
    rng = random.Random(19)
    graphs = [incidence_graph(e) for e in _generated_elections(320)]
    graphs += [_random_simple_graph(rng, max_n=14, p=rng.choice((0.2, 0.4, 0.7)))
               for _ in range(200)]
    graphs += list(_tie_heavy_graphs())
    graphs += list(_wide_fill_graphs())
    widths = set()
    for g in graphs:
        order = reference_min_fill_order(g)
        bags = reference_td_from_elimination_order(g, order).bags
        full = min_fill_order(g)
        assert full == (order, bags)
        widest = max(map(len, bags))
        widths.add(widest - 1)
        # a bounded run gives up exactly when some bag is wider than its bound,
        # and otherwise returns the full run
        width = widest - 1
        for max_width in {0, 1, width // 2, width - 1, width, width + 1, rng.randint(0, width)}:
            bounded = min_fill_order(g, max_width)
            if width > max_width:
                assert bounded is None
            else:
                assert bounded == full
    assert max(widths) >= 45


def test_tree_decomposition_matches_the_reference_replay():
    rng = random.Random(23)
    graphs = [incidence_graph(e) for e in _generated_elections(160)]
    graphs += [_random_simple_graph(rng, max_n=14, p=rng.choice((0.2, 0.4, 0.7)))
               for _ in range(150)]
    graphs += list(_tie_heavy_graphs())
    graphs.append({})
    for g in graphs:
        expected = reference_td_from_elimination_order(g, reference_min_fill_order(g))
        got = tree_decomposition(g)
        assert (got.bags, got.parent) == (expected.bags, expected.parent)
    small = [g for g in graphs if len(g) <= 9]
    small += [_random_simple_graph(rng, max_n=9, p=rng.choice((0.2, 0.4, 0.7)))
              for _ in range(60)]
    assert len(small) >= 100
    for g in small:
        exact = exact_decomposition(g)
        exact.validate(g)
        assert exact.width() <= tree_decomposition(g).width()
        if len(g) <= 6:
            # no elimination order is narrower than the exact one
            assert exact.width() == min(
                reference_td_from_elimination_order(g, list(order)).width()
                for order in itertools.permutations(sorted(g))
            )


def test_min_fill_order_on_a_long_near_path_is_fast():
    g = incidence_graph(near_path(1200))
    start = time.perf_counter()
    order, _ = min_fill_order(g)
    assert time.perf_counter() - start < 1.0
    assert sorted(order) == sorted(g)


def _perturbed(td, g, rng):
    """`td` with one of three defects planted, if the graph allows it."""
    bags = [set(b) for b in td.bags]
    kind = rng.choice(("drop", "uncover", "split"))
    if kind == "drop":
        x = rng.choice([i for i, b in enumerate(bags) if b] or [0])
        if bags[x]:
            bags[x].discard(rng.choice(sorted(bags[x])))
    elif kind == "uncover":
        lone = [(u, v, [i for i, b in enumerate(bags) if u in b and v in b])
                for u, v in edge_list(g)]
        lone = [(u, v, xs[0]) for u, v, xs in lone if len(xs) == 1]
        if lone:
            u, v, x = rng.choice(lone)
            bags[x].discard(rng.choice((u, v)))
    else:
        v = rng.choice(sorted(set().union(*bags)) or [0])
        holding = {i for i, b in enumerate(bags) if v in b}
        near = holding | {p for i, p in enumerate(td.parent) if i in holding} | {
            i for i, p in enumerate(td.parent) if p in holding}
        far = [i for i in range(len(bags)) if i not in near]
        if far:
            bags[rng.choice(far)].add(v)
    return TreeDecomposition(bags, td.parent)


def _verdict(check, *args):
    try:
        check(*args)
    except DecompositionError as exc:
        return str(exc)
    return None


def test_validators_agree_with_the_reference():
    rng = random.Random(20)
    graphs = [_random_simple_graph(rng, max_n=10) for _ in range(150)]
    graphs += [incidence_graph(e) for e in _generated_elections(150)]
    rejected = 0
    for g in graphs:
        td = tree_decomposition(g)
        for cand in [td] + [_perturbed(td, g, rng) for _ in range(3)]:
            want = _verdict(reference_validate, cand.bags, enumerate(cand.parent), g)
            assert (_verdict(cand.validate, g) is None) == (want is None)
            # an adjacency mapping may list each edge from one end only
            one_end = {v: [u for u in nb if u > v] for v, nb in g.items()}
            assert (_verdict(cand.validate, one_end) is None) == (want is None)
            # the nice tree of a defective decomposition keeps its defect
            ntd = to_nice(cand)
            want_nice = _verdict(reference_nice_validate, ntd, g)
            assert (_verdict(ntd.validate, g) is None) == (want_nice is None) == (want is None)
            rejected += want is not None
    assert rejected > 300


@pytest.mark.parametrize("bags, message", [
    ([{1}, {1, 2}, {2, 3}], "vertex 0 in no bag"),
    ([{0, 1}, {1}, {2, 3}], "edge (1, 2) covered by no bag"),
    ([{0, 1}, {1, 2}, {0, 2, 3}], "occurrences of 0 not connected"),
])
def test_each_defect_is_rejected_by_both_validators(bags, message):
    path = adjacency(edges=[(0, 1), (1, 2), (2, 3)])
    td = TreeDecomposition(bags, [1, 2])
    with pytest.raises(DecompositionError, match=re.escape(message)):
        reference_validate(td.bags, enumerate(td.parent), path)
    with pytest.raises(DecompositionError, match=re.escape(message)):
        td.validate(path)
    with pytest.raises(DecompositionError, match=re.escape(message)):
        to_nice(td).validate(path)


@pytest.mark.parametrize("bags, parent", [
    pytest.param([], [], id="no-root"),
    pytest.param([{0}, {0}, {0}], [2], id="bag-without-parent"),
    pytest.param([{0}, {0}, {0}], [2, 2, 2], id="root-with-parent"),
    pytest.param([{0}, {0}, {0}], [0, 2], id="own-parent"),
    pytest.param([{0}, {0}, {0}], [2, 0], id="earlier-parent"),
    pytest.param([{0}, {0}, {0}], [1, 0], id="cycle-missing-the-root"),
    pytest.param([{0}, {0}, {0}], [1, 3], id="parent-past-the-last-bag"),
    pytest.param([{0}, {0}, {0}], [1, -1], id="negative-parent"),
])
def test_a_parent_list_that_is_not_children_first_is_rejected(bags, parent):
    with pytest.raises(DecompositionError):
        TreeDecomposition(bags, parent)


def test_every_min_fill_bag_holds_its_parent_bag_and_its_own_vertex():
    # the treewidth DP folds each leaf bag into its parent on this: bag i
    # lies within its later parent's bag but for the i-th eliminated vertex
    rng = random.Random(25)
    graphs = [incidence_graph(e) for e in _generated_elections(200)]
    graphs += list(_wide_fill_graphs()) + list(_tie_heavy_graphs())
    graphs += [_random_simple_graph(rng, max_n=14, p=rng.choice((0.2, 0.4, 0.7)))
               for _ in range(150)]
    for g in graphs:
        order, _ = min_fill_order(g)
        td = tree_decomposition(g)
        for i, p in enumerate(td.parent):
            assert p > i
            assert td.bags[i] - td.bags[p] == {order[i]}


def test_bipartite_matching_size_matches_networkx():
    nx = pytest.importorskip("networkx")
    for e in _generated_elections(150):
        g = incidence_graph(e)
        h = nx.Graph()
        h.add_nodes_from(g)
        h.add_edges_from(edge_list(g))
        # the matching maps each matched vertex to its mate, so holds each edge twice
        want = len(nx.bipartite.maximum_matching(h, top_nodes=range(e.m))) // 2
        assert len(max_matching(g)) == want


def test_general_matching_size_matches_networkx():
    # odd cycles make blossoms: odd cycles with a pendant at every vertex
    # (each cycle vertex matches its pendant), odd cycles sharing a vertex, the
    # Petersen graph and random graphs, sparse and dense; networkx's weighted
    # blossom algorithm, at maximum cardinality, gives the size
    nx = pytest.importorskip("networkx")
    rng = random.Random(71)
    cases = [nx.petersen_graph()]
    for n in (3, 5, 7, 9):
        flower = nx.cycle_graph(n)
        flower.add_edges_from((v, n + v) for v in range(n))
        cases += [flower, nx.cycle_graph(n)]
    for a, b in ((3, 3), (3, 5), (5, 7)):
        bowtie = nx.cycle_graph(a)
        bowtie.add_edges_from((a - 1 + i, a + i) for i in range(b - 1))
        bowtie.add_edge(a + b - 2, a - 1)
        cases.append(bowtie)
    cases += [nx.gnp_random_graph(rng.randint(2, 40), rng.choice((0.05, 0.1, 0.2, 0.5)),
                                  seed=rng.randrange(10**6)) for _ in range(200)]
    for h in cases:
        g = adjacency(h.nodes, h.edges)
        matching = max_matching(g)
        ends = [v for edge in matching for v in edge]
        assert len(ends) == len(set(ends))
        assert all(len(edge) == 2 and h.has_edge(*edge) for edge in matching)
        assert len(matching) == len(nx.max_weight_matching(h, maxcardinality=True))
