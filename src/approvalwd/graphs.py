"""Graph machinery: incidence graphs, matchings, b-edge covers, tree decompositions.

Vertices are nonnegative integers throughout, and a graph is its adjacency
mapping: each vertex maps to the set of its neighbours.  The incidence graph
of an election uses 0..m-1 for candidates and m..m+n-1 for votes; its vote
multigraph is a tuple of edges over the votes, read beside the vote count n.
"""

from __future__ import annotations

import heapq

from .core import checked_witness


class DecompositionError(ValueError):
    """Raised when a (nice) tree decomposition fails validation."""


def incidence_graph(election):
    """The adjacency mapping of the bipartite graph joining vote-vertex m+j to
    candidate-vertex c iff c in v_j, with vertices 0..m+n-1 inserted in order."""
    m = election.m
    adj = {c: set() for c in range(m)}
    for j, v in enumerate(election.votes):
        adj[m + j] = set(v)
        for c in v:
            adj[c].add(m + j)
    return adj


# ---------------------------------------------------------------------------
# Maximum matching
# ---------------------------------------------------------------------------

def max_matching(adj):
    """A maximum-cardinality matching of the graph with adjacency mapping
    ``adj``, as a set of frozenset edges: ``_mates`` on its vertices in
    increasing order."""
    verts = sorted(adj)
    index = {v: i for i, v in enumerate(verts)}.__getitem__
    mate = _mates([sorted(map(index, adj[v])) for v in verts])
    return {frozenset((verts[v], verts[w])) for v, w in enumerate(mate) if v < w}


def _mates(adj):
    """Each vertex's mate, or -1, in a maximum matching of the graph on
    0..len(adj)-1 whose vertex v has the increasing neighbour list adj[v].

    One greedy pass in vertex order gives each free vertex its smallest free
    neighbour; Edmonds' blossom search then grows an alternating tree from
    each vertex still free.  The search is iterative, and on a bipartite
    graph, such as an incidence graph, no blossom ever forms.  Every step of
    a search, a blossom's contraction included, touches only the vertices of
    its own tree, so a search never leaves its root's component and the
    matching of a disjoint union is the union of its parts' matchings.
    """
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v], match[w] = w, v
                    break

    # the search arrays serve every root: after each search, only the entries
    # of the vertices its alternating tree reached are reset
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))

    def mark_path(v, b, child, blossom):
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[child]

    def find_augmenting_path(root):
        """Augment from root if possible; return the tree's vertices, outer and inner."""
        used[root] = True
        queue = [root]  # every outer vertex, in the order searched
        inner = []
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # the blossom's base: the first base on to's path to the
                    # root that is also on v's
                    seen = set()
                    a = v
                    while True:
                        a = base[a]
                        seen.add(a)
                        if match[a] == -1:
                            break
                        a = parent[match[a]]
                    b = to
                    while True:
                        b = base[b]
                        if b in seen:
                            break
                        b = parent[match[b]]
                    blossom = set()
                    mark_path(v, b, to, blossom)
                    mark_path(to, b, v, blossom)
                    # only tree vertices have bases in the blossom; the inner
                    # ones among them join the queue in increasing order
                    grown = []
                    for tree in (queue, inner):
                        for i in tree:
                            if base[i] in blossom:
                                base[i] = b
                                if not used[i]:
                                    used[i] = True
                                    grown.append(i)
                    grown.sort()
                    queue += grown
                elif parent[to] == -1:
                    parent[to] = v
                    inner.append(to)
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv, next_u = parent[u], match[parent[u]]
                            match[u], match[pv] = pv, u
                            u = next_u
                        return queue + inner
                    used[match[to]] = True
                    queue.append(match[to])
        return queue + inner

    for v in range(n):
        if match[v] == -1 and adj[v]:
            for u in find_augmenting_path(v):
                used[u], parent[u], base[u] = False, -1, u
    return match


# ---------------------------------------------------------------------------
# Multigraph representation of an election (votes = vertices, candidates = edges)
# ---------------------------------------------------------------------------

def multigraph_rep(election):
    """The vote multigraph: each candidate's edge joins the votes in V(c).

    Returns the tuple of edges, edges[c] the increasing tuple of the votes
    approving candidate c: with every candidate approved by at most two votes
    a multigraph with loops, whose edges have 0, 1 or 2 endpoints.  Raises
    ValueError when a candidate is approved by more than two votes.
    """
    edges = election.approver_sets()
    for c, endpoints in enumerate(edges):
        if len(endpoints) > 2:
            raise ValueError(
                f"candidate {c} approved by {len(endpoints)} votes; not a multigraph"
            )
    return tuple(map(tuple, edges))


def _find(parent, x):
    """x's root in the union-find forest ``parent``, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def multigraph_components(n, edges):
    """Connected components of the n vote vertices of the vote multigraph
    ``edges``, plus zero-endpoint candidates.

    Returns (components, free_candidates) where each component is a pair
    (frozenset of vote indices, tuple of candidate indices).
    """
    parent = list(range(n))
    free = []
    for c, endpoints in enumerate(edges):
        if not endpoints:
            free.append(c)
        else:
            r = _find(parent, endpoints[0])
            for v in endpoints[1:]:
                parent[_find(parent, v)] = r
    groups = {}
    for v in range(n):
        groups.setdefault(_find(parent, v), []).append(v)
    cands = {}
    for c, endpoints in enumerate(edges):
        if endpoints:
            cands.setdefault(_find(parent, endpoints[0]), []).append(c)
    comps = [
        (frozenset(groups[root]), tuple(cands.get(root, ())))
        for root in sorted(groups)
    ]
    return comps, tuple(free)


# ---------------------------------------------------------------------------
# Simple b-matching and exact simple b-edge cover
# ---------------------------------------------------------------------------

def max_b_matching(num_vertices, edges, caps):
    """Maximum simple b-matching of a loopless multigraph via vertex splitting.

    Each vertex v is split into caps[v] copies; each edge gets two inner nodes
    wired to its endpoints' copies.  A maximum matching of the gadget selects
    the b-matching edges as those whose inner nodes are both matched outward.
    The gadget numbers the copies first, then each edge's two inner nodes, so
    its increasing adjacency lists are built as they are.  Returns a sorted
    list of selected edge indices.
    """
    copies = []
    start = 0
    for v in range(num_vertices):
        copies.append(range(start, start + caps[v]))
        start += caps[v]
    adj = [[] for _ in range(start)]
    for e, (u, v) in enumerate(edges):
        a = start + 2 * e
        for i in copies[u]:
            adj[i].append(a)
        for i in copies[v]:
            adj[i].append(a + 1)
        adj.append([*copies[u], a + 1])
        adj.append([*copies[v], a])
    mate = _mates(adj)
    # an inner node's only neighbours besides its twin are copies, below start
    return [e for e in range(len(edges))
            if 0 <= mate[start + 2 * e] < start and 0 <= mate[start + 2 * e + 1] < start]


def simple_b_edge_cover_exact(num_vertices, edges, f, kappa):
    """Exactly kappa edges covering every vertex v at least f(v) times, or None.

    `edges` is a list of endpoint tuples of length 0, 1 (loop; counts once
    toward incidence), or 2.  Solved through the complement: a kappa-edge cover
    exists iff a simple b-matching of size |edges| - kappa with capacities
    deg(v) - f(v) exists, and b-matchings are downward closed.
    """
    if kappa < 0 or kappa > len(edges):
        return None
    degree = [0] * num_vertices
    for endpoints in edges:
        for v in set(endpoints):
            degree[v] += 1
    if any(f[v] > degree[v] for v in range(num_vertices)):
        return None
    target = len(edges) - kappa
    caps = [degree[v] - f[v] for v in range(num_vertices)]

    empty = [e for e, endpoints in enumerate(edges) if not endpoints]
    proper = [e for e, endpoints in enumerate(edges) if endpoints]
    # loops become edges to fresh capacity-1 dummy vertices
    gadget_edges = []
    gadget_caps = list(caps)
    for e in proper:
        endpoints = sorted(set(edges[e]))
        if len(endpoints) == 1:
            dummy = len(gadget_caps)
            gadget_caps.append(1)
            gadget_edges.append((endpoints[0], dummy))
        else:
            gadget_edges.append((endpoints[0], endpoints[1]))
    best = max_b_matching(len(gadget_caps), gadget_edges, gadget_caps)

    need_proper = max(0, target - len(empty))
    if need_proper > len(best):
        return None
    drop = {proper[i] for i in sorted(best)[:need_proper]}
    drop.update(empty[: target - need_proper])
    cover = sorted(set(range(len(edges))) - drop)

    hit = [0] * num_vertices
    for e in cover:
        for v in set(edges[e]):
            hit[v] += 1
    return checked_witness(
        cover,
        lambda w: len(w) == kappa and all(hit[v] >= f[v] for v in range(num_vertices)),
        "simple_b_edge_cover_exact",
    )


# ---------------------------------------------------------------------------
# Tree decompositions
# ---------------------------------------------------------------------------

class TreeDecomposition:
    """Rooted tree of bags over graph vertices, children first: every bag
    but the last, the root, has the later bag ``parent[i]`` as its parent."""

    def __init__(self, bags, parent):
        self.bags = [frozenset(b) for b in bags]
        self.parent = list(parent)
        n = len(self.bags)
        if not n or len(self.parent) != n - 1:
            raise DecompositionError("a tree of bags needs a parent for every bag but the last")
        self.root = n - 1
        self._children = kids = [[] for _ in range(n)]
        for i, p in enumerate(self.parent):
            if p not in range(i + 1, n):
                raise DecompositionError(f"bag {i} has parent {p!r}, not a later bag")
            kids[p].append(i)

    def children(self, x):
        return self._children[x]

    def width(self):
        return max((len(b) for b in self.bags), default=0) - 1

    def validate(self, adj):
        """Check the three decomposition conditions against the adjacency
        mapping ``adj``, which holds every vertex and lists each edge from at
        least one end."""
        bags = self.bags
        _check_bags(adj, bags[self.root], ((bags[i], bags[p]) for i, p in enumerate(self.parent)))


def _check_bags(adj, root_bag, bags_and_parents):
    """The decomposition conditions, from the root bag and each other bag
    paired with its parent's, against ``adj``, which may list an edge from
    one end only.  A pair whose bag lies within its parent's adds nothing
    and may be left out.

    A vertex's bags are connected iff exactly one of them, its top bag, is
    the root or has a parent bag that lacks it.  Of two connected
    subtrees that meet, one holds the other's top node, so an edge is covered
    iff one end lies in the other end's top bag.
    """
    top = dict.fromkeys(root_bag, root_bag)
    split = set()
    for bag, parent in bags_and_parents:
        for v in bag - parent:
            if v in top:
                split.add(v)
            top[v] = bag
    for v in adj:
        if v not in top:
            raise DecompositionError(f"vertex {v} in no bag")
    if split:
        raise DecompositionError(f"occurrences of {min(split)} not connected")
    for u, nb in adj.items():
        top_u = top[u]
        for v in nb:
            if v not in top_u and u not in top[v]:
                raise DecompositionError(f"edge {(min(u, v), max(u, v))} covered by no bag")


def min_fill_order(adj, max_width=None):
    """Elimination ordering by minimum fill-in, ties by degree then index.

    Returns (order, bags): bag i is the i-th eliminated vertex with its
    neighbourhood then, frozen at once rather than kept as the popped
    adjacency set, whose table earlier fill edges may have grown.  Given
    ``max_width``, it returns None instead as soon as a bag would hold more
    than max_width + 1 vertices, before that vertex is eliminated.

    Beside each adjacency set sits the same neighbourhood as an int mask, so
    the fill of u, the pairs of its d neighbours that are not adjacent, is
    (d(d - 1) - sum over neighbours w of |N(w) & N(u)|) / 2 by popcounts.
    Each vertex's (fill, degree, vertex) key sits in a lazy heap.
    Eliminating v changes the degree only of v's neighbours, and the fill of
    any other vertex only through the pairs of v's neighbours that it is
    adjacent to, so only the keys of v's neighbours and of the vertices with
    at least two neighbours among them are recomputed; a popped entry that no
    longer equals its vertex's key is stale and skipped.
    """
    adj = {v: set(nb) for v, nb in adj.items()}
    # an isolated vertex is no vertex's neighbour, now or after any elimination
    one = {v: 1 << i for i, v in enumerate(v for v, nb in adj.items() if nb)}
    bits = dict.fromkeys(adj, 0)
    for v, b in one.items():
        for w in adj[v]:
            bits[w] += b

    def key(u):
        nb = adj[u]
        d = len(nb)
        if d < 2:
            return 0, d, u
        bu = bits[u]
        # every edge among the neighbours is counted from both of its ends
        inner = sum((bits[w] & bu).bit_count() for w in nb)
        return (d * (d - 1) - inner) // 2, d, u

    keys = {u: key(u) for u in adj}
    heap = list(keys.values())
    heapq.heapify(heap)
    order = []
    bags = []
    while heap:
        entry = heapq.heappop(heap)
        v = entry[2]
        if keys.get(v) != entry:
            continue
        if max_width is not None and len(adj[v]) > max_width:
            return None
        del keys[v]
        nb = adj.pop(v)
        nbits = bits.pop(v)
        order.append(v)
        bags.append(frozenset(nb) | {v})
        if len(nb) < 2:
            # no fill edges: only the neighbour's degree changes
            for u in nb:
                adj[u].discard(v)
                bits[u] -= one[v]
            touched = nb
        else:
            gone = one.pop(v)
            second = set()
            for u in nb:
                s = adj[u]
                s |= nb
                s.discard(u)
                s.discard(v)
                # u's mask gained v's other neighbours, u itself among them
                bits[u] = (bits[u] | nbits) - one[u] - gone
                second |= s
            second -= nb
            touched = {u for u in second if (bits[u] & nbits).bit_count() >= 2}
            touched |= nb
        for u in touched:
            new = key(u)
            if new != keys[u]:
                keys[u] = new
                heapq.heappush(heap, new)
    return order, bags


def tree_decomposition(adj, max_width=None):
    """A valid tree decomposition by the min-fill heuristic.

    Bag i is the i-th eliminated vertex with its neighbourhood at that time.
    Its parent is the bag of the earliest eliminated of those neighbours, or
    the last bag, the root, when it has none.  Given ``max_width``, the
    min-fill gives up, and this returns None, at its first bag wider than that.
    """
    found = min_fill_order(adj, max_width)
    if found is None:
        return None
    order, bags = found
    pos = {v: i for i, v in enumerate(order)}
    parent = [min((pos[u] for u in bag if u != v), default=len(order) - 1)
              for v, bag in zip(order, bags[:-1])]
    # a graph without vertices gets one empty bag
    return TreeDecomposition(bags or [frozenset()], parent)


# ---------------------------------------------------------------------------
# Nice tree decompositions
# ---------------------------------------------------------------------------

class NiceNode:
    __slots__ = ("kind", "bag", "children", "vertex")

    def __init__(self, kind, bag, children=(), vertex=None):
        self.kind = kind
        self.bag = frozenset(bag)
        self.children = tuple(children)
        self.vertex = vertex


class NiceTreeDecomposition:
    """Tree decomposition with leaf/introduce/forget/join nodes and empty root bag.

    ``nodes``, where given, lists every node with children before parents,
    as ``to_nice`` builds them.
    """

    def __init__(self, root, nodes=None):
        self.root = root
        self._nodes = nodes

    def postorder(self):
        """Every node, children before parents: the list the tree was built
        with, or a walk of a tree built by hand."""
        if self._nodes is not None:
            return self._nodes
        out = []
        stack = [(self.root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                out.append(node)
            else:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
        return out

    def width(self):
        return max((len(x.bag) for x in self.postorder()), default=0) - 1

    def validate(self, adj=None):
        """Check nice-ness; with an adjacency mapping that holds every vertex
        and lists each edge from at least one end, also check the
        decomposition conditions."""
        nodes = self.postorder()
        if self.root.bag:
            raise DecompositionError("root bag not empty")
        for x in nodes:
            kind = x.kind
            if kind == "leaf":
                if x.children or x.bag:
                    raise DecompositionError("bad leaf node")
            elif kind == "introduce" or kind == "forget":
                if len(x.children) != 1:
                    raise DecompositionError(f"{kind} node needs one child")
                big, small = x.bag, x.children[0].bag
                if kind == "forget":
                    big, small = small, big
                # big is small with the node's vertex added
                v = x.vertex
                if len(big) != len(small) + 1 or v in small or v not in big or not small < big:
                    raise DecompositionError(f"{kind} bags do not differ by its vertex")
            elif kind == "join":
                if len(x.children) != 2:
                    raise DecompositionError("join node needs two children")
                if any(c.bag != x.bag for c in x.children):
                    raise DecompositionError("join bags differ")
            else:
                raise DecompositionError(f"unknown node kind {x.kind!r}")
        if adj is not None:
            # the tree is nice and its root bag empty, so a vertex leaves a
            # bag on the way up only at a forget node
            _check_bags(adj, self.root.bag, (
                (x.children[0].bag, x.bag) for x in nodes if x.kind == "forget"
            ))


def _chain(nodes, node, from_bag, to_bag):
    """Forget then introduce one vertex at a time to turn from_bag into to_bag,
    appending each new node to ``nodes``.

    Introduces go in descending vertex order: in an incidence graph the votes
    come first, so a treewidth DP introduces them while its tables still hold
    few candidate subsets."""
    bag = set(from_bag)
    for v in sorted(from_bag - to_bag):
        bag.discard(v)
        node = NiceNode("forget", bag, (node,), v)
        nodes.append(node)
    for v in sorted(to_bag - from_bag, reverse=True):
        bag.add(v)
        node = NiceNode("introduce", bag, (node,), v)
        nodes.append(node)
    # the last node's bag equals to_bag: hold that object, not a copy
    node.bag = to_bag
    return node


def to_nice(td):
    """Convert to a nice tree decomposition of the same width, which keeps its
    nodes in the order built: children before parents."""
    # a preorder, with an explicit stack: tree depth can far exceed the
    # interpreter's recursion limit on long path-like inputs; reversed, it
    # puts children before parents
    order, stack = [], [td.root]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(td.children(x))
    nodes, built = [], {}
    for x in reversed(order):
        bag = td.bags[x]
        kids = td.children(x)
        if not kids:
            leaf = NiceNode("leaf", frozenset())
            nodes.append(leaf)
            built[x] = _chain(nodes, leaf, frozenset(), bag)
            continue
        subtrees = [_chain(nodes, built.pop(c), td.bags[c], bag) for c in kids]
        acc = subtrees[0]
        for sub in subtrees[1:]:
            acc = NiceNode("join", bag, (acc, sub))
            nodes.append(acc)
        built[x] = acc
    root = _chain(nodes, built[td.root], td.bags[td.root], frozenset())
    return NiceTreeDecomposition(root=root, nodes=nodes)
