"""Converters from graph problems to winner-determination instances.

Used as instance generators for cross-validation.  Graphs travel as
(num_vertices, ordered edge list) pairs; candidate and vote indices follow
the input vertex and edge order.
"""

from __future__ import annotations

from fractions import Fraction

from .core import CCAV, Election, FormatError, Instance, MAV, PAV


def parse_graph(text):
    """Edge-list format: `p <n> <m>` header, `e <u> <v>` lines, 1-indexed."""
    n = None
    declared = None
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] not in ("p", "e"):
            raise FormatError(f"bad graph line {line!r}")
        try:
            a, b = map(int, fields[1:])
        except ValueError:
            raise FormatError(f"bad graph line {line!r}: need two integers") from None
        if fields[0] == "p":
            if n is not None:
                raise FormatError(f"repeated graph header {line!r}")
            n, declared = a, b
        elif n is None:
            raise FormatError("edge before header")
        elif not (1 <= a <= n and 1 <= b <= n):
            raise FormatError(f"vertex out of range in {line!r}")
        else:
            edges.append((a - 1, b - 1))
    if n is None:
        raise FormatError("missing graph header")
    if declared != len(edges):
        raise FormatError(f"header declares {declared} edges, found {len(edges)}")
    return n, edges


def _edge_election(n, edges):
    return Election(m=n, votes=tuple(frozenset(e) for e in edges))


def vc_to_mav(n, edges, kappa):
    """Vertex cover of size kappa exists iff the MAV instance is a yes.

    Vertices become candidates, edges become 2-candidate votes; with k = d =
    kappa a committee is within distance d of a vote exactly when it hits it.
    """
    return Instance(
        election=_edge_election(n, edges), rule=MAV, k=kappa, d=Fraction(kappa)
    )


def ids_to_ccav(n, edges, kappa):
    """Independent set of size kappa, phrased via the complement committee."""
    if kappa > n:
        raise ValueError("kappa exceeds vertex count")
    return Instance(
        election=_edge_election(n, edges),
        rule=CCAV,
        k=n - kappa,
        d=Fraction(len(edges)),
    )


def mvs_to_pav(n, edges, kappa, ell):
    """Deleting kappa vertices of an r-regular graph leaves <= ell edges
    iff the PAV instance is a yes; the threshold is (n-kappa)*r - ell/2."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if n == 0:
        raise ValueError("empty graph is not regular")
    r = degree[0]
    if any(dg != r for dg in degree):
        raise ValueError("graph is not regular")
    if not kappa < n:
        raise ValueError("need kappa < vertex count")
    d = Fraction((n - kappa) * r) - Fraction(ell, 2)
    return Instance(election=_edge_election(n, edges), rule=PAV, k=n - kappa, d=d)


def pvc_to_ccav(n, edges, kappa, ell):
    """kappa vertices covering at least ell edges iff the CCAV instance is a yes."""
    return Instance(
        election=_edge_election(n, edges), rule=CCAV, k=kappa, d=Fraction(ell)
    )
