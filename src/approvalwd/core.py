"""Election data model, exact rule scoring, parameters, and the .appr text format.

All scores are exact ``fractions.Fraction`` values; nothing here ever touches
floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

MAV = "mav"
CCAV = "ccav"
PAV = "pav"
RULES = (MAV, CCAV, PAV)


class FormatError(ValueError):
    """Raised on malformed .appr input."""


class InternalError(RuntimeError):
    """A solver's own exact check of its answer failed: the program is at fault."""


def checked_witness(witness, accept, what):
    """``witness``, once ``accept(witness)``, the caller's exact re-check, passes.

    For the checks that are not committee checks, which ``answer`` makes:
    a b-edge cover and the matching split's invariant.  They are
    explicit checks that survive ``python -O``: a missing or rejected
    witness raises InternalError.
    """
    if witness is None or not accept(witness):
        raise InternalError(f"{what}: witness fails its exact re-check")
    return witness


@functools.lru_cache(maxsize=None)
def harmonic(i):
    """Sum of 1/j for j in 1..i (0 for i <= 0), as an exact Fraction."""
    scale = lcm_upto(i)
    return Fraction(sum(scale // j for j in range(1, i + 1)), scale)


@dataclass(frozen=True)
class Election:
    """A set of m candidates (indices 0..m-1) and a multiset of approval votes.

    Votes are stored as frozensets of candidate indices; duplicate votes are
    distinct multiset members and keep their positional index.
    """

    m: int
    votes: tuple

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("negative candidate count")
        votes = tuple(frozenset(v) for v in self.votes)
        for v in votes:
            for c in v:
                if not 0 <= c < self.m:
                    raise ValueError(f"candidate index {c} out of range [0, {self.m})")
        object.__setattr__(self, "votes", votes)

    @property
    def n(self):
        return len(self.votes)

    def approvers(self, c):
        """V(c): indices of the votes approving candidate c, by a scan of every vote."""
        return frozenset(j for j, v in enumerate(self.votes) if c in v)

    def approver_sets(self):
        """V(c) for every candidate c, as an increasing list of vote indices.

        One pass over the votes, made afresh on each call: unlike the counts,
        the sets are not kept on the election.
        """
        sets = [[] for _ in range(self.m)]
        for j, v in enumerate(self.votes):
            for c in v:
                sets[c].append(j)
        return sets

    @functools.cached_property
    def approver_counts(self):
        """|V(c)| for every candidate c, as a tuple: counted on first read and kept."""
        counts = [0] * self.m
        for v in self.votes:
            for c in v:
                counts[c] += 1
        return tuple(counts)

    @property
    def delta_v(self):
        return max(map(len, self.votes), default=0)

    @property
    def delta_c(self):
        return max(self.approver_counts, default=0)


@dataclass(frozen=True)
class Instance:
    """A winner-determination question: election, rule, committee size, threshold.

    The decision asked is MAV(V, w) <= d for MAV and score >= d for CCAV/PAV.
    """

    election: Election
    rule: str
    k: int
    d: Fraction

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if not 0 <= self.k <= self.election.m:
            raise ValueError(f"k={self.k} outside [0, {self.election.m}]")
        object.__setattr__(self, "d", Fraction(self.d))


@dataclass(frozen=True)
class Params:
    """Derived parameters of an instance.

    The sizes and degrees are filled in at once, in one pass over the votes.
    The incidence-graph structures, which the routes take from here, are
    computed on first read and kept: ``matching``, a maximum matching, of size
    ``alpha``; ``decomposition``, the min-fill tree decomposition, of width
    ``tw_upper``.  Each builds the incidence graph it needs and lets it go.
    ``decomposition_within`` runs a min-fill that gives up past a width.
    """

    m: int
    n: int
    k: int
    kbar: int
    delta_v: int
    delta_c: int
    election: Election = field(compare=False, repr=False)

    @functools.cached_property
    def matching(self):
        from . import graphs

        return graphs.max_matching(graphs.incidence_graph(self.election))

    @property
    def alpha(self):
        return len(self.matching)

    @functools.cached_property
    def decomposition(self):
        from . import graphs

        return graphs.tree_decomposition(graphs.incidence_graph(self.election))

    def decomposition_within(self, width):
        """``decomposition`` if its width is at most ``width``, else None.

        The min-fill stops at its first bag of more than width + 1 vertices;
        a decomposition it finishes is kept as ``decomposition``.
        """
        from . import graphs

        td = vars(self).get("decomposition")
        if td is None:
            td = graphs.tree_decomposition(graphs.incidence_graph(self.election),
                                           max_width=width)
            if td is None:
                return None
            # the cached_property's own slot, which a frozen dataclass guards
            object.__setattr__(self, "decomposition", td)
        return td if td.width() <= width else None

    @functools.cached_property
    def tw_upper(self):
        return max(self.decomposition.width(), 0)


@dataclass(frozen=True)
class SolveResult:
    decision: bool
    opt_score: Fraction | None
    witness: tuple | None
    algorithm: str
    stats: dict = field(default_factory=dict, compare=False)


def hamming(v, w):
    """|v \\ w| + |w \\ v| for two sets of candidate indices."""
    v = frozenset(v)
    w = frozenset(w)
    return len(v - w) + len(w - v)


def score(election, rule, committee):
    """Exact score of a committee under the given rule, one intersection per vote.

    MAV: max Hamming distance |v| + |w| - 2|v n w| to any vote (0 with no votes).
    CCAV: number of votes intersecting the committee.
    PAV: sum over votes of 1 + 1/2 + ... + 1/|v n w|, as harmonic(x) times
    the number of votes with overlap x.
    """
    w = frozenset(committee)
    if rule == MAV:
        size = len(w)
        return Fraction(max((len(v) + size - 2 * len(v & w) for v in election.votes), default=0))
    if rule == CCAV:
        return Fraction(sum(1 for v in election.votes if v & w))
    if rule == PAV:
        overlaps = Counter(len(v & w) for v in election.votes)
        return sum((harmonic(x) * count for x, count in overlaps.items() if x), Fraction(0))
    raise ValueError(f"unknown rule {rule!r}")


def meets_threshold(rule, value, d):
    """Whether a score satisfies the instance threshold (<= d for MAV, >= d else)."""
    return value <= d if rule == MAV else value >= d


def answer(instance, algorithm, stats, witness=None, opt=None, *, optimal=False):
    """A route's SolveResult, built once its witness passes the one exact check.

    Every route, each called with the Instance it answers, and dispatch's
    score bound return through here.  No witness means "no", except for a
    route that claims an optimum (``opt``, or ``optimal``): there it raises.
    A witness must be k distinct candidates of [0, m); it is re-scored once
    with ``score``, the re-score must lie in the rule's range, and a decision
    route's witness must meet d, an optimum route's must score exactly
    ``opt``, a Fraction.  The routes optimal by construction pass
    ``optimal=True`` and report the re-score as the optimum.  Every failure
    raises InternalError, under ``python -O`` too.
    """
    if witness is None:
        if opt is not None or optimal:
            raise InternalError(f"{algorithm}: an optimum without a witness")
        return SolveResult(False, None, None, algorithm, stats)
    e, rule, k, d = instance.election, instance.rule, instance.k, instance.d
    w = tuple(sorted(witness))
    if not len(w) == len(set(w)) == k or (w and not 0 <= w[0] <= w[-1] < e.m):
        raise InternalError(f"{algorithm}: witness {w} is not {k} distinct candidates "
                            f"of [0, {e.m})")
    s = score(e, rule, w)
    # a vote is at distance at most m and adds at most 1 to CCAV, harmonic(k)
    # to PAV: a re-score outside that range is a fault of the scoring itself
    top = e.m if rule == MAV else e.n * (1 if rule == CCAV else harmonic(k))
    if not 0 <= s <= top:
        raise InternalError(f"{algorithm}: witness {w} re-scores to {s}, outside [0, {top}]")
    if optimal:
        opt = s
    elif opt is None:
        if not meets_threshold(rule, s, d):
            raise InternalError(f"{algorithm}: witness {w} scores {s}, which misses d = {d}")
    elif s != opt:
        raise InternalError(f"{algorithm}: witness {w} scores {s}, not the claimed optimum {opt}")
    return SolveResult(meets_threshold(rule, s, d), opt, w, algorithm, stats)


def compute_params(instance):
    """The parameters of an instance; the incidence-graph ones wait for a read."""
    e = instance.election
    return Params(
        m=e.m,
        n=e.n,
        k=instance.k,
        kbar=e.m - instance.k,
        delta_v=e.delta_v,
        delta_c=e.delta_c,
        election=e,
    )


def class_partition(election, votes=None):
    """The candidates grouped by which of the considered votes approve them.

    ``votes`` is a sequence of vote indices, every vote by default.  Returns
    a tuple of classes (support, members), ordered by their first member:
    support is the frozenset of positions i in ``votes`` such that vote
    votes[i] approves the members, and members the increasing tuple of
    candidates with exactly that support.  Candidates that no considered vote
    approves form the class with the empty support.
    """
    supports = election.approver_sets()
    if votes is not None:
        pos = {j: i for i, j in enumerate(votes)}
        supports = [[pos[j] for j in s if j in pos] for s in supports]
    by_support = {}
    for c, support in enumerate(supports):
        by_support.setdefault(frozenset(support), []).append(c)
    return tuple((support, tuple(members)) for support, members in by_support.items())


def fill_committee(base, k, pool):
    """``base`` topped up to k members from ``pool`` in pool order, as a sorted tuple."""
    w = list(base)
    for c in pool:
        if len(w) == k:
            break
        if c not in w:
            w.append(c)
    return tuple(sorted(w))


def lcm_upto(k):
    """lcm(1..k); PAV scores of k-committees times this value are integers."""
    return math.lcm(*range(1, k + 1))


@functools.lru_cache(maxsize=None)
def scaled_harmonics(k):
    """(scale, hsum): scale = lcm(1..k) and hsum[x] = scale * harmonic(x), 0 <= x <= k.

    The one integer form of PAV values: a vote with overlap x <= k is worth
    hsum[x], so any PAV score of a k-committee is an integer over ``scale``.
    """
    scale = lcm_upto(k)
    return scale, tuple(itertools.accumulate((scale // x for x in range(1, k + 1)), initial=0))


# ---------------------------------------------------------------------------
# .appr text format
# ---------------------------------------------------------------------------

def _content_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def _parse_election_lines(lines):
    """The election of an `m n` header line and one vote line per vote, from
    content lines; no lines at all read as an empty header."""
    head = lines[0] if lines else ""
    header = head.split()
    if len(header) != 2:
        raise FormatError(f"bad header {head!r}")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FormatError(f"bad header {head!r}") from exc
    if m < 0 or n < 0:
        raise FormatError("negative m or n")
    lines = lines[1:]
    if len(lines) < n:
        raise FormatError(f"expected {n} vote lines, found {len(lines)}")
    if len(lines) > n:
        extra = [ln for ln in lines[n:] if ln.strip()]
        if extra:
            raise FormatError("trailing non-empty lines after votes")
    votes = []
    for line in lines[:n]:
        fields = line.split()
        try:
            vote = frozenset(map(int, fields))
        except ValueError as exc:
            raise FormatError(f"bad vote line {line!r}") from exc
        if len(vote) < len(fields):
            raise FormatError(f"vote line {line!r} names a candidate twice")
        votes.append(vote)
    try:
        return Election(m=m, votes=tuple(votes))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_election(text):
    """Parse the line-based election format: `m n` header then one vote per line."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty election file")
    return _parse_election_lines(lines)


def format_election(election):
    lines = [f"{election.m} {election.n}"]
    for v in election.votes:
        lines.append(" ".join(str(c) for c in sorted(v)))
    return "\n".join(lines) + "\n"


def parse_instance(text):
    """Parse an instance file: `rule k d_num d_den` line, then the election."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty instance file")
    fields = lines[0].split()
    if len(fields) != 4:
        raise FormatError(f"bad instance header {lines[0]!r}")
    rule = fields[0]
    if rule not in RULES:
        raise FormatError(f"unknown rule {rule!r}")
    try:
        k = int(fields[1])
        d = Fraction(int(fields[2]), int(fields[3]))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad instance header {lines[0]!r}") from exc
    election = _parse_election_lines(lines[1:])
    try:
        return Instance(election=election, rule=rule, k=k, d=d)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_instance(instance):
    head = f"{instance.rule} {instance.k} {instance.d.numerator} {instance.d.denominator}\n"
    return head + format_election(instance.election)


def all_committees(m, k):
    """All k-committees of [0, m) in lexicographic order, as sorted tuples."""
    return itertools.combinations(range(m), k)
