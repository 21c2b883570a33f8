"""Ground truth for winner determination by exhaustive enumeration.

Slow on purpose; every other solver is validated against it.
"""

from __future__ import annotations

from fractions import Fraction

from .core import MAV, all_committees, meets_threshold, score, SolveResult


class BudgetExceededError(RuntimeError):
    """Enumeration size beyond the configured budget."""


def brute_force(instance, max_m=22):
    """Exact optimum over all k-committees; witness is the lexicographic first.

    Raises BudgetExceededError when the candidate count exceeds max_m.
    """
    e = instance.election
    if e.m > max_m:
        raise BudgetExceededError(f"m={e.m} exceeds budget {max_m}")
    best = None
    witness = None
    checked = 0
    for w in all_committees(e.m, instance.k):
        s = score(e, instance.rule, w)
        checked += 1
        if best is None or ((s < best) if instance.rule == MAV else (s > best)):
            best = s
            witness = w
    if best is None:
        # k > m cannot happen (Instance invariant); only m=k=0 reaches here
        best = Fraction(0)
        witness = ()
    return SolveResult(
        decision=meets_threshold(instance.rule, best, instance.d),
        opt_score=best,
        witness=witness,
        algorithm="brute_force",
        stats={"committees": checked},
    )
