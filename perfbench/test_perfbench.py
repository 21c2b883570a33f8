"""Tests of the benchmark itself: inputs, ground truth, checking, tracing."""

from __future__ import annotations

import itertools
import json
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from approvalwd import core, portfolio  # noqa: E402
from approvalwd.oracle import BudgetExceededError  # noqa: E402
from approvalwd.portfolio import AllSolversExceededError  # noqa: E402


def _brute(m, votes, rule, k):
    values = [checker.score(votes, rule, w) for w in itertools.combinations(range(m), k)]
    return min(values) if rule == "mav" else max(values)


# ---------------------------------------------------------------------------
# Inputs are a pure function of the seed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_drafts_are_deterministic(workload):
    assert workloads.drafts(workload, 7) == workloads.drafts(workload, 7)
    assert workloads.drafts(workload, 7) != workloads.drafts(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stored_answers_match_the_default_corpus(workload):
    stored = json.loads(run._stored_path(workload).read_text())
    cases = run.build_cases(workload, run.SPEC["default_seed"], stored)
    assert run.corpus_sha256(cases) == stored["corpus_sha256"]
    assert sum(c["decision"] is True for c in cases) >= len(cases) // 2 - 1


def test_generator_mirrors_the_program():
    for m, n, dv, dc, seed in [(5, 4, 2, 2, 0), (30, 25, 4, 4, 34), (12, 40, 3, 5, 9)]:
        ours = workloads.generate(m, n, dv, dc, seed)
        theirs = portfolio.generate(portfolio.GeneratorConfig(m, n, dv, dc), seed)
        assert [frozenset(v) for v in ours] == list(theirs.votes)
        inst = core.Instance(theirs, "pav", 2, Fraction(7, 3))
        assert workloads.format_instance("pav", 2, Fraction(7, 3), m, ours) == core.format_instance(inst)


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------

def test_own_exact_solvers_agree_with_brute_force():
    rng = random.Random(3)
    for _ in range(150):
        m, n = rng.randint(1, 8), rng.randint(0, 7)
        votes = workloads.generate(m, n, 2, 2, rng.randrange(10**6))
        k = rng.randint(0, m)
        for rule in workloads.RULES:
            want = _brute(m, votes, rule, k)
            assert checker.deg2_opt(m, votes, rule, k) == want
            assert checker.exhaustive_opt(m, votes, rule, k) == want
        dense = workloads.generate(m, n, 4, 4, rng.randrange(10**6))
        if m - k <= 2:
            for rule in ("mav", "ccav"):
                assert checker.exclusion_opt(m, dense, rule, k) == _brute(m, dense, rule, k)


def test_deg2_opt_on_cycles():
    for t in range(3, 8):
        votes = tuple(tuple(sorted((j, (j + 1) % t))) for j in range(t))
        for k in range(t + 1):
            for rule in workloads.RULES:
                assert checker.deg2_opt(t, votes, rule, k) == _brute(t, votes, rule, k)


# ---------------------------------------------------------------------------
# Checking answers
# ---------------------------------------------------------------------------

CASE = {"m": 4, "votes": ((0, 1), (1, 2), (3,)), "rule": "ccav", "k": 2,
        "d": Fraction(3), "decision": True, "opt": Fraction(3), "lower": None}


def test_checker_accepts_a_right_answer():
    assert checker.check(CASE, True, Fraction(3), (1, 3)) == []


def test_checker_flags_a_wrong_verdict():
    assert checker.check(CASE, False, None, None)


def test_checker_flags_a_short_witness():
    assert any("witness" in p for p in checker.check(CASE, True, None, (1,)))


def test_checker_flags_a_wrong_opt_score():
    assert checker.check(CASE, True, Fraction(4), (1, 3))


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


def _program(route):
    cli = SimpleNamespace(
        ALGOS={"auto": route}, BudgetExceededError=BudgetExceededError,
        AllSolversExceededError=AllSolversExceededError, FormatError=core.FormatError,
    )
    return SimpleNamespace(cli=cli)


def _raise(exc):
    def route(instance):
        raise exc
    return route


def _spin(instance):
    while True:
        pass


@pytest.mark.parametrize("route, outcome", [
    (_raise(RecursionError("deep")), "crash"),
    (_raise(KeyError("x")), "crash"),
    (_raise(AllSolversExceededError("no solver")), "refused"),
    (_raise(ValueError("bad")), "error"),
    (_spin, "timeout"),
])
def test_failures_are_outcomes_not_aborts(alarm, route, outcome):
    case = dict(CASE, algo="auto")
    got, result, seconds = run.solve_once(_program(route), case, None, 0.05)
    assert (got, result) == (outcome, None)
    assert seconds < 5
    outcomes = run.Outcomes([case], {0: (got, result, seconds)})
    assert outcomes.decided() == [] and not outcomes.wrong


def test_a_wrong_answer_counts_as_failed(alarm):
    case = dict(CASE, algo="auto")
    wrong = core.SolveResult(True, None, (1,), "planted")
    got = run.solve_once(_program(lambda inst: wrong), case, None, 1)
    outcomes = run.Outcomes([case], {0: got})
    assert list(outcomes.wrong) == [0] and outcomes.decided() == []


# ---------------------------------------------------------------------------
# Statistics and tracing
# ---------------------------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(97) == 89
    for n in range(20, 400):
        p = run.tail_percentile(n)
        beyond = n - run.math.ceil(p * n / 100)
        assert beyond >= 10
        assert n - run.math.ceil((p + 1) * n / 100) < 10
    values = list(range(1, 101))
    assert run.nearest_rank(values, 90) == 90


def test_normalised_time_scales_to_the_reference_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.normalised(0.5, ref, ref) == pytest.approx(0.5)
    # a host at half speed: slices take twice as long, and so does the solve
    assert calibrate.normalised(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert calibrate.normalised(1.0, ref, 3 * ref) == pytest.approx(0.5)
    assert calibrate.slice_s() > 0


def test_calibrated_pass_times_each_instance_between_slices(monkeypatch):
    ref = calibrate.REFERENCE_S
    slices = iter([4 * ref, 2 * ref, 6 * ref])
    monkeypatch.setattr(calibrate, "slice_s", lambda: next(slices))
    monkeypatch.setattr(run, "solve_once", lambda wd, case, inst, limit: ("yes", None, 0.3))
    out = run.run_pass(None, [CASE, CASE], [None, None], 1, calibrated=True)
    assert out[0][2] == pytest.approx(0.3 / 3)
    assert out[1][2] == pytest.approx(0.3 / 4)


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2

    def outer():
        now[0] += 1
        traced_inner()
        now[0] += 3
        traced_inner()

    traced_inner = tracing._wrap(tracer, "inner", True, inner)
    tracing._wrap(tracer, "outer", True, outer)()
    assert tracer.self_s == {"inner": 4, "outer": 4}
    assert tracer.calls == {"inner": 2, "outer": 1}
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    (top,) = by_name["outer"]
    assert top["parent"] is None and top["end"] - top["start"] == 8
    assert all(s["parent"] == top["id"] for s in by_name["inner"])


def test_instrument_counts_and_restores():
    import approvalwd
    import approvalwd.cli

    originals = (approvalwd.cli.ALGOS["auto"], core.Election.approvers, portfolio.compute_params)
    votes = workloads.generate(14, 10, 3, 3, 5)
    inst = core.parse_instance(workloads.format_instance("pav", 4, Fraction(3), 14, votes))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, approvalwd):
        tracer.begin_case("x")
        result = approvalwd.cli.ALGOS["auto"](inst)
    assert checker.check({"m": 14, "votes": votes, "rule": "pav", "k": 4, "d": Fraction(3)},
                         result.decision, result.opt_score, result.witness) == []
    assert tracer.calls["portfolio.dispatch"] == 1
    assert tracer.calls["core.params"] == 1
    assert tracer.counts["portfolio.routes_tried"] >= 1
    assert (approvalwd.cli.ALGOS["auto"], core.Election.approvers,
            portfolio.compute_params) == originals


def test_run_refuses_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "fpt-mixed", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert exc.value.code not in (0, None)
