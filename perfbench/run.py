#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of approvalwd.

Run from the repository root:

    python3 perfbench/run.py --workload fpt-mixed --seed 0 --seconds 24 --trace 0

The workload's corpus is a pure function of the seed.  It is built, with its
independently computed expected answers, by a child process (cached under
perfbench/.work/); answers for the default seed are stored in
perfbench/expected/.  The timed process then parses every instance once and
decides it in-process with ``cli.ALGOS[algo](instance)``, exactly as
``approvalwd solve`` does, in a closed loop: one client, one thread, one
instance at a time.  Passes over the corpus repeat until --seconds have passed
(the first pass always completes).  The first pass is the warm-up: it decides
and checks every instance, and its times count only for an instance that no
later pass reached.  An instance's solve time is the median of its timed
passes.

Every time is scaled to a reference speed (``calibrate``): a shared host
switches between phases up to 2x apart every few seconds, so each solve is
timed between two calibration slices, fixed pure-Python work independent of
approvalwd, and reported as ``elapsed * REFERENCE_S / slice time``, in ms at
the speed at which a slice takes REFERENCE_S.  Set-up time is scaled the same
way inside its fresh process.  The per-layer figures of --trace 1 are raw.

With --trace 0 the last line of output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, from
passes run with approvalwd's functions wrapped by ``tracing.instrument``
(alternating with untraced passes, for the overhead ratio), plus three
one-shot probes.

``correct`` is true when no answer was wrong and ``failed`` counts wrong
answers.  Refusals (exit 3), errors (exit 2), uncaught exceptions and
overruns of the per-instance limit are not wrong answers: they are undecided,
counted by kind, and lower ``decided_ratio``.

Maintainers refresh the stored answers of the default seed with

    python3 perfbench/run.py --workload deg2-large --store-truth
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import calibrate
import checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = tuple(SPEC["limit_s"])
SETUP_REPEATS = 11

END_TO_END = {
    "solve_ms.p50": "ms",
    "solve_ms.tail": "ms",
    "throughput_per_s": "1/s",
    "decided_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit, source): "self" is a tracer self time in ms, "calls" a call
# count, "count" a tracer counter, "outcome" a count of untraced outcomes
PER_LAYER = (
    ("core.parse_ms", "ms", "self", "core.parse"),
    ("core.params_ms", "ms", "self", "core.params"),
    ("core.approvers_calls", "count", "calls", "core.approvers"),
    ("core.approvers_ms", "ms", "self", "core.approvers"),
    ("core.score_calls", "count", "calls", "core.score"),
    ("core.score_ms", "ms", "self", "core.score"),
    ("graphs.matching_calls", "count", "calls", "graphs.matching"),
    ("graphs.matching_ms", "ms", "self", "graphs.matching"),
    ("graphs.decomp_calls", "count", "calls", "graphs.decomp"),
    ("graphs.decomp_ms", "ms", "self", "graphs.decomp"),
    ("graphs.nice_ms", "ms", "self", "graphs.nice"),
    ("graphs.bcover_ms", "ms", "self", "graphs.bcover"),
    ("graphs.multigraph_ms", "ms", "self", "graphs.multigraph"),
    ("poly.mav_deg2_ms", "ms", "self", "poly.mav_deg2"),
    ("poly.ccav_deg2_ms", "ms", "self", "poly.ccav_deg2"),
    ("poly.pav_deg22_ms", "ms", "self", "poly.pav_deg22"),
    ("poly.other_ms", "ms", "self", "poly.other"),
    ("fpt.classes_ms", "ms", "self", "fpt.classes"),
    ("fpt.bb_ms", "ms", "self", "fpt.bb"),
    ("fpt.grsp_ms", "ms", "self", "fpt.grsp"),
    ("fpt.matching_route_ms", "ms", "self", "fpt.matching_route"),
    ("fpt.nodes", "count", "count", "fpt.nodes"),
    ("fpt.subinstances", "count", "count", "fpt.subinstances"),
    ("twdp.pav_ms", "ms", "self", "twdp.pav"),
    ("twdp.ccav_ms", "ms", "self", "twdp.ccav"),
    ("twdp.mav_ms", "ms", "self", "twdp.mav"),
    ("twdp.entries_max", "count", "count", "twdp.entries_max"),
    ("twdp.nodes", "count", "count", "twdp.nodes"),
    ("twdp.width_max", "count", "count", "twdp.width_max"),
    ("oracle.brute_calls", "count", "calls", "oracle.brute"),
    ("oracle.brute_ms", "ms", "self", "oracle.brute"),
    ("oracle.committees", "count", "count", "oracle.committees"),
    ("portfolio.dispatch_self_ms", "ms", "self", "portfolio.dispatch"),
    ("portfolio.routes_tried", "count", "count", "portfolio.routes_tried"),
    ("portfolio.useful_ratio", "ratio", "derived", None),
    ("portfolio.refused", "count", "outcome", "refused"),
    ("portfolio.brute_fallbacks", "count", "count", "portfolio.brute_fallbacks"),
    ("cli.crashes", "count", "outcome", "crash"),
    ("cli.errors", "count", "outcome", "error"),
    ("cli.timeouts", "count", "outcome", "timeout"),
    ("trace.overhead_ratio", "ratio", "derived", None),
    ("probe.pav_tw_w6_s", "s", "probe", None),
    ("probe.pav_deg22_path_s", "s", "probe", None),
    ("probe.params_400_s", "s", "probe", None),
)

# the numbers the project roadmap's re-anchor measured for the probes
PROBE_REFERENCE = {
    "probe.pav_tw_w6_s": "gen --m 30 --n 25 --max-dv 4 --max-dc 4 --seed 34, pav k=6, "
                         "--algo pav-tw: width 6; roadmap 6.2 s, 4.4 s on a 2-core box",
    "probe.pav_deg22_path_s": "pav_deg22 on a 300-vote path (vote j approves {j, j+1}): "
                              "3.9 s on a 2-core box; roadmap 23 s for 500 votes",
    "probe.params_400_s": "compute_params at m = n = 400 (max-dv 4, max-dc 4): "
                          "roadmap 0.9 s, 1.6 s on a 2-core box",
}

OUTCOMES = ("yes", "no", "refused", "error", "crash", "timeout")
SETUP_CODE = (
    "import os, statistics, sys, time\n"
    "sys.path.insert(0, sys.argv[3])\n"
    "import calibrate\n"
    "speed = lambda: statistics.median(calibrate.slice_s() for _ in range(5))\n"
    "speed()\n"
    "before = speed()\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import approvalwd\n"
    "from approvalwd.core import parse_instance\n"
    "for name in sorted(os.listdir(sys.argv[2])):\n"
    "    with open(os.path.join(sys.argv[2], name), encoding='utf-8') as fh:\n"
    "        parse_instance(fh.read())\n"
    "elapsed = time.perf_counter() - start\n"
    "print(calibrate.normalised(elapsed, before, speed()))\n"
)


class Overrun(BaseException):
    """Raised by the interval timer when an instance exceeds its limit."""


def _on_alarm(signum, frame):
    raise Overrun()


# ---------------------------------------------------------------------------
# Corpus: built and answered in a child process, cached per seed
# ---------------------------------------------------------------------------

def corpus_sha256(cases):
    h = hashlib.sha256()
    for case in cases:
        h.update(f"{case['name']}\n{case['algo']}\n{case['text']}".encode())
    return h.hexdigest()


def _stored_path(workload):
    return HERE / "expected" / f"{workload}.json"


def _frac(value):
    return None if value is None else Fraction(value)


def _jsonable(case):
    out = dict(case)
    for key in ("d", "opt", "lower"):
        out[key] = None if case[key] is None else str(case[key])
    out["votes"] = [list(v) for v in case["votes"]]
    return out


def build_cases(workload, seed, stored=None):
    """Every case of the corpus with its expected answer (child process only)."""
    import workloads

    cases = []
    for draft in workloads.drafts(workload, seed):
        if stored is not None:
            truth = stored["truth"][draft["name"]]
        else:
            truth = workloads.truth_of(draft)
        cases.extend(workloads.finish(draft, truth))
    return cases


def prepare(workload, seed, out_path):
    """Child-process entry: write the cases of (workload, seed) as JSON."""
    stored = None
    if seed == SPEC["default_seed"]:
        stored = json.loads(_stored_path(workload).read_text())
    cases = build_cases(workload, seed, stored)
    sha = corpus_sha256(cases)
    if stored is not None and sha != stored["corpus_sha256"]:
        sys.exit(f"corpus of {workload} seed {seed} has sha256 {sha}, "
                 f"stored answers are for {stored['corpus_sha256']}")
    Path(out_path).write_text(json.dumps(
        {"workload": workload, "seed": seed, "sha256": sha,
         "cases": [_jsonable(c) for c in cases]}))


def store_truth(workload):
    """Recompute and store the answers of the default seed.

    The deg2-large answers are also checked against the treewidth DP, a route
    that dispatch does not pick on those instances.
    """
    seed = SPEC["default_seed"]
    import workloads

    truth = {}
    cases = []
    for draft in workloads.drafts(workload, seed):
        truth[draft["name"]] = workloads.truth_of(draft)
        cases.extend(workloads.finish(draft, truth[draft["name"]]))
    if workload == "deg2-large":
        sys.path.insert(0, str(SRC))
        from approvalwd import cli, core

        for case in cases:
            res = cli.ALGOS[f"{case['rule']}-tw"](core.parse_instance(case["text"]))
            problems = checker.check(case, res.decision, res.opt_score, res.witness)
            if problems:
                sys.exit(f"{case['name']}: treewidth DP disagrees: {problems}")
    _stored_path(workload).parent.mkdir(exist_ok=True)
    _stored_path(workload).write_text(json.dumps(
        {"seed": seed, "corpus_sha256": corpus_sha256(cases), "truth": truth},
        indent=1, sort_keys=True) + "\n")
    print(f"stored {len(truth)} answers for {workload} seed {seed}")


def load_cases(workload, seed):
    """The cases of (workload, seed), building them in a child process once."""
    digest = hashlib.sha256()
    for name in ("workloads.py", "checker.py", "run.py"):
        digest.update((HERE / name).read_bytes())
    if _stored_path(workload).exists():
        digest.update(_stored_path(workload).read_bytes())
    path = WORK / f"cases-{workload}-{seed}-{digest.hexdigest()[:12]}.json"
    if not path.exists():
        WORK.mkdir(exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--prepare", str(tmp)],
            timeout=900,
        )
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            sys.exit(f"building the {workload} corpus failed")
        os.replace(tmp, path)
    data = json.loads(path.read_text())
    cases = data["cases"]
    for case in cases:
        for key in ("d", "opt", "lower"):
            case[key] = _frac(case[key])
        case["votes"] = tuple(tuple(v) for v in case["votes"])
    if corpus_sha256(cases) != data["sha256"]:
        sys.exit(f"cached corpus {path} is corrupt")
    corpus_dir = WORK / f"corpus-{workload}-{seed}-{data['sha256'][:12]}"
    if not corpus_dir.exists():
        tmp_dir = corpus_dir.with_name(corpus_dir.name + f".{os.getpid()}.tmp")
        tmp_dir.mkdir(parents=True)
        for i, case in enumerate(cases):
            (tmp_dir / f"{i:03d}-{case['name']}.appr").write_text(case["text"])
        os.replace(tmp_dir, corpus_dir)
    return cases, data["sha256"], corpus_dir


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def time_setup(corpus_dir):
    """Seconds, in a fresh process, to import approvalwd and parse the whole
    corpus: what ``approvalwd bench`` or ``verify`` pays up front.  The child
    times itself, so interpreter start-up and exit are left out, and scales
    the time to the reference speed by calibration slices before and after."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(corpus_dir),
                           str(HERE)],
                          check=True, timeout=170, capture_output=True, text=True)
    return float(proc.stdout)


def solve_once(wd, case, instance, limit):
    """(outcome, result, seconds) of one route call, as ``approvalwd solve``
    would end: yes/no, or refused (exit 3), error (exit 2), crash, timeout."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = wd.cli.ALGOS[case["algo"]](instance)
            outcome = "yes" if result.decision else "no"
        except (wd.cli.BudgetExceededError, wd.cli.AllSolversExceededError):
            result, outcome = None, "refused"
        except (wd.cli.FormatError, OSError, ValueError):
            result, outcome = None, "error"
        except Exception:  # noqa: BLE001 - a crash is an outcome, not a harness abort
            result, outcome = None, "crash"
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        return outcome, result, elapsed
    except Overrun:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return "timeout", None, time.perf_counter() - start


def run_pass(wd, cases, instances, limit, skip=(), deadline=None, tracer=None, between=None,
             calibrated=False):
    """{index: (outcome, result, seconds)} of one pass over the corpus.

    ``calibrated`` times a calibration slice between instances and scales
    each instance's seconds to the reference speed by the slices on either
    side of it.  ``between`` runs before an instance; it returns true when
    it took time of its own, so that the slice before the instance is
    taken afresh."""
    out = {}
    before = None
    for i, case in enumerate(cases):
        if i in skip:
            continue
        if deadline is not None and time.perf_counter() > deadline:
            break
        if between is not None and between():
            before = None
        if tracer is not None:
            tracer.begin_case(case["name"])
        if calibrated and before is None:
            before = calibrate.slice_s()
        outcome, result, elapsed = solve_once(wd, case, instances[i], limit)
        if calibrated:
            after = calibrate.slice_s()
            elapsed = calibrate.normalised(elapsed, before, after)
            before = after
        out[i] = (outcome, result, elapsed)
    return out


def problems_of(case, result):
    if result is None:
        return []
    return checker.check(case, result.decision, result.opt_score, result.witness)


def _same(a, b):
    return a[0] == b[0] and (a[1] is None) == (b[1] is None) and (
        a[1] is None or (a[1].decision, a[1].opt_score, a[1].witness)
        == (b[1].decision, b[1].opt_score, b[1].witness))


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples beyond it."""
    return (100 * (n - 10)) // n if n >= 20 else 50


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


class Outcomes:
    """First-pass outcomes and the answers that the checker rejected."""

    def __init__(self, cases, first):
        self.cases = cases
        self.first = first
        self.wrong = {}
        for i, (_, result, _) in first.items():
            problems = problems_of(cases[i], result)
            if problems:
                self.wrong[i] = problems

    def recheck(self, results):
        for i, res in results.items():
            if not _same(res, self.first[i]):
                problems = problems_of(self.cases[i], res[1])
                if problems:
                    self.wrong.setdefault(i, problems)

    def count(self, outcome):
        return sum(1 for res in self.first.values() if res[0] == outcome)

    def decided(self):
        return [i for i, res in self.first.items()
                if res[0] in ("yes", "no") and i not in self.wrong]


def import_program():
    sys.path.insert(0, str(SRC))
    import approvalwd.cli  # noqa: F401 - loads every module of the package
    import approvalwd
    return approvalwd


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def untraced_run(wd, cases, instances, limit, seconds, corpus_dir):
    """Passes over the corpus for ``seconds``, with the set-up timings spread
    evenly between instances: the host's speed drifts in phases of seconds,
    and a median over one burst of set-ups would sample a single phase."""
    start = time.perf_counter()
    deadline = start + seconds
    setups = []

    def between():
        due = start + len(setups) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
            setups.append(time_setup(corpus_dir))
            return True
        return False

    first = run_pass(wd, cases, instances, limit, between=between, calibrated=True)
    outcomes = Outcomes(cases, first)
    samples = {i: [] for i in first}
    skip = {i for i, res in first.items() if res[0] == "timeout"}
    passes = 1
    while time.perf_counter() < deadline:
        more = run_pass(wd, cases, instances, limit, skip, deadline, between=between,
                        calibrated=True)
        outcomes.recheck(more)
        for i, res in more.items():
            samples[i].append(res[2])
        passes += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(corpus_dir))
    times = {i: statistics.median(s) if s else first[i][2] for i, s in samples.items()}
    return outcomes, times, passes, statistics.median(setups)


def _route(first):
    outcome, result, _ = first
    return result.algorithm if result is not None else outcome


def end_to_end(wd, cases, instances, limit, seconds, corpus_dir):
    outcomes, times, passes, setup_s = untraced_run(
        wd, cases, instances, limit, seconds, corpus_dir)
    ms = sorted(t * 1000 for t in times.values())
    p = tail_percentile(len(ms))
    decided = outcomes.decided()
    metrics = {
        "solve_ms.p50": statistics.median(ms),
        "solve_ms.tail": nearest_rank(ms, p),
        "throughput_per_s": len(decided) / sum(times.values()),
        "decided_ratio": len(decided) / len(cases),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = len(ms) - math.ceil(p * len(ms) / 100)
    slowest = sorted(times, key=times.get, reverse=True)[:3]
    notes = [
        f"passes {passes}; every instance solved in each pass until the time was up",
        "outcomes: " + ", ".join(f"{o} {outcomes.count(o)}" for o in OUTCOMES)
        + f", wrong {len(outcomes.wrong)}",
        f"solve_ms.tail is p{p} of {len(ms)} instance times ({beyond} beyond it)",
        f"wrong_count = {len(outcomes.wrong)}",
        "slowest: " + ", ".join(
            f"{cases[i]['name']} {times[i] * 1000:.1f} ms ({_route(outcomes.first[i])})"
            for i in slowest),
    ]
    return metrics, outcomes, notes


def _layer_values(tracer):
    values = {}
    for name, _, source, key in PER_LAYER:
        if source == "self":
            values[name] = tracer.self_s[key] * 1000
        elif source == "calls":
            values[name] = tracer.calls[key]
        elif source == "count":
            values[name] = tracer.counts[key]
    return values


def run_probes(wd):
    """The three one-shot measurements of the project roadmap's re-anchor."""
    core, cli = wd.core, wd.cli
    from approvalwd import portfolio

    def timed(fn, arg):
        start = time.perf_counter()
        fn(arg)
        return time.perf_counter() - start

    cfg = portfolio.GeneratorConfig(m=30, n=25, max_dv=4, max_dc=4)
    w6 = core.Instance(portfolio.generate(cfg, 34), "pav", 6, Fraction(0))
    path = core.Election(m=301, votes=tuple(frozenset((j, j + 1)) for j in range(300)))
    big = portfolio.generate(portfolio.GeneratorConfig(m=400, n=400, max_dv=4, max_dc=4), 0)
    return {
        "probe.pav_tw_w6_s": timed(cli.ALGOS["pav-tw"], w6),
        "probe.pav_deg22_path_s": timed(cli.ALGOS["pav-deg22"],
                                        core.Instance(path, "pav", 100, Fraction(0))),
        "probe.params_400_s": timed(core.compute_params,
                                    core.Instance(big, "pav", 1, Fraction(0))),
    }


def per_layer(wd, cases, texts, limit, seconds, workload, seed):
    import tracing

    start = time.perf_counter()
    instances = [wd.core.parse_instance(t) for t in texts]
    first = run_pass(wd, cases, instances, limit)
    outcomes = Outcomes(cases, first)
    skip = {i for i, res in first.items() if res[0] == "timeout"}
    untraced = [first]
    traced, layers = [], []
    tracer = None
    while True:
        pass_start = time.perf_counter()
        tracer = tracing.Tracer()
        with tracing.instrument(tracer, wd):
            tracer.begin_case("parse")
            instances = [wd.core.parse_instance(t) for t in texts]
            results = run_pass(wd, cases, instances, limit, skip, tracer=tracer)
        outcomes.recheck(results)
        traced.append(results)
        layers.append(tracer)
        # stop unless another untraced and traced pass fit in the time left
        if time.perf_counter() + 2 * (time.perf_counter() - pass_start) > start + seconds:
            break
        untraced.append(run_pass(wd, cases, instances, limit, skip))
    metrics = {}
    values = [_layer_values(t) for t in layers]
    for name, _, source, key in PER_LAYER:
        if source == "self":
            metrics[name] = min(v[name] for v in values)
        elif source in ("calls", "count"):
            metrics[name] = values[0][name]
        elif source == "outcome":
            metrics[name] = outcomes.count(key)
    tried = layers[0].counts["portfolio.routes_tried"]
    metrics["portfolio.useful_ratio"] = (
        layers[0].counts["portfolio.routes_answered"] / tried if tried else 0.0)
    common = [i for i in first if all(i in r for r in traced + untraced)]
    metrics["trace.overhead_ratio"] = (
        sum(min(r[i][2] for r in traced) for i in common)
        / sum(min(r[i][2] for r in untraced) for i in common))
    metrics.update(run_probes(wd))
    spans_path = WORK / f"trace-{workload}-{seed}.json"
    WORK.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps(tracer.spans))
    notes = [
        f"traced passes {len(traced)}, untraced passes {len(untraced)}",
        f"routes answered {layers[0].counts['portfolio.routes_answered']} of {tried} tried",
        f"spans of the last traced pass: {spans_path.relative_to(ROOT)}",
    ]
    notes += [f"{name}: {ref}" for name, ref in PROBE_REFERENCE.items()]
    return metrics, outcomes, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("--store-truth", action="store_true",
                        help="recompute the stored answers of the default seed")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "approvalwd" / "__init__.py").is_file():
        sys.exit(f"no approvalwd sources under {SRC}; run from a checkout of the project")
    if args.prepare:
        prepare(args.workload, args.seed, args.prepare)
        return 0
    if args.store_truth:
        store_truth(args.workload)
        return 0
    cases, sha, corpus_dir = load_cases(args.workload, args.seed)
    limit = SPEC["limit_s"][args.workload]
    texts = [c["text"] for c in cases]
    wd = import_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} instances, "
          f"corpus sha256 {sha}, limit {limit} s per instance")
    if args.trace:
        metrics, outcomes, notes = per_layer(
            wd, cases, texts, limit, args.seconds, args.workload, args.seed)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        instances = [wd.core.parse_instance(t) for t in texts]
        metrics, outcomes, notes = end_to_end(
            wd, cases, instances, limit, args.seconds, corpus_dir)
        units = END_TO_END
    for note in notes:
        print("  " + note)
    for i, problems in sorted(outcomes.wrong.items()):
        print(f"  WRONG {cases[i]['name']}: {'; '.join(problems)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not outcomes.wrong,
        "attempted": len(cases),
        "failed": len(outcomes.wrong),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
