import random
from fractions import Fraction

import pytest

from approvalwd import CCAV, Election, format_instance, Instance, MAV, PAV, RULES
from approvalwd import cli, fpt, portfolio
from approvalwd.cli import main
from approvalwd.portfolio import generate, GeneratorConfig, SOLVERS

from helpers import deep_search_instances, e1, format_graph


def _write_e1_instance(path, rule, k, d):
    inst = Instance(election=e1(), rule=rule, k=k, d=Fraction(d))
    path.write_text(format_instance(inst))
    return str(path)


def test_solve_yes_no(tmp_path):
    yes = _write_e1_instance(tmp_path / "yes.appr", MAV, 1, 2)
    no = _write_e1_instance(tmp_path / "no.appr", MAV, 1, 1)
    assert main(["solve", yes]) == 0
    assert main(["solve", no]) == 1


def test_solve_algo_and_witness(tmp_path, capsys):
    path = _write_e1_instance(tmp_path / "i.appr", PAV, 2, Fraction(7, 2))
    assert main(["solve", path, "--algo", "pav-tw", "--witness"]) == 0
    out = capsys.readouterr().out
    assert "decision: yes" in out
    assert "algorithm: pav_tw_dp" in out
    assert "witness: 0,1" in out


def test_solve_errors(tmp_path):
    missing = str(tmp_path / "nope.appr")
    assert main(["solve", missing]) == 2
    bad = tmp_path / "bad.appr"
    bad.write_text("garbage\n")
    assert main(["solve", str(bad)]) == 2
    # wrong rule for a rule-specific algorithm
    path = _write_e1_instance(tmp_path / "i.appr", PAV, 2, 0)
    assert main(["solve", path, "--algo", "mav-deg2"]) == 2


def test_algo_names_are_pinned():
    assert sorted(cli.ALGOS) == [
        "auto", "av", "brute", "ccav-bb", "ccav-deg2", "ccav-tw", "exhaustive",
        "mav-classes", "mav-deg2", "mav-grsp", "mav-kdc", "mav-matching",
        "mav-tw", "pav-bb", "pav-classes", "pav-deg1", "pav-deg22", "pav-matching",
        "pav-tw",
    ]


# each polynomial route's (rule, election just inside its degree gate, just outside)
_GATES = {
    "av": (MAV, Election(2, ({0}, {1})), Election(2, ({0, 1},))),  # deltaV 1, 2
    "mav-deg2": (MAV, Election(2, ({0}, {0}, {1})), Election(2, ({0}, {0}, {0}))),  # deltaC 2, 3
    "ccav-deg2": (CCAV, Election(2, ({0}, {0}, {1})), Election(2, ({0}, {0}, {0}))),
    "pav-deg1": (PAV, Election(2, ({0}, {1})), Election(2, ({0}, {0}))),  # deltaC 1, 2
    "pav-deg22": (PAV, Election(3, ({0, 1}, {1, 2})), Election(3, ({0, 1, 2},))),  # deltaV 2, 3
}


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.algo)
def test_the_checked_entry_rejects_what_a_route_does_not_apply_to(tmp_path, solver):
    # cli.ALGOS is the registry entry: it checks the rule and the degree gate
    # before the route runs, and solve --algo exits 2, never 1 ("no")
    entry = cli.ALGOS[solver.algo]
    election = _GATES[solver.algo][1] if solver.degrees else e1()
    rejected = []
    for rule in RULES:
        inst = Instance(election, rule, 1, 1)
        if solver.rule in (None, rule):
            entry(inst)
        else:
            with pytest.raises(ValueError, match=f"needs rule {solver.rule}, not {rule}"):
                entry(inst)
            rejected.append(inst)
    if solver.degrees:
        rule, _, outside = _GATES[solver.algo]
        inst = Instance(outside, rule, 1, 1)
        with pytest.raises(ValueError, match="outside its degree gate"):
            entry(inst)
        rejected.append(inst)
    assert bool(rejected) == (solver.rule is not None or solver.degrees is not None)
    for i, inst in enumerate(rejected):
        path = tmp_path / f"{i}.appr"
        path.write_text(format_instance(inst))
        assert main(["solve", "--algo", solver.algo, str(path)]) == 2


def test_solve_crash_exits_2(tmp_path, monkeypatch, capsys):
    def crash(instance):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.ALGOS, "brute", crash)
    path = _write_e1_instance(tmp_path / "i.appr", MAV, 1, 2)
    assert main(["solve", path, "--algo", "brute"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "boom" in err and err.count("\n") == 1


@pytest.mark.parametrize("algo", ["mav-grsp", "ccav-bb", "pav-bb"])
def test_solve_decides_searches_deeper_than_the_recursion_limit(tmp_path, algo):
    path = tmp_path / "deep.appr"
    path.write_text(format_instance(deep_search_instances()[algo]))
    assert main(["solve", str(path), "--algo", algo]) == 0


@pytest.mark.parametrize("config,seed,k,d", [
    ((14, 13, 4, 5), 145, 0, 7),  # no committee covers a vote
    ((11, 14, 4, 5), 1291, 2, 12),  # d > k * deltaC = 8
])
def test_solve_ccav_bb_answers_an_unreachable_threshold_at_its_root(
        tmp_path, monkeypatch, config, seed, k, d):
    # the search visited over 420,000 nodes (6-7 s) on each before its root check
    path = tmp_path / "i.appr"
    path.write_text(format_instance(Instance(generate(GeneratorConfig(*config), seed), CCAV, k, d)))
    results = []
    route = fpt.ccav_bb_dual
    monkeypatch.setattr(fpt, "ccav_bb_dual", lambda inst: results.append(route(inst)) or results[-1])
    assert main(["solve", str(path), "--algo", "ccav-bb"]) == 1
    assert results[0].stats == {"nodes": 0}


def test_solve_budget_exceeded(tmp_path):
    votes = "\n".join("0 1" for _ in range(20))
    (tmp_path / "big.appr").write_text(f"mav 1 0 1\n2 20\n{votes}\n")
    assert main(["solve", str(tmp_path / "big.appr"), "--algo", "mav-classes"]) == 3


def test_score_and_params(tmp_path, capsys):
    path = _write_e1_instance(tmp_path / "i.appr", PAV, 2, 0)
    assert main(["score", path, "--committee", "0,1"]) == 0
    assert capsys.readouterr().out.strip() == "7/2"
    assert main(["score", path]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["params", path]) == 0
    out = capsys.readouterr().out
    assert "m: 3" in out and "kbar: 1" in out and "alpha: 3" in out


@pytest.mark.parametrize("committee, message", [
    ("0,99", "committee candidate 99 not in [0, 6)"),
    ("-1", "committee candidate -1 not in [0, 6)"),
    ("0,0", "committee repeats candidate 0"),
])
def test_score_rejects_a_bad_committee(tmp_path, capsys, committee, message):
    path = tmp_path / "i.appr"
    path.write_text("pav 2 0 1\n6 2\n0 1 2\n3 4 5\n")
    assert main(["score", str(path), "--committee", committee]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gen_roundtrip(tmp_path, capsys):
    args = ["gen", "--m", "5", "--n", "4", "--max-dv", "2", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    out = tmp_path / "inst.appr"
    assert main(args + ["--rule", "ccav", "--k", "2", "--d", "1", "--out", str(out)]) == 0
    assert main(["solve", str(out)]) in (0, 1)


def test_reduce(tmp_path, capsys):
    gpath = tmp_path / "k3.graph"
    gpath.write_text(format_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert main(["reduce", str(gpath), "--from", "vc", "--kappa", "2"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("mav 2 2 1\n")
    out = tmp_path / "red.appr"
    assert main(["reduce", str(gpath), "--from", "ids", "--kappa", "1", "--out", str(out)]) == 0
    assert main(["solve", str(out)]) == 0
    assert main(["reduce", str(gpath), "--from", "mvs", "--kappa", "1", "--ell", "1"]) == 0
    assert main(["reduce", str(gpath), "--from", "pvc", "--kappa", "1", "--ell", "2"]) == 0


def test_verify_and_bench(tmp_path, capsys):
    rng = random.Random(90)
    for i in range(4):
        m = rng.randint(1, 4)
        votes = [
            " ".join(str(c) for c in sorted(rng.sample(range(m), rng.randint(0, m))))
            for _ in range(rng.randint(0, 3))
        ]
        body = "\n".join([f"{m} {len(votes)}"] + votes)
        (tmp_path / f"i{i}.appr").write_text(f"ccav {rng.randint(0, m)} 1 1\n{body}\n")
    # an unreadable file is one more row of each report, not an error exit
    (tmp_path / "cand5.appr").write_text("ccav 1 1 1\n2 1\n5\n")
    (tmp_path / "latin1.appr").write_bytes(b"ccav 1 1 1\n2 1\n0 1\n\xff\n")
    assert main(["verify", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("status=parse-error") == 2
    csv_out = tmp_path / "bench.csv"
    assert main(["bench", str(tmp_path), "--csv", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("instance,rule")
    assert len(csv_out.read_text().splitlines()) == 7


def test_verify_reports_a_refusal_and_goes_on(tmp_path, capsys, monkeypatch):
    # with every cost over the cap, dispatch refuses the 8 x 8 PAV file: verify
    # gives the auto route a refused row, which is no disagreement, and still
    # reports the unreadable file and the file past the oracle's budget after it
    monkeypatch.setattr(portfolio, "FPT_COST_CAP", 0)
    e = generate(GeneratorConfig(8, 8, 3, 3), 1)
    (tmp_path / "a-pav.appr").write_text(format_instance(Instance(e, PAV, 3, 3)))
    (tmp_path / "b-cand5.appr").write_text("ccav 1 1 1\n2 1\n5\n")
    (tmp_path / "c-m23.appr").write_text(format_instance(Instance(Election(23, ()), CCAV, 1, 0)))
    assert main(["verify", str(tmp_path)]) == 0
    *rows, last = capsys.readouterr().out.splitlines()
    rows = [dict(cell.split("=", 1) for cell in row.split("\t")) for row in rows]
    assert [(r["instance"], r["status"]) for r in rows] == [
        ("a-pav.appr", "refused"), ("b-cand5.appr", "parse-error"), ("c-m23.appr", "skipped")]
    assert rows[0]["solver"] == "dispatch"
    assert last == "entries: 3, ok: True"
