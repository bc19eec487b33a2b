import argparse
import json
import time
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest

from toricgit import cli, minkowski
from toricgit.cli import main
from toricgit.errors import InputError, InternalError
from toricgit.serialize import canonical_dumps, frac_from_obj, frac_to_str, sha256_of

from util import count_calls

P2_SETUP = {
    "polytope": {"n": 2, "facets": [
        {"normal": [1, 0], "support": "1/1"},
        {"normal": [0, 1], "support": "1/1"},
        {"normal": [-1, -1], "support": "1/1"},
    ]},
    "sublattice": [[1, 1]],
}

TANGENT_SHEAF = {
    "rank": 2,
    "filtrations": {
        "0": [{"i": -1, "basis": [["1/1", "0/1"]]},
              {"i": 0, "basis": [["1/1", "0/1"], ["0/1", "1/1"]]}],
        "1": [{"i": -1, "basis": [["0/1", "1/1"]]},
              {"i": 0, "basis": [["1/1", "0/1"], ["0/1", "1/1"]]}],
        "2": [{"i": -1, "basis": [["1/1", "1/1"]]},
              {"i": 0, "basis": [["1/1", "0/1"], ["0/1", "1/1"]]}],
    },
}

SQUARE_TARGETS = {"normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                  "volumes": ["2", "1", "2", "1"]}


def run_job(tmp_path, job, *args):
    src = tmp_path / "job.json"
    out = tmp_path / "out.json"
    src.write_text(json.dumps(job))
    code = main(["--input", str(src), "--output", str(out), *args])
    report = json.loads(out.read_text()) if out.exists() and code == 0 else None
    return code, report


def test_classify_report(tmp_path):
    code, report = run_job(tmp_path, {"command": "classify",
                                      "inputs": {"setup": P2_SETUP}})
    assert code == 0
    assert report["result"]["generic"] is True
    assert report["result"]["stable_facets"] == [0, 1]
    statuses = {tuple(f["face"]): f["status"] for f in report["result"]["faces"]}
    assert statuses[(2,)] == "Unstable"


def test_quotient_report(tmp_path):
    code, report = run_job(tmp_path, {"command": "quotient",
                                      "inputs": {"setup": P2_SETUP}})
    assert code == 0
    assert report["result"]["b"] == {"0": 1, "1": 1}
    assert report["result"]["quotient_polytope"]["n"] == 1


def test_slope_of_structure_sheaf(tmp_path):
    job = {"command": "slope", "inputs": {
        "polytope": P2_SETUP["polytope"],
        "sheaf": {"rank": 1, "filtrations": {
            "0": [{"i": 0, "basis": [["1/1"]]}],
            "1": [{"i": 0, "basis": [["1/1"]]}],
            "2": [{"i": 0, "basis": [["1/1"]]}],
        }},
    }}
    code, report = run_job(tmp_path, job)
    assert code == 0
    assert report["result"]["slope"] == "0/1"


def test_stability_verdict(tmp_path):
    job = {"command": "stability", "inputs": {
        "polytope": P2_SETUP["polytope"], "sheaf": TANGENT_SHEAF}}
    code, report = run_job(tmp_path, job)
    assert code == 0
    verdict = report["result"]["verdict"]
    assert verdict["status"] == "Stable"
    assert verdict["certainty"] == "Certified"
    assert verdict["slope"] == "9/2"   # O(3)-normalized polytope


def test_minkowski_check_and_falsifier(tmp_path):
    code, report = run_job(tmp_path, {"command": "minkowski-check",
                                      "inputs": {"setup": P2_SETUP}})
    assert code == 0 and report["result"]["holds"] is True
    code2, report2 = run_job(tmp_path, {"command": "falsify-converse",
                                        "inputs": {"setup": P2_SETUP}})
    assert code2 == 0 and report2["result"]["counterexample"] is None


def test_exit_code_infeasible_not_generic(tmp_path):
    bad = {
        "polytope": {"n": 2, "facets": [
            {"normal": [1, 0], "support": "0/1"},
            {"normal": [0, 1], "support": "0/1"},
            {"normal": [-1, -1], "support": "1/1"},
        ]},
        "sublattice": [[1, 1]],
    }
    code, _ = run_job(tmp_path, {"command": "quotient", "inputs": {"setup": bad}})
    assert code == 2


def test_exit_code_malformed(tmp_path):
    code, _ = run_job(tmp_path, {"command": "quotient", "inputs": {"setup": {}}})
    assert code == 1
    code2, _ = run_job(tmp_path, {"command": "nonsense", "inputs": {}})
    assert code2 == 1


def test_unwritable_output_exits_one(tmp_path, capsys):
    src = tmp_path / "job.json"
    src.write_text(json.dumps({"command": "quotient", "inputs": {"setup": P2_SETUP}}))
    code = main(["--input", str(src), "--output", str(tmp_path / "no" / "such" / "out.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_infeasible_targets(tmp_path):
    job = {"command": "solve-minkowski", "inputs": {
        "normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "volumes": ["2", "1", "1", "1"]}}
    code, _ = run_job(tmp_path, job)
    assert code == 2


def test_solve_minkowski_report(tmp_path):
    job = {"command": "solve-minkowski", "inputs": {
        "normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "volumes": ["2", "1", "2", "1"]}}
    code, report = run_job(tmp_path, job)
    assert code == 0
    sup = [float(x) for x in report["result"]["supports"]]
    assert abs(sup[0] - 0.5) < 1e-5 and abs(sup[1] - 1.0) < 1e-5
    assert float(report["result"]["residual"]) <= 1e-6


def test_compatible_subgroups_report(tmp_path):
    job = {"command": "compatible-subgroups", "inputs": {
        "polytope": {"n": 2, "facets": [
            {"normal": [1, 0], "support": "0/1"},
            {"normal": [0, 1], "support": "0/1"},
            {"normal": [-1, -1], "support": "1/1"},
        ]}}}
    code, report = run_job(tmp_path, job)
    assert code == 0
    assert len(report["result"]["subgroups"]) == 3
    assert report["result"]["upper_bound"] == 3


def test_subgroup_search_work_does_not_grow_with_the_supports(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, minkowski, "GitSetup")
    setups, found = [], []
    for width in (40, 3000):
        calls.clear()
        job = {"command": "compatible-subgroups", "options": {"k_max": 2}, "inputs": {
            "polytope": {"n": 2, "facets": [
                {"normal": [1, 0], "support": "0/1"},
                {"normal": [0, 1], "support": "0/1"},
                {"normal": [-1, 0], "support": f"{width}/1"},
                {"normal": [0, -1], "support": f"{width}/1"},
            ]}}}
        start = time.perf_counter()
        code, report = run_job(tmp_path, job)
        elapsed = time.perf_counter() - start
        assert code == 0
        setups.append(calls["GitSetup"])
        found.append([(s["sublattice"], s["stable_facets"], s["dilation"])
                      for s in report["result"]["subgroups"]])
    assert setups[0] == setups[1] > 0
    assert found[0] == found[1] == [([[1, 1]], [0, 1], 1), ([[1, -1]], [0, 3], 1)]
    assert elapsed < 5  # one setup per translation class took ~56 s


def test_bundle_report_includes_alpha_formula(tmp_path):
    job = {"command": "bundle", "inputs": {
        "base": {"n": 2, "facets": [
            {"normal": [1, 0], "support": "0/1"},
            {"normal": [-1, 0], "support": "2/1"},
            {"normal": [0, 1], "support": "0/1"},
            {"normal": [0, -1], "support": "2/1"},
        ]},
        "summands": [{"0": 1}, {"2": 1}]}}
    code, report = run_job(tmp_path, job)
    assert code == 0
    assert report["result"]["stable_facets"] == [0, 1, 2, 3]
    assert report["result"]["unstable_facets"] == [4, 5, 6]
    assert "alpha_formula" in report["result"]


def test_report_echo_round_trips_and_hash(tmp_path):
    job = {"command": "classify", "inputs": {"setup": P2_SETUP}}
    code, report = run_job(tmp_path, job)
    assert code == 0
    assert canonical_dumps(report["input"]) == canonical_dumps(job["inputs"])
    assert report["input_sha256"] == sha256_of(job["inputs"])
    # re-running the echoed input yields the identical report body
    code2, report2 = run_job(tmp_path, {"command": "classify",
                                        "inputs": report["input"]})
    assert report2["result"] == report["result"]
    assert report2["input_sha256"] == report["input_sha256"]


def test_text_format(tmp_path, capsys):
    src = tmp_path / "job.json"
    src.write_text(json.dumps({"command": "minkowski-check",
                               "inputs": {"setup": P2_SETUP}}))
    code = main(["--input", str(src), "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "holds: True" in out


def test_pushforward_pullback_commands(tmp_path):
    job = {"command": "pushforward", "inputs": {
        "setup": P2_SETUP, "sheaf": TANGENT_SHEAF}}
    code, report = run_job(tmp_path, job)
    assert code == 0
    quotient_sheaf = report["result"]["sheaf"]
    assert quotient_sheaf["rank"] == 2
    job2 = {"command": "pullback", "inputs": {
        "setup": P2_SETUP, "sheaf": quotient_sheaf, "indices": {"2": 0}}}
    code2, report2 = run_job(tmp_path, job2)
    assert code2 == 0
    assert report2["result"]["sheaf"]["rank"] == 2


def test_alpha_and_slope_identity_on_bundle(tmp_path):
    bundle_job = {"command": "bundle", "inputs": {
        "base": {"n": 2, "facets": [
            {"normal": [1, 0], "support": "0/1"},
            {"normal": [-1, 0], "support": "2/1"},
            {"normal": [0, 1], "support": "0/1"},
            {"normal": [0, -1], "support": "2/1"},
        ]},
        "summands": [{"0": 1}, {"2": 1}]}}
    code, report = run_job(tmp_path, bundle_job)
    setup = report["result"]["setup"]
    code2, report2 = run_job(tmp_path, {"command": "alpha",
                                        "inputs": {"setup": setup},
                                        "options": {"seed": 5}})
    assert code2 == 0
    assert float(report2["result"]["alpha"]["residual"]) <= 1e-6
    sheaf = {"rank": 1, "filtrations": {
        str(f): [{"i": 0, "basis": [["1/1"]]}] for f in range(4)}}
    job3 = {"command": "slope-identity", "inputs": {
        "setup": setup, "sheaf": sheaf, "indices": {"4": 1, "5": 0, "6": -2}},
        "options": {"seed": 5}}
    code3, report3 = run_job(tmp_path, job3)
    assert code3 == 0
    assert report3["result"]["identity"]["residual"] == "0"


def test_alpha_on_a_surface_is_exact_at_tight_tol(tmp_path):
    # the rank-2 bundle with summands {4: 1}, {1: 1} over the hexagon (dP6):
    # a planar class with exact targets, which the edge walk solves exactly
    # at any tol
    hexagon = [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]]
    summands = [{4: 1}, {1: 1}]
    facets = [u + [s.get(rho, 0) for s in summands] for rho, u in enumerate(hexagon)]
    facets += [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, -1]]
    setup = {"polytope": {"n": 4, "facets": [{"normal": u, "support": "1/1"}
                                             for u in facets]},
             "sublattice": [[0, 0, 1, 0], [0, 0, 0, 1]]}
    for seed in (None, 7):
        options = {"tol": 1e-9} if seed is None else {"tol": 1e-9, "seed": seed}
        code, report = run_job(tmp_path, {"command": "alpha", "inputs": {"setup": setup},
                                          "options": options})
        assert code == 0
        alpha = report["result"]["alpha"]
        assert alpha["residual"] == "0"
        assert alpha["targets"] == ["13/3", "14/3", "13/3", "13/3", "14/3", "13/3"]
        assert alpha["supports"] == ["4.5", "4.33333333333", "4.5", "4.5",
                                     "4.33333333333", "4.5"]


def test_descend_command(tmp_path):
    job = {"command": "descend", "inputs": {
        "setup": P2_SETUP, "sheaf": TANGENT_SHEAF}}
    code, report = run_job(tmp_path, job)
    assert code == 0
    assert report["result"]["descends"] is True
    assert report["result"]["violations"] == []


def test_command_flag_overrides_file(tmp_path):
    # file says classify; the flag selects quotient
    job = {"command": "classify", "inputs": {"setup": P2_SETUP}}
    code, report = run_job(tmp_path, job, "--command", "quotient")
    assert code == 0
    assert report["command"] == "quotient"
    assert "quotient_polytope" in report["result"]


def test_command_flag_does_not_carry_over(tmp_path):
    # the parser is built once at import; each call parses into a fresh
    # namespace, so a flag given to one call is gone in the next
    job = {"command": "classify", "inputs": {"setup": P2_SETUP}}
    assert run_job(tmp_path, job, "--command", "quotient")[1]["command"] == "quotient"
    code, report = run_job(tmp_path, job)
    assert code == 0 and report["command"] == "classify"
    assert report["options"] == {}
    code, report = run_job(tmp_path, {"command": "stability", "inputs": {
        "polytope": P2_SETUP["polytope"], "sheaf": TANGENT_SHEAF}}, "--cap", "7")
    assert code == 0 and report["options"] == {"cap": 7}
    code, report = run_job(tmp_path, {"command": "stability", "inputs": {
        "polytope": P2_SETUP["polytope"], "sheaf": TANGENT_SHEAF}})
    assert code == 0 and report["options"] == {}


def reference_parser():
    """The parser as ``main`` built it on every call before it moved to
    module level: nine arguments, in this order."""
    parser = argparse.ArgumentParser(
        prog="toricgit",
        description="Exact toric GIT quotients, filtration sheaves, slope "
                    "stability, and quotient-class reconstruction.")
    parser.add_argument("--input", required=True, help="JSON job file")
    parser.add_argument("--command", choices=cli.COMMANDS,
                        help="command (overrides the job file)")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--max-iter", type=int, dest="max_iter")
    parser.add_argument("--cap", type=int)
    parser.add_argument("--k-max", type=int, dest="k_max")
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def test_parser_help_and_usage_errors_are_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    reference = reference_parser()
    for argv, code in ((["--help"], 0), (["--input", "x", "--bogus"], 2),
                       (["--input", "x", "--command", "nope"], 2), ([], 2),
                       (["--input", "x", "--tol", "abc"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as ref:
            reference.parse_args(argv)
        want = capsys.readouterr()
        assert exc.value.code == ref.value.code == code, argv
        assert (got.out, got.err) == (want.out, want.err), argv
        assert (got.out or got.err).startswith("usage: toricgit [-h] --input INPUT"), argv
    assert cli.PARSER.prog == "toricgit"
    with pytest.raises(SystemExit) as exc:
        main(["--input", "x", "--bogus"])
    assert capsys.readouterr().err.endswith(
        "toricgit: error: unrecognized arguments: --bogus\n")


def test_malformed_jobs_exit_one_with_input_error(tmp_path, capsys):
    bad_basis = json.loads(json.dumps(TANGENT_SHEAF))
    bad_basis["filtrations"]["0"][0]["basis"] = 5
    stab = {"polytope": P2_SETUP["polytope"], "sheaf": TANGENT_SHEAF}
    jobs = [
        {"command": "descend", "inputs": {"setup": P2_SETUP, "sheaf": bad_basis}},
        {"command": "pullback", "inputs": {"setup": P2_SETUP, "sheaf": TANGENT_SHEAF,
                                           "indices": {"x": 1}}},
        {"command": "bundle", "base": P2_SETUP["polytope"], "summands": [{"a": 1}]},
        {"command": "stability", "inputs": stab, "options": {"cap": "x"}},
        {"command": "stability", "inputs": stab, "options": {"random_trials": 2.5}},
        {"command": "stability", "inputs": stab, "options": {"seed": True}},
        {"command": "stability", "inputs": stab, "options": {"cap": -1}},
        {"command": "stability", "inputs": stab, "options": {"random_trials": 10_001}},
        {"command": "stability", "inputs": stab, "options": {"cap": 10_001}},
        {"command": "compatible-subgroups", "inputs": {"polytope": P2_SETUP["polytope"]},
         "options": {"k_max": 13}},
        {"command": "compatible-subgroups", "inputs": {"polytope": P2_SETUP["polytope"]},
         "options": {"k_max": "x"}},
        {"command": "solve-minkowski", "inputs": SQUARE_TARGETS, "options": {"max_iter": 0}},
        {"command": "solve-minkowski", "inputs": SQUARE_TARGETS, "options": 5},
        {"command": "solve-minkowski", "inputs": {**SQUARE_TARGETS, "normals": 5}},
        {"command": "solve-minkowski", "inputs": {**SQUARE_TARGETS, "volumes": 5}},
        # ragged normals
        {"command": "solve-minkowski", "inputs": {"normals": [[1, 0], [0, 1, 0], [-1, -1]],
                                                  "volumes": [1, 1, 1]}},
        {"command": "solve-minkowski", "inputs": {"normals": [[1, 0, 0], [0, 1], [-1, -1]],
                                                  "volumes": [1, 1, 1]}},
        *({"command": "solve-minkowski", "inputs": {**SQUARE_TARGETS, "volumes": [2.0, 1, bad, 1]}}
          for bad in (float("nan"), float("inf"), float("-inf"))),
        *({"command": "solve-minkowski", "inputs": SQUARE_TARGETS, "options": {"tol": tol}}
          for tol in ("x", -1, 0, minkowski.TOL_FLOOR / 2, True, [1e-6], float("nan"),
                      float("inf"))),
        *({"command": command, "inputs": inputs, "options": {"seed": seed}}
          for command, inputs in (
              ("solve-minkowski", SQUARE_TARGETS),
              ("alpha", {"setup": P2_SETUP}),
              ("slope-identity", {"setup": P2_SETUP, "sheaf": TANGENT_SHEAF}))
          for seed in ([1], "x", True, 1.5, None)),
        # options the command does not read
        {"command": "stability", "inputs": stab,
         "options": {"randon_trials": 5, "k_max": 99, "tol": "garbage"}},
        *({"command": "stability", "inputs": stab, "options": {key: 5}}
          for key in ("randon_trials", "k_max", "tol", "max_iter")),
        {"command": "classify", "inputs": {"setup": P2_SETUP}, "options": {"seed": 1}},
        {"command": "compatible-subgroups", "inputs": {"polytope": P2_SETUP["polytope"]},
         "options": {"cap": 5}},
        {"command": "alpha", "inputs": {"setup": P2_SETUP}, "options": {"k_max": 6}},
    ]
    for job in jobs:
        code, _ = run_job(tmp_path, job)
        assert code == 1, job
        assert capsys.readouterr().err.startswith("error: "), job
    for tol in ("-1", "0", repr(minkowski.TOL_FLOOR / 2), "nan", "inf"):
        code, _ = run_job(tmp_path, {"command": "solve-minkowski", "inputs": SQUARE_TARGETS},
                          "--tol", tol)
        assert code == 1, tol
        assert capsys.readouterr().err.startswith("error: "), tol
    # flags the command does not read
    stab_job = {"command": "stability", "inputs": stab}
    for job, flag in (
            (stab_job, ("--tol", "1e-6")),
            (stab_job, ("--max-iter", "5")),
            (stab_job, ("--k-max", "3")),
            ({"command": "classify", "inputs": {"setup": P2_SETUP}}, ("--seed", "1")),
            ({"command": "solve-minkowski", "inputs": SQUARE_TARGETS}, ("--cap", "5"))):
        code, _ = run_job(tmp_path, job, *flag)
        assert code == 1, flag
        assert capsys.readouterr().err.startswith("error: "), flag
    # the bounds themselves are accepted, in the job file and as flags
    for job, args in (
            ({"command": "solve-minkowski", "inputs": SQUARE_TARGETS,
              "options": {"tol": minkowski.TOL_FLOOR}}, ()),
            ({"command": "solve-minkowski", "inputs": SQUARE_TARGETS},
             ("--tol", repr(minkowski.TOL_FLOOR))),
            ({"command": "stability", "inputs": stab, "options": {"random_trials": 10_000}}, ()),
            ({"command": "stability", "inputs": stab, "options": {"cap": 10_000}}, ()),
            ({"command": "compatible-subgroups", "inputs": {"polytope": P2_SETUP["polytope"]},
              "options": {"k_max": 12}}, ()),
            ({"command": "compatible-subgroups", "inputs": {"polytope": P2_SETUP["polytope"]}},
             ("--k-max", "12"))):
        code, _ = run_job(tmp_path, job, *args)
        assert code == 0, job
    code, _ = run_job(tmp_path, {"command": "compatible-subgroups",
                                 "inputs": {"polytope": P2_SETUP["polytope"]}}, "--k-max", "13")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solver_overflow_exits_two(tmp_path, capsys):
    # targets this large overflow the float iterate or the float supports of
    # the exact edge walk: a solver failure, not a crash
    huge = "1" + "0" * 400
    cube = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    for inputs in ({"normals": SQUARE_TARGETS["normals"], "volumes": [1e300] * 4},
                   {"normals": SQUARE_TARGETS["normals"], "volumes": [huge, "1"] * 2},
                   {"normals": cube, "volumes": [huge] * 6}):
        code, _ = run_job(tmp_path, {"command": "solve-minkowski", "inputs": inputs})
        assert code == 2
        assert capsys.readouterr().err.startswith("failed: NoConvergence: ")


def test_huge_numbers_exit_cleanly(tmp_path, capsys):
    # numbers past the interpreter's 4300-digit int/str limit: an exact
    # slope of about 4400 digits is printed, an exponent string or an
    # over-long JSON integer literal is malformed input, never a traceback
    big = 10 ** 2200 + 7  # 2201 digits
    one = [["1/1"]]
    simplex = {"n": 3, "facets": [
        {"normal": [1, 0, 0], "support": "0"}, {"normal": [0, 1, 0], "support": "0"},
        {"normal": [0, 0, 1], "support": "0"}, {"normal": [-1, -1, -1], "support": str(big)}]}
    sheaf = {"rank": 1, "filtrations": {"0": [{"i": -1, "basis": one}],
                                        **{f: [{"i": 0, "basis": one}] for f in "123"}}}
    code, report = run_job(tmp_path, {"command": "slope",
                                      "inputs": {"polytope": simplex, "sheaf": sheaf}})
    # the slope is the degree of facet 0, the lattice area big^2 / 2
    assert code == 0 and report["result"]["slope"] == f"{Decimal(big * big)}/2"
    p2 = json.loads(json.dumps(P2_SETUP))
    p2["polytope"]["facets"][0]["support"] = "1e5000"
    code, _ = run_job(tmp_path, {"command": "classify", "inputs": {"setup": p2}})
    assert code == 1 and capsys.readouterr().err.startswith("error: bad rational string")
    src = tmp_path / "literal.json"
    src.write_text('{"command": "slope", "inputs": {"polytope": ' + "9" * 5000 + "}}")
    assert main(["--input", str(src)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


SEGMENT_O = {"rank": 1, "filtrations": {f: [{"i": 0, "basis": [["1"]]}] for f in "01"}}


def test_facet_ids_are_ascii_digits(tmp_path, capsys):
    # int() reads each of these keys as facet 2; a facet id is written in
    # its one canonical form, 0|[1-9][0-9]*, so no two keys name one facet.
    # SEGMENT_O lives on P2_SETUP's quotient, a segment
    def jobs(key):
        filts = dict(TANGENT_SHEAF["filtrations"])
        filts[key] = filts.pop("2")
        sheaf = {"rank": 2, "filtrations": filts}
        return (
            {"command": "slope", "inputs": {"polytope": P2_SETUP["polytope"], "sheaf": sheaf}},
            {"command": "pullback", "inputs": {"setup": P2_SETUP, "sheaf": SEGMENT_O,
                                               "indices": {key: 0}}},
            {"command": "bundle", "inputs": {"base": SQUARE, "summands": [{"0": 1}, {key: 1}]}},
        )

    for job in jobs("2"):
        assert run_job(tmp_path, job)[0] == 0, job
    for key in (" 2", "2 ", "+2", "\u0662", "0_2", "02", "002"):
        for job in jobs(key):
            code, _ = run_job(tmp_path, job)
            assert code == 1, job
            assert capsys.readouterr().err.startswith("error: facet ids must be integers"), job
    # "2" and "02" were one key, and the last one won
    job = {"command": "pullback", "inputs": {"setup": P2_SETUP, "sheaf": SEGMENT_O,
                                             "indices": {"2": 0, "02": 5}}}
    assert run_job(tmp_path, job)[0] == 1
    assert capsys.readouterr().err.startswith("error: facet ids must be integers")


def test_rational_strings_are_integers_or_p_over_q():
    for text, want in (("7", Fraction(7)), ("-3/4", Fraction(-3, 4)), ("+6/4", Fraction(3, 2))):
        assert frac_from_obj(text) == want
    for text in ("1e5000", "0.5", " 1/2", "1/0", "1_000", "inf", "1/-2", "", "٣"):
        with pytest.raises(InputError, match="bad rational string"):
            frac_from_obj(text)
    assert frac_to_str(Fraction(-(10 ** 5000), 3)) == f"-1{'0' * 5000}/3"


SQUARE = {"n": 2, "facets": [
    {"normal": [1, 0], "support": "0/1"}, {"normal": [-1, 0], "support": "2/1"},
    {"normal": [0, 1], "support": "0/1"}, {"normal": [0, -1], "support": "2/1"}]}

# one small valid job per cheap command
FUZZ_JOBS = (
    {"command": "quotient", "inputs": {"setup": P2_SETUP}},
    {"command": "classify", "inputs": {"setup": P2_SETUP}},
    {"command": "slope", "inputs": {"polytope": P2_SETUP["polytope"], "sheaf": TANGENT_SHEAF}},
    {"command": "stability",
     "inputs": {"polytope": P2_SETUP["polytope"], "sheaf": TANGENT_SHEAF},
     "options": {"cap": 50, "random_trials": 5, "seed": 3}},
    {"command": "descend", "inputs": {"setup": P2_SETUP, "sheaf": TANGENT_SHEAF}},
    {"command": "pullback",
     "inputs": {"setup": P2_SETUP, "sheaf": TANGENT_SHEAF, "indices": {"2": 0}}},
    {"command": "pushforward", "inputs": {"setup": P2_SETUP, "sheaf": TANGENT_SHEAF}},
    {"command": "minkowski-check", "inputs": {"setup": P2_SETUP}},
    {"command": "falsify-converse", "inputs": {"setup": P2_SETUP}},
    {"command": "compatible-subgroups", "inputs": {"polytope": P2_SETUP["polytope"]},
     "options": {"k_max": 3}},
    {"command": "solve-minkowski", "inputs": SQUARE_TARGETS,
     "options": {"tol": 1e-6, "max_iter": 50, "seed": 2}},
    {"command": "bundle", "inputs": {"base": SQUARE, "summands": [{"0": 1}, {"2": 1}]}},
)
JUNK = ("x", float("nan"), float("inf"), float("-inf"), [], {}, None, True, 10 ** 30, "1/0")


def _paths(obj, path=()):
    """Every position in a JSON value: each leaf and each nested list or object."""
    if path:
        yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def test_mutated_jobs_exit_with_documented_codes(tmp_path, capsys):
    # every mutated job returns a report (0) or fails with a typed error (1, 2)
    rng = Random(61)
    for k in range(360):
        job = json.loads(json.dumps(FUZZ_JOBS[k % len(FUZZ_JOBS)]))
        *parents, last = rng.choice(list(_paths(job)))
        node = job
        for key in parents:
            node = node[key]
        node[last] = rng.choice(JUNK)
        code, _ = run_job(tmp_path, job)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (job, err)
        assert code == 0 or err.split(":")[0] in ("error", "infeasible", "failed"), (job, err)


def test_internal_error_exits_three_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(command, payload, options):
        raise InternalError("invariant violated")

    monkeypatch.setattr(cli, "run_command", broken)
    code, report = run_job(tmp_path, {"command": "classify", "inputs": {"setup": P2_SETUP}})
    err = capsys.readouterr().err
    assert code == 3 and report is None
    assert err.startswith("internal: InternalError: invariant violated")
    assert "Traceback" not in err
