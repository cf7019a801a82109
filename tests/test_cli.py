"""End-to-end tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from codeq.cli import main, parse_budget, WORK_UNITS_PER_SECOND
from codeq.cosets import coset_table
from codeq.cyclic import build_cyclic


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cosets_table(capsys):
    code, d = run(capsys, ["cosets", "--n", "8", "--q", "3"])
    assert code == 0
    assert d["cosets"] == [[0], [1, 3], [2, 6], [4], [5, 7]]


def test_gen_reports_dimension_and_polynomial(capsys):
    code, d = run(capsys, ["gen", "--n", "8", "--q", "3",
                           "--leaders", "0,1"])
    assert code == 0
    assert d["k"] == 8 - 3
    assert d["defining_set"]["leaders"] == [0, 1]
    assert d["defining_set"]["size"] == 3
    assert len(d["generator_poly"]) == 4  # degree = |A|


def test_gen_accepts_full_element_form(capsys):
    _, by_leaders = run(capsys, ["gen", "--n", "8", "--q", "3",
                                 "--leaders", "0,1"])
    _, by_elements = run(capsys, ["gen", "--n", "8", "--q", "3",
                                  "--leaders", "full:0,1,3"])
    assert by_leaders == by_elements


def test_equiv_inequivalent_pair_is_uncertified(capsys):
    code, d = run(capsys, ["equiv", "--n", "8", "--q", "3",
                           "--a", "0,1", "--b", "2,5"])
    assert code == 0
    assert d["certified"] is False
    assert d["certificates"] == []


def test_equiv_certificate_shape(capsys):
    code, d = run(capsys, ["equiv", "--n", "8", "--q", "3",
                           "--a", "0,1,4", "--b", "2,5"])
    assert code == 0
    assert d["certified"] is True
    for cert in d["certificates"]:
        assert set(cert) >= {"kind", "params", "direction", "verified"}
        assert cert["verified"] is True
        assert set(cert["direction"]) == {"source", "target"}
    assert any(c["kind"] == "half_twist" for c in d["certificates"])


def test_equiv_identity_at_length_one(capsys):
    code, d = run(capsys, ["equiv", "--n", "1", "--q", "2",
                           "--a", "0", "--b", "0"])
    assert code == 0 and d["certified"] is True
    first = d["certificates"][0]
    assert (first["kind"], first["params"]) == ("multiplier", [1])
    assert "explicit" not in {c["kind"] for c in d["certificates"]}
    code, d = run(capsys, ["classify", "--n", "1", "--q", "2"])
    assert code == 0 and d["class_count"] == 2


def test_classify_partitions_all_sets(capsys):
    code, d = run(capsys, ["classify", "--n", "8", "--q", "3"])
    assert code == 0
    assert sum(c["size"] for c in d["classes"]) == 2 ** 5
    assert d["class_count"] == len(d["classes"])


def test_consta_reports_hull_and_extension(capsys):
    code, d = run(capsys, ["consta", "--n", "111", "--leaders", "19,37"])
    assert code == 0
    assert (d["n"], d["k"]) == (111, 90)
    assert d["defining_set"]["modulus"] == 333
    assert d["defining_set"]["leaders"] == [19, 37]
    assert d["hull"] == {"dim": 18, "e": 3}


def test_consta_classify_lists_orbits_with_witnesses(capsys):
    code, d = run(capsys, ["consta-classify", "--n", "5"])
    assert code == 0
    assert d["orbit_count"] == 6
    sizes = sorted(len(o["members"]) for o in d["orbits"])
    assert sum(sizes) == 8  # all lane defining sets at n=5
    for o in d["orbits"]:
        assert set(o["witnesses"]) == {",".join(map(str, m))
                                       for m in o["members"]}


def test_quantum_routes_dual_containing_codes_directly(capsys):
    code, d = run(capsys, ["quantum", "--n", "15", "--q", "4",
                           "--leaders", "1"])
    assert code == 0
    assert d["construction"] == "crss"
    assert (d["n_q"], d["k_q"], d["e"]) == (15, 11, 0)


def test_quantum_extends_nearly_self_orthogonal_codes(capsys):
    code, d = run(capsys, ["quantum", "--n", "51", "--q", "4",
                           "--type", "cyclic", "--leaders", "0,2,7,17,34",
                           "--distance-budget", "300s"])
    assert code == 0
    assert set(d) >= {"n_q", "k_q", "e", "d_lb", "d_ub",
                      "construction", "seed"}
    assert (d["n_q"], d["k_q"], d["e"]) == (54, 32, 3)
    assert d["d_lb"] == d["d_ub"] == 6
    assert d["construction"] == "nearly_self_orthogonal"
    assert d["seed"] == 1


def test_search_reports_queried_orbit(capsys):
    code, d = run(capsys, ["search", "--n", "51", "--q", "4",
                           "--family", "cyclic",
                           "--leaders", "0,2,7,17,34"])
    assert code == 0
    assert d["total_sets"] == 2 ** 15
    assert d["queried"]["orbit_size"] == 24
    assert d["queried"]["representative"] == [0, 1, 3, 17, 34]


def test_search_writes_record_file(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code, d = run(capsys, ["search", "--n", "8", "--q", "3",
                           "--family", "cyclic",
                           "--distance-budget", "1000000",
                           "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == d["total_sets"] == 32
    rec = json.loads(lines[0])
    assert rec["v"] == 1
    assert d["evaluated"] == d["orbit_count"]
    assert d["incomplete"] == 0


def test_search_missing_targets_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code = main(["search", "--n", "8", "--q", "3", "--targets", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(missing) in json.loads(captured.err)["error"]


def test_search_unwritable_output_refused_before_searching(
        tmp_path, capsys, monkeypatch):
    def no_search(job):
        raise AssertionError("the search ran")

    monkeypatch.setattr("codeq.cli.search", no_search)
    out = tmp_path / "no_such_dir" / "records.jsonl"
    code = main(["search", "--n", "8", "--q", "3", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(out) in json.loads(captured.err)["error"]


def test_search_unknown_leaders_rejected(capsys):
    code = main(["search", "--n", "8", "--q", "3", "--leaders", "6"])
    capsys.readouterr()
    assert code == 2


def test_mindist_complete_bounds_exit_zero(capsys):
    code, d = run(capsys, ["mindist", "--n", "8", "--q", "3",
                           "--leaders", "0,1,4"])
    assert code == 0
    assert d["complete"] is True
    assert d["lb"] == d["ub"]
    assert set(d) >= {"lb", "ub", "strategy", "seed", "elapsed"}


def test_mindist_open_bounds_exit_three(capsys):
    code, d = run(capsys, ["mindist", "--n", "51", "--q", "4",
                           "--leaders", "0,1,3,5,7,11,17,19"])
    assert code == 3
    assert d["complete"] is False
    assert d["lb"] < d["ub"]


def test_mindist_exhaustive_out_of_budget_exit_three(capsys):
    # [15,11] over GF(4): the enumeration decides d = 3 after the 11
    # messages of weight 1, and a budget of 5 stops it among them
    code, d = run(capsys, ["mindist", "--n", "15", "--q", "4",
                           "--leaders", "1,3", "--distance-budget", "5",
                           "--strategy", "exhaustive"])
    assert code == 3
    assert d["strategy"] == "exhaustive" and d["complete"] is False
    assert (d["lb"], d["ub"], d["work"]) == (1, 3, 5)
    assert d["note"].startswith("budget 5 ran out")
    C = build_cyclic(15, 4, coset_table(15, 4).closure((1, 3))).base
    assert C.contains(d["witness"])
    assert sum(1 for x in d["witness"] if x) == d["ub"]


def test_mindist_enumeration_bounds_a_large_code_exit_three(capsys):
    # [51,25] over GF(4): no code is too large for the enumeration, which
    # stops at the budget with sound open bounds
    code, d = run(capsys, ["mindist", "--n", "51", "--q", "4", "--leaders",
                           "0,1,3,5,7,11,17,19", "--strategy", "exhaustive",
                           "--distance-budget", "100000"])
    assert code == 3
    assert d["strategy"] == "exhaustive" and d["complete"] is False
    assert (d["k"], d["lb"], d["ub"], d["work"]) == (25, 9, 12, 100000)
    assert d["note"].startswith("budget 100000 ran out")
    C = build_cyclic(51, 4, coset_table(51, 4).closure(
        (0, 1, 3, 5, 7, 11, 17, 19))).base
    assert C.contains(d["witness"])
    assert sum(1 for x in d["witness"] if x) == d["ub"]


def test_mindist_ladder_closes_under_the_dp_budget(capsys):
    # [15,11] over GF(4) under auto with a budget of 1000: the ladder
    # climbs before the enumeration and meets a word of weight 3 in 46
    # units, windowed rungs of 2, 15 and 29 side entries
    code, d = run(capsys, ["mindist", "--n", "15", "--q", "4",
                           "--leaders", "1,3", "--distance-budget", "1000"])
    assert code == 0
    assert d["strategy"] == "information_set" and d["complete"] is True
    assert (d["lb"], d["ub"], d["work"]) == (3, 3, 46)
    assert d["note"] == "exact: meet-in-the-middle ladder"
    C = build_cyclic(15, 4, coset_table(15, 4).closure((1, 3))).base
    assert C.contains(d["witness"])
    assert sum(1 for x in d["witness"] if x) == 3


def test_mindist_ladder_bound_survives_enumeration_budget_exit_three(capsys):
    # binary BCH [31,16,7], a cyclic code: the windowed ladder may climb to
    # weight 6 before the enumeration, but the budget pays for rungs 1 to 5
    # only (694 of 1000 units); the 306 left read messages of weight 1 and
    # 2, which meet a word of weight 7 while Chen's bound reaches only 6,
    # and the ladder's floor is kept
    code, d = run(capsys, ["mindist", "--n", "31", "--q", "2",
                           "--leaders", "1,3,5", "--distance-budget", "1000"])
    assert code == 3
    assert d["strategy"] == "exhaustive" and d["complete"] is False
    assert (d["n"], d["k"], d["lb"], d["ub"]) == (31, 16, 6, 7)
    assert d["work"] == 1000
    assert d["note"].startswith("budget 306 ran out")
    assert sum(1 for x in d["witness"] if x) == 7


def test_mindist_information_set_budget_exit_three(capsys):
    # the same code: the ladder's six windowed rungs cost 1,584 units, and
    # the 416 left do not pay for one information-set iteration of 696 rows
    code, d = run(capsys, ["mindist", "--n", "31", "--q", "2",
                           "--leaders", "1,3,5", "--strategy",
                           "information_set", "--distance-budget", "2000"])
    assert code == 3
    assert d["strategy"] == "information_set" and d["complete"] is False
    assert (d["lb"], d["ub"], d["witness"], d["work"]) == (7, 32, None, 1584)
    assert "budget 416 paid for 0 of 8 information-set iterations" in d["note"]


def test_mindist_accepts_exhaustive_strategy(capsys):
    code, d = run(capsys, ["mindist", "--n", "15", "--q", "4",
                           "--leaders", "1,3", "--strategy", "exhaustive"])
    assert code == 0
    assert d["strategy"] == "exhaustive" and d["complete"] is True
    assert (d["n"], d["k"], d["lb"], d["ub"], d["work"]) == (15, 11, 3, 3, 11)


def test_mindist_over_cap_syndrome_dp_exits_two(capsys):
    # syndrome_dp names no engine: a usage error with a JSON message,
    # whatever the code
    code = main(["mindist", "--n", "51", "--q", "4", "--leaders",
                 "0,1,3,5,7,11,17,19", "--strategy", "syndrome_dp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        "unknown strategy 'syndrome_dp'")


def test_closed_stdout_prints_no_traceback():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read what the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "codeq.cli", "cosets", "--n", "51",
             "--q", "4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode == 0


def test_quantum_constacyclic_five_qubit_code(capsys):
    code, d = run(capsys, ["quantum", "--n", "5", "--type", "constacyclic",
                           "--leaders", "1"])
    assert code == 0
    assert d["construction"] == "crss"
    assert (d["n_q"], d["k_q"], d["d_lb"], d["d_ub"]) == (5, 1, 3, 3)


def test_mindist_constacyclic(capsys):
    code, d = run(capsys, ["mindist", "--n", "11", "--q", "4",
                           "--type", "constacyclic", "--leaders", "1"])
    assert code == 0
    assert (d["n"], d["k"], d["q"], d["lb"], d["ub"]) == (11, 6, 4, 5, 5)
    assert d["complete"] is True
    _, full = run(capsys, ["mindist", "--n", "11", "--q", "4",
                           "--type", "constacyclic",
                           "--leaders", "full:1,4,16,25,31"])
    assert {k: v for k, v in full.items() if k != "elapsed"} == \
        {k: v for k, v in d.items() if k != "elapsed"}


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "15", "--q", "4", "--leaders", "17"],
    ["gen", "--n", "15", "--q", "4", "--leaders", "-1"],
    ["gen", "--n", "15", "--q", "4", "--leaders", "4"],
    ["gen", "--n", "15", "--q", "4", "--leaders", "full:1,2,8"],
    ["equiv", "--n", "8", "--q", "3", "--a", "0,1", "--b", "3"],
    ["quantum", "--n", "15", "--q", "4", "--leaders", "16"],
    ["mindist", "--n", "8", "--q", "3", "--leaders", "8"],
    ["consta", "--n", "5", "--leaders", "4"],
    ["consta", "--n", "5", "--leaders", "full:1,4,16"],
    ["consta", "--n", "5", "--leaders", "2"],
    ["consta", "--n", "5", "--leaders", "-2"],
    ["consta", "--n", "5", "--leaders", "full:1"],
    ["quantum", "--n", "5", "--type", "constacyclic", "--leaders", "4"],
    ["mindist", "--n", "5", "--q", "4", "--type", "constacyclic",
     "--leaders", "2"],
    ["search", "--n", "8", "--q", "3", "--leaders", "8"],
    ["search", "--family", "constacyclic", "--n", "5", "--leaders", "4"],
])
def test_leader_rule_exits_two(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


def test_family_checked_once(capsys):
    code = main(["mindist", "--n", "5", "--q", "3", "--type",
                 "constacyclic", "--leaders", "1"])
    assert code == 2
    assert "q = 4" in json.loads(capsys.readouterr().err)["error"]
    code = main(["consta", "--n", "4", "--leaders", "1"])
    assert code == 2
    assert "odd length" in json.loads(capsys.readouterr().err)["error"]


def test_search_accepts_full_leaders(capsys):
    _, by_leaders = run(capsys, ["search", "--n", "8", "--q", "3",
                                 "--leaders", "2"])
    _, by_elements = run(capsys, ["search", "--n", "8", "--q", "3",
                                  "--leaders", "full:2,6"])
    assert by_leaders == by_elements
    assert by_leaders["queried"]["leaders"] == [2]


def test_invalid_values_exit_two(capsys):
    code = main(["gen", "--n", "8", "--q", "2", "--leaders", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in json.loads(err)


def test_classify_unknown_kind_exits_two(capsys):
    code = main(["classify", "--n", "8", "--q", "3", "--use", "bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bogus" in json.loads(captured.err)["error"]


def test_classify_accepts_generalized_multiplier(capsys):
    _, default = run(capsys, ["classify", "--n", "25", "--q", "4"])
    code, narrow = run(capsys, ["classify", "--n", "25", "--q", "4", "--use",
                                "multiplier,affine,generalized_multiplier"])
    assert code == 0
    assert default["class_count"] == narrow["class_count"] == 18


def test_missing_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "8"])
    assert exc.value.code == 2


def test_budget_strings():
    assert parse_budget("300s") == 300 * WORK_UNITS_PER_SECOND
    assert parse_budget("12345") == 12345
    assert parse_budget("1.5s") == int(1.5 * WORK_UNITS_PER_SECOND)
    import argparse
    for bad in ("threehundred", "-5", "-1s", "infs"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_budget(bad)
