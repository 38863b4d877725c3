import json
import time

import pytest

from cantorseries.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_certify_json(capsys):
    code, report, _ = run_json(capsys, "certify", "--q", "rule:odd", "--x", "rat:1/2")
    assert code == 0
    assert report == {"n": 0, "m": 1, "sigma": "1/2", "block_product": 3, "witness_ok": True}


def test_expand_json(capsys):
    code, report, _ = run_json(capsys, "expand", "--q", "const:10", "--x", "rat:0/1", "--count", "3")
    assert code == 0
    assert report["digits"] == [0, 0, 0]
    assert report["sigma"] == "0/1"


def test_expand_plain_and_json_agree(capsys):
    code, report, _ = run_json(capsys, "expand", "--q", "rule:odd", "--x", "rat:1/2", "--count", "4")
    assert code == 0
    code, plain, _ = run_cli(capsys, "expand", "--q", "rule:odd", "--x", "rat:1/2", "--count", "4")
    assert code == 0
    assert "digits: 1,2,3,4" in plain
    assert f"sigma: {report['sigma']}" in plain


def test_eval_digits_includes_enclosure(capsys):
    code, report, _ = run_json(capsys, "eval", "--q", "periodic:2,3", "--x", "digits:1,2")
    assert code == 0
    assert report == {"form": "digits", "value": "5/6", "low": "5/6", "high": "1/1"}


def test_eval_other_forms(capsys):
    assert run_json(capsys, "eval", "--q", "rule:odd", "--x", "block:|1")[1]["value"] == "1/2"
    assert run_json(capsys, "eval", "--q", "periodic:2,3", "--x", "cofinite:0")[1]["value"] == "1/2"
    assert run_json(capsys, "eval", "--q", "const:10", "--x", "rat:1/3")[1]["value"] == "1/3"


def test_verify_json(capsys):
    code, report, _ = run_json(capsys, "verify", "--q", "const:10", "--x", "rat:1/3", "--n", "0", "--m", "2")
    assert code == 0
    assert report["ok"] is True
    code, report, _ = run_json(capsys, "verify", "--q", "periodic:2,3", "--x", "rat:5/6", "--n", "0", "--m", "2")
    assert code == 0
    assert report["ok"] is False and report["reason"] == "recurrence_mismatch"
    code, report, _ = run_json(capsys, "verify", "--q", "const:10", "--x", "rat:1/3", "--n", "-1", "--m", "1")
    assert report == {"ok": False, "reason": "invalid_fields", "recurrence_ok": False, "divisibility_ok": False}


def test_verify_far_certificate_is_fast(capsys):
    # n = 10**8: the check is a closed form in n, not a walk of n + m steps.
    began = time.perf_counter()
    code, report, _ = run_json(capsys, "verify", "--q", "const:10", "--x", "rat:1/3", "--n", "100000000", "--m", "1")
    assert time.perf_counter() - began < 2.0
    assert code == 0 and report["ok"] is True


def test_reconstruct_json(capsys):
    code, report, _ = run_json(capsys, "reconstruct", "--q", "rule:odd", "--x", "block:|1")
    assert code == 0
    assert report == {"value": "1/2", "n": 0, "m": 1}


def test_reconstruct_requires_block_form(capsys):
    code, _, err = run_cli(capsys, "reconstruct", "--q", "rule:odd", "--x", "rat:1/2")
    assert code == 2 and "block" in err


def test_dual_yes_json(capsys):
    code, report, _ = run_json(capsys, "dual", "--q", "periodic:2,3", "--x", "rat:1/2")
    assert code == 0
    assert report == {
        "x": "1/2",
        "decision": "yes",
        "n0": 1,
        "finite": [1],
        "cofinite_head": [0],
        "tail_start": 2,
    }


def test_dual_no_exit_zero(capsys):
    code, report, _ = run_json(capsys, "dual", "--q", "rule:odd", "--x", "rat:1/2")
    assert code == 0
    assert report["decision"] == "no"


def test_dual_undecided_exit_three(capsys):
    code, report, _ = run_json(capsys, "dual", "--q", "rule:odd", "--x", "rat:1/9", "--bound", "1")
    assert code == 3
    assert report == {"x": "1/9", "decision": "undecided", "bound": 1}


def test_convert_round_trip(capsys):
    code, report, _ = run_json(capsys, "convert", "--q", "periodic:2,3", "--x", "digits:1,2")
    assert code == 0
    assert report == {"form": "cofinite", "head": [1, 1], "tail_start": 3, "value": "5/6"}
    code, report, _ = run_json(capsys, "convert", "--q", "periodic:2,3", "--x", "cofinite:1,1")
    assert code == 0
    assert report == {"form": "finite", "digits": [1, 2], "value": "5/6"}


def test_shift_const_json(capsys):
    code, report, _ = run_json(capsys, "shift-const", "--q", "rule:odd", "--x", "rat:1/2", "--horizon", "5")
    assert code == 0
    assert report["holds"] is True
    assert report["constant"] == "1/2"
    assert report["witnesses"][0] == [1, 1, 3]


def test_shift_const_accepts_block_form(capsys):
    code, report, _ = run_json(capsys, "shift-const", "--q", "rule:odd", "--x", "block:|1", "--horizon", "5")
    assert code == 0
    assert report["holds"] is True and report["constant"] == "1/2"


def test_regroup_accepts_digits_form(capsys):
    code, report, _ = run_json(
        capsys, "regroup", "--q", "periodic:2,3", "--x", "digits:1,0,1,0", "--breakpoints", "2,4"
    )
    assert code == 0
    assert report["bases"] == [6, 6] and report["digits"] == [3, 3]


def test_fixed_points_json(capsys):
    code, report, _ = run_json(capsys, "fixed-points", "--q", "periodic:3,4")
    assert code == 0
    assert report["q"] == 3
    assert [c["member"] for c in report["candidates"]] == [True, False, True]
    assert report["candidates"][1]["failing_position"] == 2
    assert report["candidates"][2]["endpoint"] is True


def test_regroup_json(capsys):
    code, report, _ = run_json(
        capsys, "regroup", "--q", "periodic:2,3", "--x", "rat:3/5", "--breakpoints", "2,4,6"
    )
    assert code == 0
    assert report["bases"] == [6, 6, 6]
    assert report["digits"] == [3, 3, 3]
    assert report["mu"] == 5 and report["lambda"] == 3
    assert report["ratio_constant"] is True and report["proportional"] is True


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "expand", "--q", "const:10", "--count", "3")[0] == 1  # missing --x
    assert run_cli(capsys, "nonsense", "--q", "const:10")[0] == 1
    assert run_cli(capsys, "expand", "--q", "periodic:1", "--x", "rat:0/1", "--count", "1")[0] == 1
    assert run_cli(capsys, "expand", "--q", "const:10", "--x", "rat:1-2", "--count", "1")[0] == 1
    assert run_cli(capsys, "expand", "--q", "const:10", "--x", "rat:1/0", "--count", "1")[0] == 1


def test_domain_errors_exit_two(capsys):
    assert run_cli(capsys, "expand", "--q", "const:10", "--x", "rat:3/2", "--count", "1")[0] == 2
    assert run_cli(capsys, "dual", "--q", "const:10", "--x", "rat:0/1")[0] == 2
    assert run_cli(capsys, "convert", "--q", "const:10", "--x", "digits:0")[0] == 2
    assert run_cli(capsys, "eval", "--q", "periodic:2,3", "--x", "digits:5,5")[0] == 2


def test_output_is_deterministic(capsys):
    args = ("certify", "--q", "periodic:5,2,7", "--x", "rat:13/40", "--json")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_plain_rendering_of_nested_reports(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--q", "periodic:3,4")
    assert code == 0
    assert "q: 3" in out
    assert "eps=1 value=1/2 member=false" in out


def test_errors_go_to_stderr_not_stdout(capsys):
    code, out, err = run_cli(capsys, "expand", "--q", "const:10", "--x", "rat:3/2", "--count", "1")
    assert code == 2
    assert out == ""
    assert "domain error" in err


def test_integers_past_the_default_int_to_str_limit(capsys):
    # const:10 recurs on 1/100003 after m = 50001 steps: the block product
    # 10**50001 has more digits than Python prints by default.
    code, plain, err = run_cli(capsys, "certify", "--q", "const:10", "--x", "rat:1/100003")
    assert code == 0 and err == ""
    code, report, err = run_json(capsys, "certify", "--q", "const:10", "--x", "rat:1/100003")
    assert code == 0 and err == ""
    assert report["block_product"] == 10 ** report["m"]
    assert f"block_product: {report['block_product']}" in plain
