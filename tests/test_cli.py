import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorseries
from cantorseries.cli import _COMMANDS, main


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


def test_verify_far_certificate_on_the_rule_sequence_is_fast(capsys):
    # n = 10**8 bases of rule:odd: any v consecutive bases have one product mod v,
    # so the check takes at most v multiplies, not n.
    began = time.perf_counter()
    code, report, _ = run_json(capsys, "verify", "--q", "rule:odd", "--x", "rat:1/3", "--n", "100000000", "--m", "1")
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


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--q", "const:10", "--x", "rat:1/3", "--count", "99999999999999999999"),
        ("verify", "--q", "rule:odd", "--x", "rat:1/3", "--n", "99999999999999999999", "--m", "1"),
        ("shift-const", "--q", "const:10", "--x", "rat:1/3", "--n0", "99999999999999999999", "--horizon", "1"),
        ("regroup", "--q", "const:10", "--x", "rat:1/3", "--breakpoints", "99999999999999999999"),
        # a block product of 10**20 bases, which the closed-form power could not hold
        ("verify", "--q", "const:10", "--x", "rat:1/3", "--n", "0", "--m", "99999999999999999999"),
    ],
)
def test_counts_past_sys_maxsize_exit_two(capsys, argv):
    for mode in ((), ("--json",)):
        code, out, err = run_cli(capsys, *argv, *mode)
        assert code == 2 and out == ""
        assert err.startswith("domain error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("regroup", "--q", "const:10", "--x", "rat:1/3", "--breakpoints", "10000000000"),
        ("verify", "--q", "const:10", "--x", "rat:1/3", "--n", "0", "--m", "10000000000"),
    ],
)
def test_block_products_past_the_size_bound_exit_two_at_once(capsys, argv):
    # 10**(10**10) is below sys.maxsize bases but would take hours to square out
    began = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - began < 2.0
    assert (code, out) == (2, "") and err.startswith("domain error: ") and "bits" in err


CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cantorseries.__file__).resolve().parent.parent)}


def run_child(argv, **kwargs):
    return subprocess.run(
        [sys.executable, *argv], env=CHILD_ENV, capture_output=True, text=True, timeout=120, **kwargs
    )


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    probe = "import sys, cantorseries.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    done = run_child(["-S", "-c", probe])
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_phase_search_is_loaded_only_when_a_certificate_needs_it():
    # a cold call pays for compiling _phases only when it certifies a
    # list-backed value with v >= 512 whose recurrence the scan does not
    # meet within its budget of about sqrt(v) steps: 1/7 (v < 512) and
    # 1/(2 * 6**40 - 1) on periodic:2,3 (m = 81) do not load it, 1/1019 on
    # const:10 (m = 1018) does
    probe = (
        "import sys, cantorseries.cli\n"
        "from fractions import Fraction\n"
        "from cantorseries import Constant, Periodic, certify_rational\n"
        "loaded = lambda: 'cantorseries._phases' in sys.modules\n"
        "seen = [loaded()]; certify_rational(Fraction(1, 7), Constant(10)); seen.append(loaded())\n"
        "certify_rational(Fraction(1, 2 * 6**40 - 1), Periodic((2, 3))); seen.append(loaded())\n"
        "certify_rational(Fraction(1, 1019), Constant(10)); print(seen + [loaded()])"
    )
    done = run_child(["-S", "-c", probe])
    assert (done.returncode, done.stdout, done.stderr) == (0, "[False, False, False, True]\n", "")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="sizes the cap from /proc/self/status")
@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--q", "const:10", "--x", "rat:1/3", "--count", "10000000000"),
        ("shift-const", "--q", "const:10", "--x", "rat:1/3", "--horizon", "10000000000", "--json"),
    ],
)
def test_memory_exhaustion_is_a_domain_error(argv):
    # Counts below sys.maxsize but past memory: the digit list outgrows a
    # cap on the child's address space, 64 MiB above what importing the CLI
    # took.  setrlimit runs in the child alone, between fork and exec.
    resource = pytest.importorskip("resource")
    probe = run_child(["-c", "import cantorseries.cli; print(open('/proc/self/status').read())"])
    peak_kb = next(int(line.split()[1]) for line in probe.stdout.splitlines() if line.startswith("VmPeak:"))
    cap = peak_kb * 1024 + 64 * 2**20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = run_child(["-m", "cantorseries.cli", *argv], preexec_fn=limit_address_space)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "domain error: out of memory\n")


README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE_PROMPT = "$ cantorseries "


def readme_examples():
    """(argv, next README line) for each `$ cantorseries ... --json` example."""
    lines = README.read_text().splitlines()
    return [
        (shlex.split(line[len(EXAMPLE_PROMPT) :]), lines[i + 1])
        for i, line in enumerate(lines)
        if line.startswith(EXAMPLE_PROMPT) and line.endswith(" --json")
    ]


def test_readme_has_one_json_example_per_verb():
    assert sorted(argv[0] for argv, _ in readme_examples()) == sorted(_COMMANDS)


@pytest.mark.parametrize("argv,expected", readme_examples(), ids=[argv[0] for argv, _ in readme_examples()])
def test_readme_examples_print_the_documented_line(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected + "\n", "")


# --- fuzz of the --q and --x grammars -----------------------------------------------
# Integers stay small: certify on rule:odd scans up to v states and fixed-points
# lists q candidates.  Counts, verify --m on every sequence among them, also
# come past sys.maxsize, where they cannot be materialised.

JUNK = st.sampled_from(
    ["", "x", ":", "-1", "1/0", "rat:", "rat:1/", "rat:1/0", "digits:,", "digits:a", "block:|", "block:1|",
     "cofinite:", "prefix:;", "const:", "const:1", "periodic:2,0", "rule:", "rule:even", "--bogus", "\u00e9", "9" * 30]
)
HUGE = st.integers(min_value=sys.maxsize + 1, max_value=10**30)
SMALL = st.integers(min_value=-2, max_value=300)
DIGITS = st.integers(min_value=0, max_value=12)
BASES = st.integers(min_value=2, max_value=12)


def joined(xs):
    return ",".join(map(str, xs))


def int_lists(entries, min_size, max_size):
    return st.lists(entries, min_size=min_size, max_size=max_size).map(joined)


QSPECS = st.one_of(
    BASES.map(lambda q: f"const:{q}"),
    int_lists(BASES, 1, 3).map(lambda qs: f"periodic:{qs}"),
    st.tuples(int_lists(BASES, 1, 2), int_lists(BASES, 1, 2)).map(lambda pp: f"prefix:{pp[0]};{pp[1]}"),
    st.just("rule:odd"),
)
XSPECS = st.one_of(
    st.tuples(SMALL, st.integers(min_value=1, max_value=300)).map(lambda nd: f"rat:{nd[0]}/{nd[1]}"),
    int_lists(DIGITS, 0, 3).map(lambda ds: f"digits:{ds}"),
    st.tuples(int_lists(DIGITS, 0, 2), int_lists(DIGITS, 1, 2)).map(lambda pb: f"block:{pb[0]}|{pb[1]}"),
    int_lists(DIGITS, 1, 3).map(lambda hs: f"cofinite:{hs}"),
)
COUNT_FLAGS = {
    "expand": ["--count"],
    "verify": ["--n", "--m"],
    "dual": ["--bound"],
    "shift-const": ["--n0", "--horizon"],
    "regroup": ["--blocks"],
}


def rarely(draw):
    # a middle value: hypothesis draws the ends of a range more often
    return draw(st.integers(min_value=0, max_value=9)) == 5


def token(draw, valid):
    """A grammar token, or one time in ten a junk token."""
    return draw(JUNK) if rarely(draw) else str(draw(valid))


@st.composite
def cli_argv(draw):
    verb = draw(st.sampled_from(sorted(_COMMANDS) + ["bogus"]))
    q = token(draw, QSPECS)
    argv = [verb, "--q", q]
    if verb != "fixed-points":
        argv += ["--x", token(draw, XSPECS)]
    for flag in COUNT_FLAGS.get(verb, []):
        if not rarely(draw):
            argv += [flag, token(draw, st.one_of(SMALL, HUGE))]
    if verb == "regroup":
        increasing = st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4, unique=True)
        any_order = int_lists(st.one_of(SMALL, HUGE), 1, 4)
        argv += ["--breakpoints", token(draw, st.one_of(increasing.map(sorted).map(joined), any_order))]
    if draw(st.booleans()):
        argv.append("--json")
    if rarely(draw):
        argv.append(draw(JUNK))
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_cli_grammar_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 3):
        assert out.getvalue() and not err.getvalue()
    else:
        assert not out.getvalue() and err.getvalue().count("\n") == 1
