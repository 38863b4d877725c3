import argparse
import ast
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
from cantorseries import ParseError, parse_qseq
from cantorseries.cli import _COMMANDS, _COMMON, _UsageError, _parse_args, main


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


def test_verify_builds_no_block_product(capsys, monkeypatch):
    # without a claimed product to compare, P - 1 is needed mod v only
    built = []
    real = cantorseries.base_product
    for module in (cantorseries.foundation, cantorseries.rationality, cantorseries.cli):
        monkeypatch.setattr(module, "base_product", lambda *args: built.append(args) or real(*args), raising=False)
    code, report, _ = run_json(capsys, "verify", "--q", "const:10", "--x", "rat:1/3", "--n", "0", "--m", "6")
    assert code == 0 and report["ok"] is True
    code, report, _ = run_json(capsys, "verify", "--q", "const:10", "--x", "rat:1/7", "--n", "0", "--m", "999996")
    assert code == 0 and report["ok"] is True
    assert built == []


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
    assert run_cli(capsys, "expand", "--q", "const:10", "--x", "rat:1/\u0663", "--count", "1")[0] == 1
    assert run_cli(capsys, "eval", "--q", "const:10", "--x", "digits:1_0")[0] == 1
    assert run_cli(capsys, "regroup", "--q", "const:10", "--x", "rat:1/3", "--breakpoints", "2,4_0")[0] == 1
    assert run_cli(capsys, "expand", "--q", "const:10", "--x", "rat:1/3", "--count", "\u0661\u0660")[0] == 1
    assert run_cli(capsys, "reconstruct", "--q", "const:10", "--x", "block:1,2") == (
        1, "", "parse error: block form is block:<pre|block>, got 'block:1,2'\n"
    )


def test_domain_errors_exit_two(capsys):
    assert run_cli(capsys, "expand", "--q", "const:10", "--x", "rat:3/2", "--count", "1")[0] == 2
    assert run_cli(capsys, "dual", "--q", "const:10", "--x", "rat:0/1")[0] == 2
    assert run_cli(capsys, "convert", "--q", "const:10", "--x", "digits:0")[0] == 2
    assert run_cli(capsys, "eval", "--q", "periodic:2,3", "--x", "digits:5,5")[0] == 2


@pytest.mark.parametrize("mode", [(), ("--json",)])
@pytest.mark.parametrize("spec,shown", [("3/2", "3/2"), ("-1/2", "-1/2"), ("2/2", "1")])
def test_eval_of_a_rational_outside_the_unit_interval_is_a_domain_error(capsys, spec, shown, mode):
    got = run_cli(capsys, "eval", "--q", "const:10", "--x", f"rat:{spec}", *mode)
    assert got == (2, "", f"domain error: value must lie in [0, 1), got {shown}\n")


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
    # 10**50001 has more digits than Python prints by default.  The output
    # is read as text: main lifts the limit for its own call only.
    product = "1" + "0" * 50001
    code, plain, err = run_cli(capsys, "certify", "--q", "const:10", "--x", "rat:1/100003")
    assert (code, err) == (0, "")
    assert "\nm: 50001\n" in plain and f"\nblock_product: {product}\n" in plain
    code, out, err = run_cli(capsys, "certify", "--q", "const:10", "--x", "rat:1/100003", "--json")
    assert (code, err) == (0, "")
    assert '"m": 50001, ' in out and f'"block_product": {product}, ' in out


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before Python 3.10.7")
def test_main_leaves_the_int_to_str_limit_as_it_found_it(capsys):
    calls = [
        (("certify", "--q", "const:10", "--x", "rat:1/100003"), 0),  # prints 10**50001
        (("certify", "--q", "const:10"), 1),  # usage error: no --x
        (("certify", "--q", "const:1x", "--x", "rat:1/7"), 1),  # parse error
        (("certify", "--q", "const:10", "--x", "rat:3/2"), 2),  # domain error
    ]
    caller = sys.get_int_max_str_digits()
    try:
        for limit in (caller, 5000):
            sys.set_int_max_str_digits(limit)
            for argv, code in calls:
                assert run_cli(capsys, *argv)[0] == code
                assert sys.get_int_max_str_digits() == limit
            with pytest.raises(SystemExit):
                main(["--help"])
            capsys.readouterr()
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(caller)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit before Python 3.10.7")
def test_a_base_past_the_int_digit_limit_parses_only_in_the_cli(capsys):
    # 5,001 digits pass Python's default limit of 4,300: parse_qseq refuses
    # them under that limit, and main, which lifts it for its own call,
    # reads them and then restores it
    text = "const:1" + "0" * 5000
    caller = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ParseError):
            parse_qseq(text)
        assert run_cli(capsys, "eval", "--q", text, "--x", "rat:1/3") == (0, "form: rat\nvalue: 1/3\n", "")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(caller)


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
    # argv is read by hand, so neither argparse nor the gettext and locale it brings is loaded
    heavy = "{'dataclasses', 'inspect', 'typing', 'argparse', 'gettext', 'locale'}"
    probe = f"import sys, cantorseries.cli; print(sorted({heavy} & set(sys.modules)))"
    done = run_child(["-S", "-c", probe])
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("verb", [None, *_COMMANDS])
def test_help_exits_zero_with_the_help_on_stdout(verb):
    done = run_child(["-m", "cantorseries.cli", *([verb] if verb else []), "--help"])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith(f"usage: cantorseries {verb or '<verb>'} ")


def test_bare_package_import_loads_no_submodule():
    # PEP 562: `import cantorseries`, and so `python -m cantorseries.cli`,
    # compiles no library module; the first lookup of a submodule loads them
    probe = (
        "import sys, cantorseries\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('cantorseries.'))\n"
        "print(loaded()); print(cantorseries.structure.__name__); print(loaded())"
    )
    done = run_child(["-S", "-c", probe])
    modules = "['cantorseries.expansion', 'cantorseries.foundation', 'cantorseries.rationality', 'cantorseries.structure']"
    assert (done.returncode, done.stdout, done.stderr) == (0, f"[]\ncantorseries.structure\n{modules}\n", "")


MODULE_DUNDERS = {
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__", "__package__", "__path__",
    "__spec__",
}
LIBRARY = ("foundation", "expansion", "rationality", "structure")


def test_package_surface_is_what_star_imports_of_the_four_modules_made():
    modules = [getattr(cantorseries, stem) for stem in LIBRARY]
    public = [name for module in modules for name in module.__all__]
    assert cantorseries.__all__ == public and len(set(public)) == len(public) == 50
    star: dict = {}
    exec("from cantorseries import *", star)
    del star["__builtins__"]
    assert star == {name: getattr(module, name) for module in modules for name in module.__all__}
    # bound as plain attributes: a lookup is a dict hit, not a __getattr__ call
    assert set(public) <= set(vars(cantorseries)) and "__getattr__" not in vars(cantorseries)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        cantorseries.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from cantorseries import nope", {})


@pytest.mark.parametrize("first", ["dir(cantorseries)", "cantorseries.nope"])
def test_first_lookup_gives_the_namespace_an_eager_import_gave(first):
    # dir() as the first lookup lists what the four star imports bound; an
    # unknown name as the first lookup raises AttributeError and leaves the
    # same namespace
    probe = (
        "import cantorseries\n"
        f"try:\n    {first}\nexcept AttributeError as exc:\n    print(exc)\n"
        "print(sorted(dir(cantorseries)))"
    )
    done = run_child(["-S", "-c", probe])
    want = sorted(MODULE_DUNDERS | {"__all__", "__version__", *LIBRARY, *cantorseries.__all__})
    lines = ["module 'cantorseries' has no attribute 'nope'"] if first == "cantorseries.nope" else []
    assert (done.returncode, done.stdout.splitlines(), done.stderr) == (0, lines + [str(want)], "")


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


def test_packing_is_loaded_only_for_a_long_word_on_a_list_backed_sequence():
    # a cold call pays for compiling _packing only when it checks a word of
    # more than 64 digits on a period of at most 64 bases, or expands at
    # least 256 digits there: 64 digits on const:10, 65 on rule:odd, and
    # expansions of 255 digits on const:10 and of 300 on rule:odd do not
    # load it; a 65-digit word on const:10 does, and so does a 256-digit
    # expansion, in a process of its own; loading it brings in no other
    # library module
    probe = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from cantorseries.foundation import Constant, Rule\n"
        "from cantorseries.expansion import DigitWord, evaluate_finite, expand\n"
        "loaded = lambda: 'cantorseries._packing' in sys.modules\n"
        "seen = [loaded()]; evaluate_finite(DigitWord((1,) * 64), Constant(10)); seen.append(loaded())\n"
        "evaluate_finite(DigitWord((1,) * 65), Rule('odd')); seen.append(loaded())\n"
        "expand(Fraction(1, 7), Constant(10), 255); seen.append(loaded())\n"
        "expand(Fraction(1, 7), Rule('odd'), 300); seen.append(loaded())\n"
        "{}; seen.append(loaded())\n"
        "print(seen, sorted(m for m in sys.modules if m.startswith('cantorseries.')))"
    )
    modules = ["cantorseries._packing", "cantorseries.expansion", "cantorseries.foundation"]
    for loads in ("evaluate_finite(DigitWord((1,) * 65), Constant(10))", "expand(Fraction(1, 7), Constant(10), 256)"):
        done = run_child(["-S", "-c", probe.format(loads)])
        want = f"[False, False, False, False, False, True] {modules}\n"
        assert (done.returncode, done.stdout, done.stderr) == (0, want, ""), loads


def test_a_private_name_is_not_looked_up_in_the_library():
    # hasattr(package, "_packing"), which `from . import _packing` makes
    # before it imports, and any other private or dunder name but __all__,
    # fail at once without loading the four library modules; the import
    # form then loads _packing and foundation alone, and public names
    # still resolve
    probe = (
        "import sys, cantorseries\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('cantorseries.'))\n"
        "print(hasattr(cantorseries, '_packing'), hasattr(cantorseries, '__wrapped__'), loaded())\n"
        "from cantorseries import _packing\n"
        "print(loaded())\n"
        "print(cantorseries.expand.__name__, len(cantorseries.__all__), len(loaded()))"
    )
    done = run_child(["-S", "-c", probe])
    lines = ["False False []", "['cantorseries._packing', 'cantorseries.foundation']",
             "expand 50 5"]
    assert (done.returncode, done.stdout.splitlines(), done.stderr) == (0, lines, "")


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


EXPAND_1_7 = ("-m", "cantorseries.cli", "expand", "--q", "const:10", "--x", "rat:1/7", "--count")


def write_child(argv, stdout):
    return subprocess.run(
        [sys.executable, *argv], env=CHILD_ENV, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120
    )


def test_stdout_closed_early_is_an_output_error():
    # `expand ... | head -c 10`: the reader goes away after 10 of some
    # 400 kB, while the child is still writing
    child = subprocess.Popen(
        [sys.executable, *EXPAND_1_7, "200000"], env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    head = child.stdout.read(10)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (head, child.wait(timeout=120), err) == (b"x: 1/7\ndig", 1, b"output error: [Errno 32] Broken pipe\n")


def test_stdout_closed_before_a_short_write_is_an_output_error():
    # the whole report fits in the buffer, so it fails at the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as closed:
        done = write_child([*EXPAND_1_7, "3", "--json"], closed)
    assert (done.returncode, done.stderr) == (1, "output error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv", [["--help"], ["certify", "-h"]])
def test_help_to_a_closed_stdout_is_an_output_error(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as closed:
        done = write_child(["-m", "cantorseries.cli", *argv], closed)
    assert (done.returncode, done.stderr) == (1, "output error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
def test_full_stdout_is_an_output_error():
    with open("/dev/full", "wb") as full:
        done = write_child([*EXPAND_1_7, "3"], full)
    assert (done.returncode, done.stderr) == (1, "output error: [Errno 28] No space left on device\n")


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


# the library modules a README example loads, beyond foundation and expansion
VERB_LOADS = {
    "expand": set(), "eval": set(),
    "certify": {"rationality"}, "verify": {"rationality"}, "reconstruct": {"rationality"},
    "dual": {"structure"}, "convert": {"structure"}, "shift-const": {"structure"},
    "fixed-points": {"structure"}, "regroup": {"structure"},
}


def cold_call(argv):
    """(exit code, modules imported) of one cold CLI call, from the
    -X importtime lines it writes to stderr."""
    done = run_child(["-S", "-X", "importtime", "-m", "cantorseries.cli", *argv])
    loaded = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    return done.returncode, loaded


@pytest.mark.parametrize("mode", ["plain", "json"])
@pytest.mark.parametrize("argv", [argv for argv, _ in readme_examples()], ids=[argv[0] for argv, _ in readme_examples()])
def test_a_cold_call_loads_only_what_its_verb_uses(argv, mode):
    argv = argv if mode == "json" else argv[:-1]
    code, loaded = cold_call(argv)
    want = {f"cantorseries.{stem}" for stem in VERB_LOADS[argv[0]]} | ({"json"} if mode == "json" else set())
    assert code == 0
    assert loaded & {"cantorseries.rationality", "cantorseries.structure", "json"} == want


def test_a_rational_eval_loads_only_its_range_check():
    # the range check is expansion._unit_value; a rational needs nothing else
    code, loaded = cold_call(["eval", "--q", "const:10", "--x", "rat:3/2"])
    assert code == 2
    assert {m for m in loaded if m.startswith("cantorseries.")} == {"cantorseries.foundation", "cantorseries.expansion"}


def test_only_help_loads_the_help_text():
    # a cold call compiles _help only when it prints help; a usage error does not
    for argv, want in [
        (["certify", "--q", "const:10", "--x", "rat:1/7"], (0, False)),
        (["certify", "--q", "const:10"], (1, False)),
        (["certify", "--help"], (0, True)),
        (["-h"], (0, True)),
    ]:
        code, loaded = cold_call(argv)
        assert (code, "cantorseries._help" in loaded) == want, argv


def test_readme_quick_tour_gives_the_commented_values():
    # Each expression statement of the ```python block ends in a comment
    # naming its value; the other statements run as they stand.
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    source = text[start : text.index("```", start)]
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        expected = eval(comment, namespace)
        assert (type(got), got) == (type(expected), expected), lines[stmt.lineno - 1]
        checked.append(comment)
    assert checked == ["Fraction(1, 2)", '"yes"', "False", "(6, 6, 6)"]


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


# --- the hand parser against argparse -------------------------------------------------
# The reference is argparse itself, set up from the _COMMANDS table: a subparser per
# verb with the _COMMON flags, and errors raised instead of exit 2.  Both
# read the same argv; they must give the same verb and values, both print help, or
# both refuse it, and main then exits 1 with one usage error line.  Clustered short
# flags (-hh, -hx) are left out: the hand parser does not read them, and argparse
# reads them differently from one Python version to the next.


class Refused(Exception):
    pass


class ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise Refused(message)


def reference_parser():
    common = ReferenceParser(add_help=False)
    for name, spec in _COMMON:
        common.add_argument(name, **spec)
    parser = ReferenceParser(prog="cantorseries")
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_line, flags) in _COMMANDS.items():
        sub = verbs.add_parser(verb, parents=[common], help=help_line)
        for name, spec in flags:
            sub.add_argument(name, **spec)
    return parser


REFERENCE = reference_parser()


def reference_parse(argv):
    values = vars(REFERENCE.parse_args(argv))
    return values.pop("verb"), values


def hand_parse(argv):
    verb, args = _parse_args(argv)
    return verb, vars(args)


def outcome(parse, argv):
    """("ok", verb, values), ("help",) or ("error",): how parse reads argv."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return ("ok", *parse(argv))
    except SystemExit as exc:
        assert exc.code == 0 and out.getvalue()
        return ("help",)
    except (Refused, _UsageError):
        return ("error",)


def assert_parsers_agree(argv):
    got = outcome(hand_parse, argv)
    assert got == outcome(reference_parse, argv), argv
    if got == ("error",):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("usage error: ") and err.getvalue().count("\n") == 1
    return got[0]


@pytest.mark.parametrize(
    "line,kind",
    [
        ("verify --q rule:odd --x rat:1/3 --n -1 --m 1", "ok"),
        ("verify --q rule:odd --x rat:1/3 --n=-1 --m=1 --n 7", "ok"),
        ("expand --x=rat:1/3 --cou 5 --q=const:10 --json", "ok"),
        ("expand --q const:10 --x rat:1/3 --count 99999999999999999999 --co=3", "ok"),
        ("shift-const --q const:10 --x rat:1/3 --n 2 --h 5", "error"),
        ("shift-const --q const:10 --x rat:1/3 --n=2 --hor 5 --js", "ok"),
        ("regroup --q const:10 --x rat:1/3 --b 2", "error"),
        ("regroup --q const:10 --x rat:1/3 --br 2,4 --bl 1", "ok"),
        ("certify --q const:10 --x -.5", "ok"),
        ("certify --q const:10 --x '-a b'", "ok"),
        ("certify --q const:10 --x -a", "error"),
        ("certify --q const:10 --x -", "ok"),
        ("certify --q const:10 --x ''", "ok"),
        ("certify --q const:10 --x=", "ok"),
        ("certify --q const:10 --x rat:1/3 --json=", "error"),
        ("certify --q const:10 --x rat:1/3 --", "error"),
        ("certify --q const:10 -- --x rat:1/3", "error"),
        ("certify --q const:10 --x --", "error"),
        ("certify --q const:10 --x rat:1/3 stray", "error"),
        ("certify --q const:10 --x rat:1/3 --count 3", "error"),
        ("certify --bogus -h", "help"),
        ("certify stray --help", "help"),
        ("certify --q -h", "error"),
        ("certify --q const:10 --x rat:1/3 -- -h", "error"),
        ("--bogus -h", "help"),
        ("-- certify -h", "error"),
        ("--he", "help"),
        ("--help=1", "error"),
        ("-h=", "error"),
        ("certify", "error"),
        ("", "error"),
        ("bogus -h", "error"),
        ("-1", "error"),
        ("expand --q const:10 --x rat:1/3 --count x -h", "error"),
        ("expand --q const:10 --x rat:1/3 -h --count x", "help"),
    ],
)
def test_hand_parser_agrees_with_argparse(line, kind):
    assert assert_parsers_agree(shlex.split(line)) == kind


def test_dashes_after_equals_are_the_value(capsys):
    # argparse before Python 3.13 gave the list [] for --x=--, and the
    # handler failed on it with a traceback; the hand parser reads '--'
    assert hand_parse(["certify", "--q", "const:10", "--x=--"]) == ("certify", {"q": "const:10", "json": False, "x": "--"})
    assert run_cli(capsys, "certify", "--q", "const:10", "--x=--") == (
        1, "", "parse error: expected <form>:<spec> for a number, got '--'\n"
    )
    assert run_cli(capsys, "expand", "--q", "const:10", "--x", "rat:1/3", "--count=--") == (
        1, "", "usage error: argument --count: invalid integer value: '--'\n"
    )


VALUES = st.one_of(
    JUNK,
    st.sampled_from(["-", "--", "-.5", "-1.5", "-1e5", "a b", "-a b", "--x b", "-x", "rat:1/3", "const:10", "2,4,6"]),
    st.one_of(SMALL, HUGE, HUGE.map(lambda n: -n)).map(str),
)
STRAYS = st.one_of(
    JUNK,
    st.sampled_from(["-h", "--help", "--he", "--h", "--", "-", "--json", "-1", "a b"]),
    st.sampled_from(sorted({name for _, _, flags in _COMMANDS.values() for name, _ in flags})),
)


def flag_tokens(draw, name, spec):
    """One use of a flag: its name or a prefix of it, then a value as the next
    token or after '='; now and then a flag that takes no value gets one."""
    spelling = name[: draw(st.integers(min_value=3, max_value=len(name)))]
    takes_value = "action" not in spec
    if takes_value or rarely(draw):
        value = draw(VALUES)
        # argparse before Python 3.13 reads --x=-- as the value [] (test_dashes_after_equals_are_the_value)
        return [f"{spelling}={value}"] if value != "--" and draw(st.booleans()) else [spelling, value]
    return [spelling]


@st.composite
def parser_argv(draw):
    verb = draw(st.sampled_from(sorted(_COMMANDS)))
    uses = [
        flag_tokens(draw, name, spec)
        for name, spec in _COMMON + _COMMANDS[verb][2]
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2])))  # mostly once; absent or repeated
    ]
    uses += [[draw(STRAYS)] for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])))]
    argv = [verb] + [token for use in draw(st.permutations(uses)) for token in use]
    if rarely(draw):
        argv.insert(0, draw(STRAYS))
    if rarely(draw):
        argv.pop()  # most often a flag loses its value
    return argv


@settings(max_examples=500, deadline=None)
@given(parser_argv())
def test_hand_parser_agrees_with_argparse_on_generated_argv(argv):
    assert_parsers_agree(argv)
