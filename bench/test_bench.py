"""Tests of the benchmark itself: its oracles and its checks.

Run with `python -m pytest bench`.  The oracles must reproduce cases worked
by hand from the paper, and every workload's check must reject a result
that was deliberately corrupted.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import tracing
import workloads
from workloads import SRC, SPECS

sys.path.insert(0, str(SRC))
import cantorseries as cs  # noqa: E402

NULL = tracing.NullTracer()


def test_one_half_over_odd_bases_has_digit_n_and_certificate_0_1():
    digits, tail = oracles.expansion(Fraction(1, 2), "rule:odd", 12)
    assert digits == list(range(1, 13))
    assert tail == Fraction(1, 2)
    s = oracles.scan(Fraction(1, 2), "rule:odd")
    assert (s.n, s.m, s.sigma) == (0, 1, Fraction(1, 2))


def test_one_third_in_decimal_has_certificate_0_1():
    s = oracles.scan(Fraction(1, 3), "const:10")
    assert (s.n, s.m, s.digits) == (0, 1, (3,))
    assert oracles.const_certificate(3, 10) == (0, 1)


def test_three_fifths_over_2_3_regroups_to_base_6_with_digit_3():
    x = Fraction(3, 5)
    assert [oracles.product("periodic:2,3", lo, lo + 1) for lo in (1, 3, 5)] == [6, 6, 6]
    assert oracles.regroup_identity(x, "periodic:2,3", [2, 4, 6], [3, 3, 3])
    assert not oracles.regroup_identity(x, "periodic:2,3", [2, 4, 6], [3, 3, 2])


@pytest.mark.parametrize("spec", SPECS)
def test_closed_form_products_match_a_literal_product(spec):
    for lo in range(1, 8):
        for hi in range(lo - 1, 20):
            assert oracles.product(spec, lo, hi) == math.prod(oracles.base(spec, k) for k in range(lo, hi + 1))


def test_const_certificate_strips_the_primes_of_the_base():
    # 1/12 in base 10: 10^2 absorbs 4, and 10 has order 1 modulo 3.
    assert oracles.const_certificate(12, 10) == (2, 1)
    s = oracles.scan(Fraction(1, 12), "const:10")
    assert (s.n, s.m) == (2, 1)


def test_dual_depth_from_prime_exponents():
    assert oracles.dual_n0("periodic:2,3", {2: 1}) == 1
    assert oracles.dual_n0("periodic:2,3", {3: 1}) == 2
    assert oracles.dual_n0("periodic:2,3", {2: 3, 3: 1}) == 5
    assert oracles.dual_n0("const:10", {2: 3, 5: 1}) == 3
    assert oracles.dual_n0("const:10", {2: 3, 3: 1}) is None
    assert oracles.dual_n0("rule:odd", {7: 1}) == 3
    assert oracles.dual_n0("rule:odd", {7: 1, 2: 1}) is None


def test_roundtrip_check_rejects_corrupted_results():
    work = workloads.RoundTrip(cs, seed=3)
    case = next(i for i, (_, _, x) in enumerate(work.cases) if x.denominator > 50)
    good = work.run(NULL, case)
    assert work.check(case, good) == []
    assert work.check(case, replace(good, m=good.m + 1))
    assert work.check(case, replace(good, digits=(good.digits[0] + 1,) + good.digits[1:]))
    assert work.check(case, replace(good, value=good.value / 2))


def test_bigden_check_rejects_corrupted_results():
    work = workloads.BigDen(cs, seed=3)
    case = 1  # const:10 on the lowest rung: m = v - 1
    good = work.run(NULL, case)
    assert good.m == work.cases[case][2].denominator - 1
    assert work.check(case, good) == []
    assert work.check(case, replace(good, m=good.m + 1))
    assert work.check(case, replace(good, block_product=good.block_product * 10))
    assert work.check(case, replace(good, digits=good.digits[:-1] + ((good.digits[-1] + 1) % 10,)))


def test_terminating_check_rejects_corrupted_results():
    work = workloads.Terminating(cs, seed=3)
    yes, no = 0, 1
    good = work.run(NULL, yes)
    assert work.check(yes, good) == []
    assert work.check(yes, replace(good, n0=good.n0 + 1))
    assert work.check(yes, replace(good, finite=(good.finite[0] ^ 1,) + good.finite[1:]))
    g = good.regrouped
    assert work.check(yes, replace(good, regrouped=replace(g, lams=(g.lams[0] + 1,) + g.lams[1:])))
    assert work.check(no, work.run(NULL, no)) == []
    assert work.check(no, good)


def test_cli_check_rejects_corrupted_reports():
    work = workloads.Cli(cs, seed=3)
    by_verb = {(c.verb, c.json): i for i, c in enumerate(work.calls) if c.code == 0}

    case = by_verb[("expand", True)]
    out = work.run(NULL, case)
    assert work.check(case, out) == []
    report = json.loads(out)
    report["digits"][0] += 1
    assert work.check(case, json.dumps(report))

    case = by_verb[("expand", False)]
    out = work.run(NULL, case)
    assert work.check(case, out) == []
    head, _, rest = out.partition("digits: ")
    assert work.check(case, head + "digits: 9" + rest)

    for verb in ("reconstruct", "regroup"):
        case = by_verb[(verb, True)]
        out = work.run(NULL, case)
        assert work.check(case, out) == []
        report = json.loads(out)
        key = "value" if verb == "reconstruct" else "digits"
        report[key] = "0/1" if verb == "reconstruct" else [d + 1 for d in report[key]]
        assert work.check(case, json.dumps(report))


def test_cli_fault_call_is_expected_to_succeed_with_the_closed_form_product():
    work = workloads.Cli(cs, seed=3)
    fault = work.calls[-1]
    assert fault.argv[:5] == ("certify", "--q", "const:10", "--x", f"rat:1/{workloads.FAULT_V}")
    assert fault.code == 0
    want = workloads._expected_cli("certify", fault.inputs)
    assert (want["n"], want["m"]) == (0, 50001)
    assert want["block_product"] == pow(10, 50001)


def test_tracer_self_time_excludes_children():
    t = tracing.Tracer()
    outer = t.begin("case", 7)
    t.call("inner", 7, sum, range(100000))
    t.end(outer)
    spans = {name: (case, dur, own) for name, case, dur, own in t.spans()}
    case, dur, own = spans["case"]
    assert case == 7
    assert own == dur - spans["inner"][1]
    assert spans["inner"][1] == spans["inner"][2]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
