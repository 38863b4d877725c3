"""The benchmark's four workloads.

Each workload builds its inputs from a seed and the freshly imported package
`cs`, names its rounds (the unit of work the harness times), runs one case
through the library's public functions, and checks a stored result against
`oracles` once timing is over.  `probe` re-issues, in traced rounds only, the
base-access and residue calls the library makes internally, on the same
ranges, so those layers get spans of their own.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles
import yardsticks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SPECS = ("const:2", "const:10", "periodic:2,3", "periodic:5,2,7", "rule:odd")


class Failed(Exception):
    """An operation ended without a result: wrong exit code or a traceback."""


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def in_alphabet(digits, spec: str) -> bool:
    return all(0 <= d < q for d, q in zip(digits, oracles.bases(spec, len(digits))))


@dataclass(frozen=True)
class Certified:
    """What one round-trip or ladder case returned."""

    n: int
    m: int
    sigma: Fraction
    block_product: int
    verified: bool
    split: int
    digits: tuple[int, ...]
    tail: Fraction | None
    value: Fraction


def check_certified(x: Fraction, spec: str, r: Certified) -> list[str]:
    s = oracles.scan(x, spec)
    v = x.denominator
    errors = []
    if (r.n, r.m) != (s.n, s.m):
        errors.append(f"certificate ({r.n}, {r.m}) but the scan recurs at ({s.n}, {s.m})")
    if r.n + r.m > v:
        errors.append(f"n + m = {r.n + r.m} exceeds the pigeonhole bound {v}")
    if r.sigma != s.sigma:
        errors.append(f"shift value {r.sigma} != {s.sigma}")
    if r.block_product != oracles.product(spec, r.n + 1, r.n + r.m):
        errors.append("block product differs from its closed form")
    if oracles.product(spec, 1, r.n) * (r.block_product - 1) % v:
        errors.append("divisibility witness fails")
    if not r.verified:
        errors.append("verify_certificate rejected the certificate")
    if r.split != r.n or r.digits != s.digits:
        errors.append("expansion digits differ from the scan")
    if not in_alphabet(r.digits, spec):
        errors.append("a digit lies outside its alphabet")
    if r.tail is not None and r.tail != s.sigma:
        errors.append(f"expansion ends in state {r.tail}, not {s.sigma}")
    if r.value != x:
        errors.append(f"reconstruct gives {r.value}, not {x}")
    period = oracles.parse_spec(spec)
    if period is not None and len(period) == 1 and oracles.const_certificate(v, period[0]) != (s.n, s.m):
        errors.append("scan disagrees with the multiplicative order")
    return errors


class _Workload:
    # What the timed rounds are scaled against (see yardsticks.py).
    yardstick = staticmethod(yardsticks.in_process_s)
    NOMINAL_YARDSTICK_S = yardsticks.IN_PROCESS_NOMINAL_S
    # Rounds in one pass over every case; a run times at least one pass.
    PASS_ROUNDS = 1

    # The typical case of a set of case times.  Cases of one workload differ
    # in kind as well as size, and slow spells of the machine slow bignum
    # work less than interpreted steps, so the time of any one case follows
    # the yardstick less closely than a mean over all of them does.
    typical = staticmethod(statistics.geometric_mean)

    def timings(self, case_s, rounds):
        """(seconds for one pass over every case, cases in the pass,
        seconds for a typical case), from scaled times.

        Every round repeats the same cases, so each case counts at the
        median of its repeats.
        """
        per_case = {c: statistics.median(ts) for c, ts in case_s.items()}
        cases = set(self.round(0))
        return sum(per_case[c] for c in cases), len(cases), self.typical(per_case.values())

    def tag(self, case):
        """Suffix for per-rung metrics; only the ladder has rungs."""
        return None


class _Certifying(_Workload):
    """Shared by roundtrip and bigden: cases are (spec, Q, x)."""

    def __init__(self, cs, cases):
        self.cs = cs
        self.cases = cases

    def probe(self, t, done):
        cs = self.cs
        for case, r in done:
            _, Q, x = self.cases[case]
            sid = t.begin("probe", case)
            t.call("foundation.bases", case, cs.bases, Q, r.n + r.m)
            t.call("foundation.base_product", case, cs.base_product, Q, r.n + 1, r.n + r.m)
            t.call("foundation.base_product", case, cs.base_product, Q, 1, r.n)
            t.call("expansion.shift_value", case, cs.shift_value, x, Q, r.n + r.m)
            t.end(sid)

    def counts(self, case, r):
        return {
            "expansion.digits": len(r.digits),
            "rationality.shift_steps": r.n + r.m,
            "foundation.max_int_bits": r.block_product.bit_length(),
        }

    def check(self, case, r):
        spec, _, x = self.cases[case]
        return check_certified(x, spec, r)


class RoundTrip(_Certifying):
    """Every reduced u/v with 2 <= v <= 200 on each base sequence.

    The 61,155 cases are dealt into BLOCKS rounds of the same make-up: sorted
    by sequence and denominator, then every BLOCKS-th case, so block times
    differ only by the machine.  The seed orders the cases that share a
    denominator.
    """

    BLOCKS = 61
    # A run holds every case's result until the checks, so a run that
    # stopped part-way through a pass would read a lower peak_rss_mb.
    PASS_ROUNDS = BLOCKS

    def __init__(self, cs, seed):
        cases = []
        for spec in SPECS:
            Q = cs.parse_qseq(spec)
            cases += [(spec, Q, Fraction(u, v)) for v in range(2, 201) for u in range(1, v) if math.gcd(u, v) == 1]
        random.Random(seed).shuffle(cases)
        cases.sort(key=lambda c: (c[0], c[2].denominator))
        super().__init__(cs, cases)

    def round(self, i):
        return range(i % self.BLOCKS, len(self.cases), self.BLOCKS)

    def timings(self, case_s, rounds):
        """A run times most cases only once, but all blocks have the same
        make-up: the sweep is scaled from the median block's time per case,
        and the typical case is the median over blocks of each block's
        typical case."""
        per_case = statistics.median(seconds / len(times) for seconds, times in rounds)
        typical = statistics.median(self.typical(times) for _, times in rounds)
        return len(self.cases) * per_case, len(self.cases), typical

    def run(self, t, case):
        cs = self.cs
        _, Q, x = self.cases[case]
        cert = t.call("rationality.certify_rational", case, cs.certify_rational, x, Q)
        ok = t.call("rationality.verify_certificate", case, cs.verify_certificate, x, Q, cert).ok
        word, state = t.call("expansion.expand", case, cs.expand, x, Q, cert.n + cert.m)
        desc = cs.BlockDescription(
            cs.DigitWord(word.digits[: cert.n]), cs.DigitWord(word.digits[cert.n :], start=cert.n + 1)
        )
        value = t.call("rationality.reconstruct", case, cs.reconstruct, desc, Q)
        return Certified(cert.n, cert.m, cert.sigma_value, cert.block_product, ok, cert.n, word.digits, state.value, value)


class BigDen(_Certifying):
    """A ladder of primes on each base sequence; the seed picks numerators.

    10 is a primitive root of every rung, so const:10 has m = v - 1; the
    block length on the other sequences follows from the rung.  Each rung
    costs the same for any numerator coprime to it.
    """

    LADDER = (1019, 3011, 10007, 30011)
    # The cheap rungs run several times a round: their short cases are the
    # noisiest, and each weighs as much as a top-rung case in the typical
    # case, a geometric mean.
    REPEATS = {1019: 5, 3011: 5, 10007: 5}

    def __init__(self, cs, seed):
        rng = random.Random(seed)
        cases = [
            (spec, cs.parse_qseq(spec), Fraction(rng.randrange(1, p), p)) for p in self.LADDER for spec in SPECS
        ]
        super().__init__(cs, cases)

    def round(self, i):
        return [c for c, (_, _, x) in enumerate(self.cases) for _ in range(self.REPEATS.get(x.denominator, 1))]

    def run(self, t, case):
        cs = self.cs
        _, Q, x = self.cases[case]
        cert = t.call("rationality.certify_rational", case, cs.certify_rational, x, Q)
        ok = t.call("rationality.verify_certificate", case, cs.verify_certificate, x, Q, cert).ok
        desc = t.call("rationality.block_description", case, cs.block_description, x, Q)
        value = t.call("rationality.reconstruct", case, cs.reconstruct, desc, Q)
        digits = desc.preperiod.digits + desc.block.digits
        return Certified(
            cert.n, cert.m, cert.sigma_value, cert.block_product, ok, len(desc.preperiod), digits, None, value
        )

    def tag(self, case):
        v = self.cases[case][2].denominator
        return f"v1e{len(str(v)) - 1}"


@dataclass(frozen=True)
class Regrouped:
    breakpoints: tuple[int, ...]
    bases: tuple[int, ...]
    lams: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]
    mu: int
    lam: int
    ratio_constant: bool
    proportional: bool


def check_regroup(x: Fraction, spec: str, g: Regrouped) -> list[str]:
    errors = []
    lo = 0
    for nk, b in zip(g.breakpoints, g.bases):
        if b != oracles.product(spec, lo + 1, nk):
            errors.append(f"regrouped base for positions {lo + 1}..{nk} differs from its closed form")
        lo = nk
    if len(g.bases) != len(g.breakpoints) or not oracles.regroup_identity(x, spec, list(g.breakpoints), list(g.lams)):
        errors.append("regrouped digits break the partial-sum identity")
    if list(g.blocks) != [(lam, b - 1) for lam, b in zip(g.lams, g.bases)]:
        errors.append("regroup blocks are not (digit, base - 1)")
    mu = min(b - 1 for b in g.bases)
    lam = next(l for l, b in zip(g.lams, g.bases) if b - 1 == mu)
    if (g.mu, g.lam) != (mu, lam):
        errors.append("regroup (mu, lambda) is not the first minimal block")
    if g.ratio_constant != (len({Fraction(l, b - 1) for l, b in zip(g.lams, g.bases)}) == 1):
        errors.append("regroup ratio_constant is wrong")
    if g.proportional != all(l * mu == (b - 1) * lam for l, b in zip(g.lams, g.bases)):
        errors.append("regroup proportional is wrong")
    return errors


@dataclass(frozen=True)
class Dual:
    """What one terminating case returned; only `decision` for a "no"."""

    decision: str
    n0: int | None = None
    finite: tuple[int, ...] = ()
    head: tuple[int, ...] = ()
    twin_head: tuple[int, ...] = ()
    back: tuple[int, ...] = ()
    cofinite_value: Fraction | None = None
    finite_value: Fraction | None = None
    regrouped: Regrouped | None = None


class Terminating(_Workload):
    """Denominators that divide q_1 ... q_{n0} only at a deep n0.

    Each entry is (spec, prime exponents of the "yes" denominator, extra
    prime that turns it into a same-sized "no").  Over rule:odd the prime p
    first divides q_{(p-1)/2}, and the search bound is set to exactly that.
    The seed picks each numerator.
    """

    DENOMINATORS = (
        ("const:10", {2: 1000, 5: 1000}, 3),
        ("const:10", {2: 4000, 5: 4000}, 3),
        ("const:2", {2: 8000}, 3),
        ("periodic:2,3", {2: 1000, 3: 700}, 5),
        ("periodic:2,3", {2: 3000, 3: 3000}, 5),
        ("periodic:5,2,7", {5: 1000, 2: 1500, 7: 800}, 3),
        ("rule:odd", {4001: 1}, 2),
        ("rule:odd", {20011: 1}, 2),
    )
    BLOCKS = 32
    yardstick = staticmethod(yardsticks.residual_chain_s)
    NOMINAL_YARDSTICK_S = yardsticks.RESIDUAL_CHAIN_NOMINAL_S

    def __init__(self, cs, seed):
        rng = random.Random(seed)
        self.cs = cs
        self.cases = []
        for spec, factors, extra in self.DENOMINATORS:
            Q = cs.parse_qseq(spec)
            bound = max(p // 2 for p in factors) if spec == "rule:odd" else 10000
            for fs in (factors, {**factors, extra: 1}):
                r = math.prod(p**e for p, e in fs.items())
                u = rng.randrange(1, r)
                while math.gcd(u, r) != 1:
                    u = rng.randrange(1, r)
                self.cases.append((spec, Q, Fraction(u, r), fs, bound))

    def round(self, i):
        return range(len(self.cases))

    def breakpoints(self, n0):
        step = max(1, n0 // self.BLOCKS)
        return tuple(range(step, n0, step)) + (n0,)

    def run(self, t, case):
        cs = self.cs
        _, Q, x, _, bound = self.cases[case]
        rep = t.call("structure.dual_representation", case, cs.dual_representation, x, Q, bound)
        if rep.decision != "yes":
            return Dual(rep.decision)
        cof = t.call("structure.convert_dual", case, cs.convert_dual, rep.finite_form, Q)
        back = t.call("structure.convert_dual", case, cs.convert_dual, rep.cofinite_form, Q)
        cofinite_value = t.call("structure.cofinite_value", case, cs.cofinite_value, rep.cofinite_form, Q)
        finite_value = t.call("expansion.evaluate_finite", case, cs.evaluate_finite, rep.finite_form, Q)
        bps = self.breakpoints(rep.n0)
        new_bases, word, g = t.call("structure.regroup", case, cs.regroup, x, Q, bps)
        return Dual(
            rep.decision,
            rep.n0,
            rep.finite_form.digits,
            rep.cofinite_form.head.digits,
            cof.head.digits,
            back.digits,
            cofinite_value,
            finite_value,
            Regrouped(
                bps, new_bases, word.digits, tuple((b.lam, b.mu) for b in g.blocks),
                g.mu, g.lam, g.ratio_constant, g.proportional,
            ),
        )

    def probe(self, t, done):
        cs = self.cs
        for case, r in done:
            if r.n0 is None:
                continue
            _, Q, x, _, _ = self.cases[case]
            sid = t.begin("probe", case)
            t.call("foundation.bases", case, cs.bases, Q, r.n0)
            t.call("foundation.base_product", case, cs.base_product, Q, 1, r.n0)
            t.call("expansion.shift_value", case, cs.shift_value, x, Q, r.n0)
            t.end(sid)

    def counts(self, case, r):
        if r.n0 is None:
            return {}
        return {
            "expansion.digits": len(r.finite),
            "structure.chain_positions": r.n0,
            "foundation.max_int_bits": max(r.regrouped.bases).bit_length(),
        }

    def check(self, case, r):
        spec, _, x, factors, _ = self.cases[case]
        n0 = oracles.dual_n0(spec, factors)
        if n0 is None:
            return [] if r.decision == "no" else [f"decision {r.decision!r} for a denominator that never divides"]
        if (r.decision, r.n0) != ("yes", n0):
            return [f"decision {r.decision!r} at n0 = {r.n0}, expected yes at {n0}"]
        errors = []
        digits, tail = oracles.expansion(x, spec, n0)
        if tail != 0 or list(r.finite) != digits:
            errors.append("finite form differs from the scan's terminating digits")
        if not in_alphabet(r.finite, spec) or not in_alphabet(r.head, spec):
            errors.append("a digit lies outside its alphabet")
        twin = tuple(digits[:-1]) + (digits[-1] - 1,)
        if r.head != twin or r.twin_head != twin:
            errors.append("cofinite head is not the finite form with its last digit lowered")
        if r.back != tuple(digits):
            errors.append("converting the cofinite form back does not give the finite form")
        if r.cofinite_value != x or r.finite_value != x:
            errors.append("a dual form does not evaluate back to x")
        return errors + check_regroup(x, spec, r.regrouped)


# --- cold CLI calls -------------------------------------------------------

CLI_VERBS = (
    "expand", "eval", "certify", "verify", "reconstruct",
    "dual", "convert", "shift-const", "fixed-points", "regroup",
)
# The certify call below exits 1 today: printing 10^50001 passes Python's
# 4,300-digit int-to-str limit.  It stays in every round, counted as failed.
FAULT_V = 100003

_LIST_KEYS = {"digits", "finite", "cofinite_head", "head", "bases"}
_PAIR_KEYS = {"witnesses", "blocks"}


def _scalar(text: str):
    if text in ("true", "false", "null"):
        return {"true": True, "false": False, "null": None}[text]
    return int(text) if re.fullmatch(r"-?\d+", text) else text


def parse_plain(text: str) -> dict:
    """Read the CLI's plain `key: value` lines back into a JSON-shaped dict."""
    out: dict = {}
    key = None
    for line in text.splitlines():
        if line.startswith("  "):
            out[key].append({k: _scalar(v) for k, v in (kv.split("=", 1) for kv in line.split())})
            continue
        key, _, value = line.partition(":")
        if value == "":
            out[key] = []
        elif key in _LIST_KEYS:
            out[key] = [int(d) for d in value.strip().split(",") if d]
        elif key in _PAIR_KEYS:
            out[key] = [[int(d) for d in item.split(",")] for item in re.findall(r"\(([^)]*)\)", value)]
        else:
            out[key] = _scalar(value.strip())
    return out


@dataclass(frozen=True)
class Call:
    verb: str
    argv: tuple[str, ...]
    json: bool
    code: int
    inputs: dict


def _coprime_below(rng, v):
    u = rng.randrange(1, v)
    while math.gcd(u, v) != 1:
        u = rng.randrange(1, v)
    return Fraction(u, v)


def _random_digits(rng, spec, count, start=1):
    return [rng.randrange(q) for q in oracles.bases(spec, count, start)]


def _rat(x: Fraction) -> str:
    return "rat:" + frac(x)


def _joined(ds) -> str:
    return ",".join(map(str, ds))


class Cli(_Workload):
    """Every verb in JSON and plain mode, one cold process at a time."""

    SMALL_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
    # Cold calls cost much the same, so the typical one is the median call.
    typical = staticmethod(statistics.median)

    def __init__(self, cs, seed):
        rng = random.Random(seed)
        verbs = {}

        spec = rng.choice(SPECS)
        x = _coprime_below(rng, rng.randrange(20, 200))
        count = rng.randrange(10, 40)
        verbs["expand"] = (["--q", spec, "--x", _rat(x), "--count", str(count)], dict(spec=spec, x=x, count=count))

        spec = rng.choice(SPECS)
        digits = _random_digits(rng, spec, rng.randrange(2, 8))
        verbs["eval"] = (["--q", spec, "--x", "digits:" + _joined(digits)], dict(spec=spec, digits=digits))

        spec = rng.choice(SPECS)
        x = _coprime_below(rng, rng.randrange(20, 200))
        verbs["certify"] = (["--q", spec, "--x", _rat(x)], dict(spec=spec, x=x))

        p = rng.choice(self.SMALL_PRIMES)
        x = _coprime_below(rng, p)
        # Fermat: 10^(p-1) = 1 mod p, so (0, p - 1) is a valid, non-minimal pair.
        verbs["verify"] = (["--q", "const:10", "--x", _rat(x), "--n", "0", "--m", str(p - 1)], dict(p=p))

        spec = rng.choice(SPECS)
        pre = _random_digits(rng, spec, rng.randrange(0, 4))
        block = _random_digits(rng, spec, rng.randrange(1, 5), len(pre) + 1)
        block[-1] = rng.randrange(oracles.base(spec, len(pre) + len(block)) - 1)  # never all-maximal
        verbs["reconstruct"] = (
            ["--q", spec, "--x", f"block:{_joined(pre)}|{_joined(block)}"],
            dict(spec=spec, pre=pre, block=block),
        )

        factors = {2: rng.randrange(1, 12), 3: rng.randrange(1, 12)}
        x = _coprime_below(rng, 2 ** factors[2] * 3 ** factors[3])
        verbs["dual"] = (["--q", "periodic:2,3", "--x", _rat(x)], dict(x=x, factors=factors))

        spec = rng.choice(SPECS)
        digits = _random_digits(rng, spec, rng.randrange(2, 8))
        digits[-1] = rng.randrange(1, oracles.base(spec, len(digits)))
        verbs["convert"] = (["--q", spec, "--x", "digits:" + _joined(digits)], dict(spec=spec, digits=digits))

        x = Fraction(rng.randrange(1, 9), 9)
        horizon = rng.randrange(5, 30)
        verbs["shift-const"] = (
            ["--q", "const:10", "--x", _rat(x), "--horizon", str(horizon)],
            dict(x=x, horizon=horizon),
        )

        period = [rng.randrange(2, 10) for _ in range(rng.randrange(2, 4))]
        verbs["fixed-points"] = (["--q", "periodic:" + _joined(period)], dict(period=period))

        x = _coprime_below(rng, rng.randrange(20, 200))
        bps = sorted(rng.sample(range(1, 13), 3))
        verbs["regroup"] = (
            ["--q", "periodic:2,3", "--x", _rat(x), "--breakpoints", _joined(bps)],
            dict(x=x, breakpoints=bps),
        )

        self.calls = [
            Call(verb, (verb, *argv) + (("--json",) if js else ()), js, 0, inputs)
            for verb, (argv, inputs) in verbs.items()
            for js in (True, False)
        ]
        p = rng.choice(self.SMALL_PRIMES[5:])
        x = _coprime_below(rng, p)
        bound = rng.randrange(1, p // 2)
        self.calls.append(
            Call("dual", ("dual", "--q", "rule:odd", "--x", _rat(x), "--bound", str(bound), "--json"), True, 3,
                 dict(x=x, bound=bound, undecided=True))
        )
        self.calls.append(
            Call("certify", ("certify", "--q", "const:10", "--x", f"rat:1/{FAULT_V}", "--json"), True, 0,
                 dict(spec="const:10", x=Fraction(1, FAULT_V)))
        )
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def round(self, i):
        return range(len(self.calls))

    def _python(self, *argv):
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=120
        )

    NOMINAL_YARDSTICK_S = 0.06

    def yardstick(self) -> float:
        """Time of a cold interpreter that imports what the CLI imports
        from the standard library, but not the package.  Child processes
        may run on the other core, and process start slows unlike
        in-process work."""
        t0 = time.perf_counter()
        self._python("-c", "import argparse, fractions, json")
        return time.perf_counter() - t0

    def run(self, t, case):
        call = self.calls[case]
        done = t.call(f"cli.{call.verb}", case, self._python, "-m", "cantorseries.cli", *call.argv)
        if done.returncode != call.code or "Traceback" in done.stderr:
            raise Failed(f"{' '.join(call.argv)} exited {done.returncode}")
        return done.stdout

    def probe(self, t, done):
        t.call("cli.bare_python", -1, self._python, "-c", "pass")
        t.call("cli.import", -1, self._python, "-c", "import cantorseries.cli")

    def counts(self, case, r):
        return {}

    def check(self, case, stdout):
        call = self.calls[case]
        try:
            report = json.loads(stdout) if call.json else parse_plain(stdout)
            errors = _check_cli(call.verb, call.inputs, report)
        except (ValueError, KeyError, TypeError) as exc:
            errors = [f"unreadable report ({exc!r})"]
        return [f"{' '.join(call.argv)}: {e}" for e in errors]


def _check_cli(verb: str, a: dict, got: dict) -> list[str]:
    """Errors in one CLI report, judged by the oracles."""
    if verb == "reconstruct":
        pre, block, spec = a["pre"], a["block"], a["spec"]
        n, m = len(pre), len(block)
        value = Fraction(got["value"])
        digits, _ = oracles.expansion(value, spec, n + m)
        _, sigma_n = oracles.expansion(value, spec, n)
        _, sigma_nm = oracles.expansion(value, spec, n + m)
        if not 0 <= value < 1 or digits != pre + block or sigma_n != sigma_nm or (got["n"], got["m"]) != (n, m):
            return [f"value {value} does not re-expand to the block description"]
        return []
    if verb == "regroup":
        x, bps = a["x"], a["breakpoints"]
        g = Regrouped(
            tuple(bps), tuple(got["bases"]), tuple(got["digits"]), tuple(map(tuple, got["blocks"])),
            got["mu"], got["lambda"], got["ratio_constant"], got["proportional"],
        )
        return check_regroup(x, "periodic:2,3", g)
    want = _expected_cli(verb, a)
    return [] if got == want else [f"got {got}, expected {want}"]


def _expected_cli(verb: str, a: dict) -> dict:
    if verb == "expand":
        digits, tail = oracles.expansion(a["x"], a["spec"], a["count"])
        return {"x": frac(a["x"]), "digits": digits, "sigma": frac(tail), "step": a["count"]}
    if verb == "eval":
        value = oracles.digits_value(a["digits"], a["spec"])
        high = value + Fraction(1, oracles.product(a["spec"], 1, len(a["digits"])))
        return {"form": "digits", "value": frac(value), "low": frac(value), "high": frac(high)}
    if verb == "certify":
        x, spec = a["x"], a["spec"]
        s = oracles.scan(x, spec)
        return {
            "n": s.n, "m": s.m, "sigma": frac(s.sigma),
            "block_product": oracles.product(spec, s.n + 1, s.n + s.m), "witness_ok": True,
        }
    if verb == "verify":
        holds = pow(10, a["p"] - 1, a["p"]) == 1
        return {"ok": holds, "reason": None, "recurrence_ok": holds, "divisibility_ok": holds}
    if verb == "dual" and a.get("undecided"):
        return {"x": frac(a["x"]), "decision": "undecided", "bound": a["bound"]}
    if verb == "dual":
        n0 = oracles.dual_n0("periodic:2,3", a["factors"])
        digits, _ = oracles.expansion(a["x"], "periodic:2,3", n0)
        head = digits[:-1] + [digits[-1] - 1]
        return {
            "x": frac(a["x"]), "decision": "yes", "n0": n0, "finite": digits,
            "cofinite_head": head, "tail_start": len(head) + 1,
        }
    if verb == "convert":
        digits = list(a["digits"])
        head = digits[:-1] + [digits[-1] - 1]
        value = oracles.digits_value(digits, a["spec"])
        return {"form": "cofinite", "head": head, "tail_start": len(head) + 1, "value": frac(value)}
    if verb == "shift-const":
        x, horizon = a["x"], a["horizon"]
        digits, _ = oracles.expansion(x, "const:10", horizon)
        holds = all(Fraction(d, 9) == x for d in digits)
        return {
            "holds": holds, "after": 0, "constant": frac(x) if holds else None,
            "conclusive": not holds or horizon >= x.denominator,
            "witnesses": [[n, d, 10] for n, d in enumerate(digits, 1)],
        }
    if verb == "fixed-points":
        period = a["period"]
        q = min(period)
        candidates = []
        for eps in range(q):
            failing = next((n for n, b in enumerate(period, 1) if eps * (b - 1) % (q - 1)), None)
            candidates.append({
                "eps": eps, "value": frac(Fraction(eps, q - 1)), "member": failing is None,
                "endpoint": eps == q - 1, "failing_position": failing,
            })
        return {"q": q, "candidates": candidates}
    raise AssertionError(verb)


WORKLOADS = {"roundtrip": RoundTrip, "bigden": BigDen, "terminating": Terminating, "cli": Cli}
