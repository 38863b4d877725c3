"""Command-line front end.

Every verb takes a base sequence via --q (grammar: const:<q> |
periodic:<q1,q2,...> | prefix:<a1,...;p1,...> | rule:odd) and, where a
number is needed, --x in one of the forms

    rat:<num>/<den>        exact fraction
    digits:<d1,d2,...>     finite digit word (terminating expansion)
    block:<p1,...|b1,...>  preperiod digits | recurring block digits
    cofinite:<h1,...>      head digits, maximal tail implied

Output goes to stdout, plain lines by default or one JSON object with
--json; both modes carry the same numeric content and are byte-stable for
identical inputs.  Exit codes: 0 success, 1 usage or parse error, 2 domain
error (also when memory runs out), 3 undecided outcome.

`Any` in annotations is typing.Any.  Annotations stay unevaluated strings,
so typing is not imported: a cold call does not pay for it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from fractions import Fraction

from .foundation import DomainError, ParseError, QSequence, base_product, parse_qseq
from .expansion import DigitWord, enclosure, evaluate_finite, expand, shift_value
from .rationality import (
    BlockDescription,
    RationalityCertificate,
    certify_rational,
    reconstruct,
    verify_certificate,
)
from .structure import (
    CofiniteExpansion,
    cofinite_value,
    convert_dual,
    dual_representation,
    fixed_points,
    fold_cofinite,
    regroup,
    shift_constant_check,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_UNDECIDED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the documented contract is 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_digit_list(text: str, what: str) -> tuple[int, ...]:
    if text == "":
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ParseError(f"bad integer in {what} list: {text!r}") from None


def parse_number_spec(text: str) -> tuple[str, Any]:
    """Split a number spec into (form, payload); payload types vary by form."""
    s = "".join(text.split())
    head, sep, rest = s.partition(":")
    if not sep:
        raise ParseError(f"expected <form>:<spec> for a number, got {text!r}")
    if head == "rat":
        num_text, slash, den_text = rest.partition("/")
        if not slash:
            raise ParseError(f"rational form is rat:<num>/<den>, got {text!r}")
        try:
            num, den = int(num_text), int(den_text)
        except ValueError:
            raise ParseError(f"bad integer in rational {text!r}") from None
        if den <= 0:
            raise ParseError(f"rational denominator must be positive, got {den}")
        return "rat", Fraction(num, den)
    if head == "digits":
        return "digits", DigitWord(_parse_digit_list(rest, "digit"))
    if head == "block":
        pre_text, bar, block_text = rest.partition("|")
        if not bar:
            raise ParseError(f"block form is block:<pre|block>, got {text!r}")
        pre = _parse_digit_list(pre_text, "preperiod")
        blk = _parse_digit_list(block_text, "block")
        if not blk:
            raise ParseError("block form needs at least one block digit")
        return "block", BlockDescription(DigitWord(pre), DigitWord(blk, start=len(pre) + 1))
    if head == "cofinite":
        head_digits = _parse_digit_list(rest, "cofinite head")
        if not head_digits:
            raise ParseError("cofinite form needs at least one head digit")
        return "cofinite", head_digits
    raise ParseError(f"unknown number form {head!r}")


def _value_of(form: str, payload: Any, Q: QSequence) -> Fraction:
    if form == "rat":
        return payload
    if form == "digits":
        return evaluate_finite(payload, Q)
    if form == "block":
        return reconstruct(payload, Q)
    if form == "cofinite":
        return cofinite_value(fold_cofinite(payload, Q), Q)
    raise AssertionError(form)


def _cmd_expand(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    x = _value_of(*parse_number_spec(args.x), Q)
    word, state = expand(x, Q, args.count)
    return {"x": _frac(x), "digits": list(word.digits), "sigma": _frac(state.value), "step": state.step}, EXIT_OK


def _cmd_eval(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    form, payload = parse_number_spec(args.x)
    value = _value_of(form, payload, Q)
    report: dict[str, Any] = {"form": form, "value": _frac(value)}
    if form == "digits":
        box = enclosure(payload, Q)
        report["low"] = _frac(box.low)
        report["high"] = _frac(box.high)
    return report, EXIT_OK


def _cmd_certify(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    x = _value_of(*parse_number_spec(args.x), Q)
    cert = certify_rational(x, Q)
    return {
        "n": cert.n,
        "m": cert.m,
        "sigma": _frac(cert.sigma_value),
        "block_product": cert.block_product,
        "witness_ok": bool(verify_certificate(x, Q, cert)),
    }, EXIT_OK


def _cmd_verify(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    x = _value_of(*parse_number_spec(args.x), Q)
    n, m = args.n, args.m
    if n >= 0 and m >= 1 and 0 <= x < 1:
        cert = RationalityCertificate(n, m, shift_value(x, Q, n), base_product(Q, n + 1, n + m))
    else:
        # degenerate pair: let the total checker report the reason
        cert = RationalityCertificate(n, m, Fraction(0), 1)
    check = verify_certificate(x, Q, cert)
    return {
        "ok": check.ok,
        "reason": check.reason,
        "recurrence_ok": check.recurrence_ok,
        "divisibility_ok": check.divisibility_ok,
    }, EXIT_OK


def _cmd_reconstruct(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    form, payload = parse_number_spec(args.x)
    if form != "block":
        raise DomainError("reconstruct expects --x in block:<pre|block> form")
    value = reconstruct(payload, Q)
    return {
        "value": _frac(value),
        "n": len(payload.preperiod),
        "m": len(payload.block),
    }, EXIT_OK


def _cmd_dual(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    x = _value_of(*parse_number_spec(args.x), Q)
    report = dual_representation(x, Q, bound=args.bound)
    out: dict[str, Any] = {"x": _frac(x), "decision": report.decision}
    if report.decision == "yes":
        assert report.finite_form is not None and report.cofinite_form is not None
        out["n0"] = report.n0
        out["finite"] = list(report.finite_form.digits)
        out["cofinite_head"] = list(report.cofinite_form.head.digits)
        out["tail_start"] = report.cofinite_form.tail_start
        return out, EXIT_OK
    if report.decision == "undecided":
        out["bound"] = report.bound
        return out, EXIT_UNDECIDED
    return out, EXIT_OK


def _cmd_convert(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    form, payload = parse_number_spec(args.x)
    if form == "digits":
        cof = convert_dual(payload, Q)
        assert isinstance(cof, CofiniteExpansion)
        return {
            "form": "cofinite",
            "head": list(cof.head.digits),
            "tail_start": cof.tail_start,
            "value": _frac(cofinite_value(cof, Q)),
        }, EXIT_OK
    if form == "cofinite":
        word = convert_dual(fold_cofinite(payload, Q), Q)
        assert isinstance(word, DigitWord)
        return {
            "form": "finite",
            "digits": list(word.digits),
            "value": _frac(evaluate_finite(word, Q)),
        }, EXIT_OK
    raise DomainError("convert expects --x in digits:<...> or cofinite:<...> form")


def _cmd_shift_const(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    x = _value_of(*parse_number_spec(args.x), Q)
    report = shift_constant_check(x, Q, n0=args.n0, horizon=args.horizon)
    return {
        "holds": report.holds,
        "after": report.after,
        "constant": None if report.constant is None else _frac(report.constant),
        "conclusive": report.conclusive,
        "witnesses": [list(w) for w in report.ratio_witnesses],
    }, EXIT_OK


def _cmd_fixed_points(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    report = fixed_points(Q)
    return {
        "q": report.q,
        "candidates": [
            {
                "eps": c.eps,
                "value": _frac(c.value),
                "member": c.member,
                "endpoint": c.endpoint,
                "failing_position": c.failing_position,
            }
            for c in report.candidates
        ],
    }, EXIT_OK


def _cmd_regroup(args: argparse.Namespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    form, payload = parse_number_spec(args.x)
    # regroup evaluates a digit word itself, after the breakpoints parse, so a
    # bad breakpoint list stays a parse error even when the word is invalid
    x = payload if form == "digits" else _value_of(form, payload, Q)
    try:
        bps = tuple(int(tok) for tok in args.breakpoints.split(","))
    except ValueError:
        raise ParseError(f"bad breakpoint list {args.breakpoints!r}") from None
    new_bases, word, report = regroup(x, Q, bps, count=args.blocks)
    return {
        "bases": list(new_bases),
        "digits": list(word.digits),
        "blocks": [[b.lam, b.mu] for b in report.blocks],
        "mu": report.mu,
        "lambda": report.lam,
        "ratio_constant": report.ratio_constant,
        "proportional": report.proportional,
    }, EXIT_OK


_X = ("--x", dict(required=True, metavar="NUMSPEC"))

# verb: (handler, help line, verb flags in order); every verb also takes --q and --json
_COMMANDS = {
    "expand": (
        _cmd_expand,
        "digits of x by the shift operator",
        [_X, ("--count", dict(required=True, type=int, metavar="N"))],
    ),
    "eval": (_cmd_eval, "exact value of a number description", [_X]),
    "certify": (_cmd_certify, "earliest shift-state recurrence of a rational", [_X]),
    "verify": (
        _cmd_verify,
        "re-check a recurrence pair (n, m)",
        [_X, ("--n", dict(required=True, type=int)), ("--m", dict(required=True, type=int))],
    ),
    "reconstruct": (_cmd_reconstruct, "value of a preperiod plus recurring block", [_X]),
    "dual": (
        _cmd_dual,
        "decide the trailing-maximum twin representation",
        [_X, ("--bound", dict(type=int, default=10000, help="search cap for rule sequences (default 10000)"))],
    ),
    "convert": (_cmd_convert, "switch between finite and trailing-maximum forms", [_X]),
    "shift-const": (
        _cmd_shift_const,
        "check digit ratios for shift-value constancy",
        [_X, ("--n0", dict(type=int, default=0)), ("--horizon", dict(type=int, default=50))],
    ),
    "fixed-points": (_cmd_fixed_points, "values fixed by every shift", []),
    "regroup": (
        _cmd_regroup,
        "merge digit blocks between breakpoints",
        [
            _X,
            ("--breakpoints", dict(required=True, metavar="N1,N2,...")),
            ("--blocks", dict(type=int, help="number of blocks (default: all breakpoints)")),
        ],
    ),
}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--q", required=True, metavar="QSPEC", help="base sequence, e.g. periodic:2,3 or rule:odd")
    common.add_argument("--json", action="store_true", help="emit one JSON object instead of plain lines")

    parser = _Parser(prog="cantorseries", description="Exact Cantor-series arithmetic over arbitrary base sequences.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(verb, parents=[common], help=help_line)
        for name, spec in flags:
            p.add_argument(name, **spec)
    return parser


def _render_plain(report: dict[str, Any]) -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{key}:")
            for item in value:
                lines.append("  " + " ".join(f"{k}={_plain_scalar(v)}" for k, v in item.items()))
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{key}: " + " ".join("(" + ",".join(map(str, item)) + ")" for item in value))
        elif isinstance(value, list):
            lines.append(f"{key}: " + ",".join(map(str, value)))
        else:
            lines.append(f"{key}: {_plain_scalar(value)}")
    return "\n".join(lines)


def _plain_scalar(value: Any) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return str(value)


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Exact results such as block products can run past the default
        # 4,300-digit limit on printing an int (Python 3.10.7+).
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        Q = parse_qseq(args.q)
        report, code = _COMMANDS[args.verb][0](args, Q)
        print(json.dumps(report) if args.json else _render_plain(report))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print("domain error: out of memory", file=sys.stderr)
        return EXIT_DOMAIN
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
