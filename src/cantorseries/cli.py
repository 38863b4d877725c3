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
identical inputs.  Exit codes: 0 success, 1 usage or parse error, or an
output error (stdout closed early or full: `output error: ...` on stderr,
no traceback), 2 domain error (also when memory runs out), 3 undecided
outcome.

A cold call loads only what its verb uses: each handler imports its
library module when it runs, a number spec loads the module of its own
form, and `json` loads only under --json.  argv is read by hand from the
`_COMMANDS` table, as argparse read it, so argparse (with gettext and
locale) is not imported.  Annotations stay unevaluated strings, so typing
is not imported either: `Any` and `NoReturn` in them are typing's and
`Sequence` is collections.abc.Sequence.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .foundation import DomainError, ParseError, QSequence, _parse_int, _parse_ints, parse_qseq

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_UNDECIDED = 3


class _UsageError(Exception):
    pass


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def integer(text: str) -> int:
    """The value of an integer flag: an optional sign and ASCII digits, as
    `_parse_int` reads them; anything else raises ParseError."""
    return _parse_int(text, "integer")


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
        num, den = _parse_int(num_text, "rational"), _parse_int(den_text, "rational")
        if den <= 0:
            raise ParseError(f"rational denominator must be positive, got {den}")
        return "rat", Fraction(num, den)
    if head == "digits":
        from .expansion import DigitWord
        return "digits", DigitWord(_parse_ints(rest, "digit") if rest else ())
    if head == "block":
        pre_text, bar, block_text = rest.partition("|")
        if not bar:
            raise ParseError(f"block form is block:<pre|block>, got {text!r}")
        pre = _parse_ints(pre_text, "preperiod") if pre_text else ()
        blk = _parse_ints(block_text, "block")
        from .expansion import DigitWord
        from .rationality import BlockDescription
        return "block", BlockDescription(DigitWord(pre), DigitWord(blk, start=len(pre) + 1))
    if head == "cofinite":
        return "cofinite", _parse_ints(rest, "cofinite head")
    raise ParseError(f"unknown number form {head!r}")


def _value_of(form: str, payload: Any, Q: QSequence) -> Fraction:
    if form == "rat":
        return payload
    if form == "digits":
        from .expansion import evaluate_finite
        return evaluate_finite(payload, Q)
    if form == "block":
        from .rationality import reconstruct
        return reconstruct(payload, Q)
    if form == "cofinite":
        from .structure import cofinite_value, fold_cofinite
        return cofinite_value(fold_cofinite(payload, Q), Q)
    raise AssertionError(form)


def _cmd_expand(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    from .expansion import expand
    x = _value_of(*parse_number_spec(args.x), Q)
    word, state = expand(x, Q, args.count)
    return {"x": _frac(x), "digits": list(word.digits), "sigma": _frac(state.value), "step": state.step}, EXIT_OK


def _cmd_eval(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    form, payload = parse_number_spec(args.x)
    if form == "rat":  # the other forms evaluate into [0, 1); a rational is range-checked as in the library
        from .expansion import _unit_value
        payload = _unit_value(payload)
    value = _value_of(form, payload, Q)
    report: dict[str, Any] = {"form": form, "value": _frac(value)}
    if form == "digits":
        from .expansion import enclosure
        box = enclosure(payload, Q)
        report["low"] = _frac(box.low)
        report["high"] = _frac(box.high)
    return report, EXIT_OK


def _cmd_certify(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    from .rationality import certify_rational, verify_certificate
    x = _value_of(*parse_number_spec(args.x), Q)
    cert = certify_rational(x, Q)
    return {
        "n": cert.n,
        "m": cert.m,
        "sigma": _frac(cert.sigma_value),
        "block_product": cert.block_product,
        "witness_ok": bool(verify_certificate(x, Q, cert)),
    }, EXIT_OK


def _cmd_verify(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    from .rationality import RationalityCertificate, _check_recurrence, verify_certificate
    x = _value_of(*parse_number_spec(args.x), Q)
    n, m = args.n, args.m
    if n >= 0 and m >= 1 and 0 <= x < 1:
        check = _check_recurrence(x, Q, n, m)  # a range or product too large to build is a domain error
    else:
        # degenerate pair: let the total checker report the reason
        check = verify_certificate(x, Q, RationalityCertificate(n, m, Fraction(0), 1))
    return {
        "ok": check.ok,
        "reason": check.reason,
        "recurrence_ok": check.recurrence_ok,
        "divisibility_ok": check.divisibility_ok,
    }, EXIT_OK


def _cmd_reconstruct(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    from .rationality import reconstruct
    form, payload = parse_number_spec(args.x)
    if form != "block":
        raise DomainError("reconstruct expects --x in block:<pre|block> form")
    value = reconstruct(payload, Q)
    return {
        "value": _frac(value),
        "n": len(payload.preperiod),
        "m": len(payload.block),
    }, EXIT_OK


def _cmd_dual(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    from .structure import dual_representation
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


def _cmd_convert(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    from .expansion import DigitWord, evaluate_finite
    from .structure import CofiniteExpansion, cofinite_value, convert_dual, fold_cofinite
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


def _cmd_shift_const(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    from .structure import shift_constant_check
    x = _value_of(*parse_number_spec(args.x), Q)
    report = shift_constant_check(x, Q, n0=args.n0, horizon=args.horizon)
    return {
        "holds": report.holds,
        "after": report.after,
        "constant": None if report.constant is None else _frac(report.constant),
        "conclusive": report.conclusive,
        "witnesses": [list(w) for w in report.ratio_witnesses],
    }, EXIT_OK


def _cmd_fixed_points(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    from .structure import fixed_points
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


def _cmd_regroup(args: SimpleNamespace, Q: QSequence) -> tuple[dict[str, Any], int]:
    from .structure import regroup
    form, payload = parse_number_spec(args.x)
    # regroup evaluates a digit word itself, after the breakpoints parse, so a
    # bad breakpoint list stays a parse error even when the word is invalid
    x = payload if form == "digits" else _value_of(form, payload, Q)
    new_bases, word, report = regroup(x, Q, _parse_ints(args.breakpoints, "breakpoint"), count=args.blocks)
    return {
        "bases": list(new_bases),
        "digits": list(word.digits),
        "blocks": [[b.lam, b.mu] for b in report.blocks],
        "mu": report.mu,
        "lambda": report.lam,
        "ratio_constant": report.ratio_constant,
        "proportional": report.proportional,
    }, EXIT_OK


# The flags every verb takes; each flag is (name, spec), where spec holds
# the argparse add_argument keywords that _parse_args and the help read:
# required, type, default, metavar, help, and action="store_true" for a
# flag that takes no value.
_COMMON = [
    ("--q", dict(required=True, metavar="QSPEC", help="base sequence, e.g. periodic:2,3 or rule:odd")),
    ("--json", dict(action="store_true", default=False, help="emit one JSON object instead of plain lines")),
]
_X = ("--x", dict(required=True, metavar="NUMSPEC"))

# verb: (handler, help line, verb flags in order); every verb also takes the _COMMON flags
_COMMANDS = {
    "expand": (
        _cmd_expand,
        "digits of x by the shift operator",
        [_X, ("--count", dict(required=True, type=integer, metavar="N"))],
    ),
    "eval": (_cmd_eval, "exact value of a number description", [_X]),
    "certify": (_cmd_certify, "earliest shift-state recurrence of a rational", [_X]),
    "verify": (
        _cmd_verify,
        "re-check a recurrence pair (n, m)",
        [_X, ("--n", dict(required=True, type=integer)), ("--m", dict(required=True, type=integer))],
    ),
    "reconstruct": (_cmd_reconstruct, "value of a preperiod plus recurring block", [_X]),
    "dual": (
        _cmd_dual,
        "decide the trailing-maximum twin representation",
        [_X, ("--bound", dict(type=integer, default=10000, help="search cap for rule sequences (default 10000)"))],
    ),
    "convert": (_cmd_convert, "switch between finite and trailing-maximum forms", [_X]),
    "shift-const": (
        _cmd_shift_const,
        "check digit ratios for shift-value constancy",
        [_X, ("--n0", dict(type=integer, default=0)), ("--horizon", dict(type=integer, default=50))],
    ),
    "fixed-points": (_cmd_fixed_points, "values fixed by every shift", []),
    "regroup": (
        _cmd_regroup,
        "merge digit blocks between breakpoints",
        [
            _X,
            ("--breakpoints", dict(required=True, metavar="N1,N2,...")),
            ("--blocks", dict(type=integer, help="number of blocks (default: all breakpoints)")),
        ],
    ),
}


_HELP = ("-h", "--help")


def _read_flag(token: str, names: Sequence[str]) -> tuple[str | None, str | None] | None:
    """How argparse reads token among the flags names: None for a value;
    else (the flag, or None for an unknown one; the text after its first
    '=', or None).  A long flag may be cut to any prefix that begins no
    other.  A value may begin with '-' when it is '-', '--', a negative
    number such as -1 or -.5, or text with a blank."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    name, eq, inline = token.partition("=")
    if not eq:
        inline = None
    if name in names:
        return name, inline
    if token[1] == "-":
        found = [flag for flag in names if flag.startswith(name)]
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {name} could match {', '.join(found)}")
        if found:
            return found[0], inline
    digits, dot, frac = token[1:].partition(".")
    if " " in token or (digits + frac).isdecimal() and (frac or not dot):
        return None
    return None, None


def _parse_args(argv: Sequence[str]) -> tuple[str, SimpleNamespace]:
    """The verb of argv and its flag values, read as argparse read them.

    The verb comes first; before it only -h/--help may stand.  A flag's
    value is the next token or the text after `--flag=`, and the last one
    given wins.  -h/--help prints help and exits 0 where it stands, so a
    usage error found before it wins, and an unknown flag or a stray token
    before it does not: those, like a missing required flag, are reported
    only after the last token.  Every token from a `--` on is a stray one.
    """
    strays: list[str] = []
    for i, token in enumerate(argv):
        read = _read_flag(token, _HELP)
        if read is None:
            break
        if read[0] is None:
            strays.append(token)
        elif read[1] is not None:
            raise _UsageError(f"argument -h/--help: ignored explicit argument {read[1]!r}")
        else:
            _help(None)
    else:
        raise _UsageError("the following arguments are required: verb")
    verb = argv[i]
    if verb not in _COMMANDS:
        raise _UsageError(f"argument verb: invalid choice: {verb!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    specs = dict(_COMMON + _COMMANDS[verb][2])
    names = [*_HELP, *specs]
    rest = list(argv[i + 1 :])
    if "--" in rest:
        cut = rest.index("--")
        strays += rest[cut:]
        del rest[cut:]
    reads = [_read_flag(token, names) for token in rest]  # an ambiguous flag anywhere is an error first
    values = {name[2:]: spec.get("default") for name, spec in specs.items()}
    j = 0
    while j < len(rest):
        token, read = rest[j], reads[j]
        j += 1
        if read is None or read[0] is None:
            strays.append(token)
            continue
        flag, inline = read
        spec = specs.get(flag)
        if spec is None or "action" in spec:  # -h/--help or --json: no value
            if inline is not None:
                raise _UsageError(f"argument {flag}: ignored explicit argument {inline!r}")
            if spec is None:
                _help(verb)
            values[flag[2:]] = True
            continue
        if inline is None:
            if j == len(rest) or reads[j] is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
            inline = rest[j]
            j += 1
        if "type" in spec:
            try:
                inline = spec["type"](inline)
            except ParseError:
                raise _UsageError(f"argument {flag}: invalid integer value: {inline!r}") from None
        values[flag[2:]] = inline
    missing = [name for name, spec in specs.items() if spec.get("required") and values[name[2:]] is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if strays:
        raise _UsageError(f"unrecognized arguments: {' '.join(strays)}")
    return verb, SimpleNamespace(**values)


def _help(verb: str | None) -> NoReturn:
    """Print the help of the program (verb None) or of one verb, and exit 0."""
    from ._help import help_text  # compiled only when help is asked for
    print(help_text(verb, _COMMANDS, _COMMON))
    sys.stdout.flush()  # a closed or full stdout is an output error, as for a report
    raise SystemExit(0)


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
    # Exact results such as block products can run past the default
    # 4,300-digit limit on printing an int (Python 3.10.7+).  The limit is
    # lifted for the call only: a caller's interpreter keeps its own.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def _main(argv: Sequence[str] | None) -> int:
    try:
        verb, args = _parse_args(sys.argv[1:] if argv is None else argv)
        Q = parse_qseq(args.q)
        report, code = _COMMANDS[verb][0](args, Q)
        if args.json:
            import json
            print(json.dumps(report))
        else:
            print(_render_plain(report))
        sys.stdout.flush()  # a closed or full stdout fails here, not at exit
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print("domain error: out of memory", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        # What stays buffered would fail again at exit; the SIGPIPE recipe
        # of the Python docs points stdout at devnull instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
