"""Command-line interface: one subcommand per library operation.

Exit codes: 0 success, 1 negative verdict (false / not syndetic / dependent /
absent), 2 usage or validation error, 3 search cap exceeded, 4 internal error
(a self-check failed, or an unexpected exception such as MemoryError), 141
stdout's reader left early (128 + SIGPIPE, with nothing on stderr).  All
errors go to stderr as a single line starting with "error: ".
"""

from __future__ import annotations

import argparse
import decimal
import functools
import os
import sys

from .automata import (
    RecognizableSet,
    enumerate_elements,
    example1,
    member,
    minimize,
    right_dense,
    trim,
)
from .errors import PreconditionError, RecsetError, SearchCapExceededError, ValidationError
from .fileformat import dumps_automaton, read_automaton, write_automaton
from .lengths import cofinite_threshold, length_profile
from .numeration import decode, encode, kronecker_witness, mult_independent, nested_chain
from .witnesses import (
    Finite,
    NotSyndetic,
    cross_base_refute,
    empty_interval_witness,
    gap_scan,
    nonempty_interval_witness,
    syndetic_decide,
)


def _digits_text(word) -> str:
    return "[" + ",".join(str(d) for d in word) + "]"


def _parse_digits(text: str) -> list[int]:
    if text == "":
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse digit list {text!r}; expected e.g. 1,0,1")


def _load(args) -> RecognizableSet:
    return read_automaton(args.file, strict=not args.lenient)


def _emit(args, s: RecognizableSet) -> int:
    if args.out:
        write_automaton(args.out, s)
    else:
        sys.stdout.write(dumps_automaton(s))
    return 0


def _print_bool(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _witness_lines(w) -> None:
    print(f"kind: {w.kind}")
    print(f"m: {w.m}")
    print(f"a: {w.a}")
    print(f"b: {w.b}")
    print(f"state: {w.state}")


def _exact_decimals():
    """A decimal context for integer arithmetic that is exact or raises Inexact.

    A Decimal's text takes time linear in its digits; str() of an int is
    quadratic before Python 3.12.
    """
    ctx = decimal.getcontext().copy()
    ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
    ctx.traps[decimal.Inexact] = True
    return decimal.localcontext(ctx)


def _chain_line(w, m: int, n: int, a: int, b: int, c: int, d: int, p: int, q: int) -> str:
    """The chain line: the four ends of `nested_chain`, computed as exact Decimals."""
    with _exact_decimals():
        ends = nested_chain(w, m, n, a, b, c, d, decimal.Decimal(p), decimal.Decimal(q))
        return "chain: {} <= {} < {} <= {}".format(*ends)


def _cmd_encode(args) -> int:
    print(_digits_text(encode(args.n, args.base)))
    return 0


def _cmd_decode(args) -> int:
    print(decode(_parse_digits(args.digits), args.base))
    return 0


def _cmd_member(args) -> int:
    return _print_bool(member(_load(args), args.n))


def _cmd_enum(args) -> int:
    for x in enumerate_elements(_load(args), args.limit):
        print(x)
    return 0


def _cmd_minimize(args) -> int:
    s = _load(args)
    return _emit(args, RecognizableSet(minimize(s.dfa), s.contains_zero))


def _cmd_trim(args) -> int:
    s = _load(args)
    return _emit(args, RecognizableSet(trim(s.dfa), s.contains_zero))


def _cmd_right_dense(args) -> int:
    return _print_bool(right_dense(_load(args)))


def _cmd_profile(args) -> int:
    s = _load(args)
    prof = length_profile(s.dfa, args.state)
    print(f"preperiod: {prof.preperiod}")
    print(f"period: {prof.period}")
    print(f"head: {_digits_text(prof.head_bits)}")
    print(f"cycle: {_digits_text(prof.cycle_bits)}")
    threshold = cofinite_threshold(prof)
    print(f"cofinite_threshold: {'absent' if threshold is None else threshold}")
    return 0


def _cmd_witness_nonempty(args) -> int:
    s = _load(args)
    _witness_lines(nonempty_interval_witness(s, m_min=args.m_min))
    return 0


def _cmd_witness_empty(args) -> int:
    s = _load(args)
    w = empty_interval_witness(s)
    if w is None:
        print("absent")
        return 1
    _witness_lines(w)
    return 0


def _cmd_syndetic(args) -> int:
    s = _load(args)
    verdict = syndetic_decide(s)
    if isinstance(verdict, Finite):
        print("verdict: finite")
        return 0
    if isinstance(verdict, NotSyndetic):
        w = verdict.witness
        print("verdict: not-syndetic")
        _witness_lines(w)
        print(f"note: the intervals [m*{s.base}^(a+b*k), (m+1)*{s.base}^(a+b*k)) "
              "contain no elements; their lengths grow without bound, so "
              "consecutive gaps are unbounded")
        return 1
    print("verdict: syndetic")
    print(f"C: {verdict.threshold}")
    print(f"bound: {verdict.bound}")
    thresholds = " ".join(f"{st}={c}" for st, c in sorted(verdict.per_state_thresholds.items()))
    print(f"state_thresholds: {thresholds}")
    return 0


def _cmd_kronecker(args) -> int:
    params = args.m, args.n, args.a, args.b, args.c, args.d, args.p, args.q
    w = kronecker_witness(*params)
    print(f"k: {w.k}")
    print(f"l: {w.ell}")
    print(_chain_line(w, *params))
    return 0


def _cmd_indep(args) -> int:
    verdict = mult_independent(args.p, args.q)
    if verdict.independent:
        print("independent")
        return 0
    k, ell = verdict.dependence_witness
    with _exact_decimals():
        print(f"dependent: {args.p}^{k} = {args.q}^{ell} = {decimal.Decimal(args.p) ** k}")
    return 1


def _cmd_gaps(args) -> int:
    result = gap_scan(_load(args), args.horizon)
    print(f"max_gap: {result.max_gap}")
    print(f"occurrences: {len(result.positions)}")
    lo, hi = result.positions[0]
    print(f"first: {lo} {hi}")
    return 0


def _cmd_refute(args) -> int:
    set_p = read_automaton(args.file_p, strict=not args.lenient)
    set_q = read_automaton(args.file_q, strict=not args.lenient)
    cert = cross_base_refute(set_p, set_q)
    if cert is None:
        print("absent: the second automaton has no empty interval family; "
              "no refutation of this shape exists (the sets may or may not be equal)")
        return 1
    nw, ew, kw = cert.base_p_witness, cert.base_q_witness, cert.kronecker
    print("refuted: true")
    print(f"base_p: {cert.base_p}")
    print(f"base_q: {cert.base_q}")
    print(f"nonempty_witness: m={nw.m} a={nw.a} b={nw.b} state={nw.state}")
    print(f"empty_witness: m={ew.m} a={ew.a} b={ew.b} state={ew.state}")
    print(f"kronecker: K={kw.k} L={kw.ell}")
    print(_chain_line(kw, nw.m, ew.m, nw.a, nw.b, ew.a, ew.b, cert.base_p, cert.base_q))
    print(f"element: {cert.element}")
    return 0


def _cmd_example1(args) -> int:
    return _emit(args, example1())


def _add_io_flags(sub, out: bool = False) -> None:
    sub.add_argument("--lenient", action="store_true",
                     help="repair leading-zero acceptance instead of rejecting it; tolerate unknown fields")
    if out:
        sub.add_argument("--out", metavar="PATH", default=None,
                         help="write the automaton document here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recset",
        description="Finite-automaton recognizable sets of naturals: "
                    "membership, minimization, length profiles, interval "
                    "witnesses, and a complete syndeticity decision.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("encode", help="base-p digits of an integer")
    sub.add_argument("n", type=int)
    sub.add_argument("base", type=int)
    sub.set_defaults(func=_cmd_encode)

    sub = subs.add_parser("decode", help="integer value of a digit list")
    sub.add_argument("digits", help="comma-separated digits, may be empty")
    sub.add_argument("base", type=int)
    sub.set_defaults(func=_cmd_decode)

    sub = subs.add_parser("member", help="is n in the set?")
    sub.add_argument("file")
    sub.add_argument("n", type=int)
    _add_io_flags(sub)
    sub.set_defaults(func=_cmd_member)

    sub = subs.add_parser("enum", help="first elements in increasing order")
    sub.add_argument("file")
    sub.add_argument("limit", type=int)
    _add_io_flags(sub)
    sub.set_defaults(func=_cmd_enum)

    sub = subs.add_parser("minimize", help="canonical minimal automaton")
    sub.add_argument("file")
    _add_io_flags(sub, out=True)
    sub.set_defaults(func=_cmd_minimize)

    sub = subs.add_parser("trim", help="drop unreachable and dead states")
    sub.add_argument("file")
    _add_io_flags(sub, out=True)
    sub.set_defaults(func=_cmd_trim)

    sub = subs.add_parser("right-dense", help="does every word extend into the zero-padded language?")
    sub.add_argument("file")
    _add_io_flags(sub)
    sub.set_defaults(func=_cmd_right_dense)

    sub = subs.add_parser("profile", help="length-set profile of a state")
    sub.add_argument("file")
    sub.add_argument("state", type=int)
    _add_io_flags(sub)
    sub.set_defaults(func=_cmd_profile)

    sub = subs.add_parser("witness-nonempty", help="uniformly nonempty interval family")
    sub.add_argument("file")
    _add_io_flags(sub)
    sub.add_argument("--m-min", type=int, default=1, dest="m_min",
                     help="smallest admissible m (default 1)")
    sub.set_defaults(func=_cmd_witness_nonempty)

    sub = subs.add_parser("witness-empty", help="uniformly empty interval family, if any")
    sub.add_argument("file")
    _add_io_flags(sub)
    sub.set_defaults(func=_cmd_witness_empty)

    sub = subs.add_parser("syndetic", help="decide bounded gaps, with certificate or witness")
    sub.add_argument("file")
    _add_io_flags(sub)
    sub.set_defaults(func=_cmd_syndetic)

    sub = subs.add_parser("kronecker", help="exponent pair nesting scaled power intervals")
    for name in ("m", "n", "a", "b", "c", "d", "p", "q"):
        sub.add_argument(name, type=int)
    sub.set_defaults(func=_cmd_kronecker)

    sub = subs.add_parser("indep", help="are two bases multiplicatively independent?")
    sub.add_argument("p", type=int)
    sub.add_argument("q", type=int)
    sub.set_defaults(func=_cmd_indep)

    sub = subs.add_parser("gaps", help="scan consecutive-element gaps up to a horizon")
    sub.add_argument("file")
    sub.add_argument("--horizon", type=int, default=100_000)
    _add_io_flags(sub)
    sub.set_defaults(func=_cmd_gaps)

    sub = subs.add_parser("refute", help="nested-interval proof that two automata differ")
    sub.add_argument("file_p")
    sub.add_argument("file_q")
    _add_io_flags(sub)
    sub.set_defaults(func=_cmd_refute)

    sub = subs.add_parser("example1", help="write the built-in right-dense-but-gappy set")
    sub.add_argument("--out", metavar="PATH", default=None)
    sub.set_defaults(func=_cmd_example1)

    return parser


def main(argv=None) -> int:
    # certificates can exceed the default int-to-str digit limit (Python >= 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left is met here, not at interpreter exit
        return code
    except BrokenPipeError:  # later flushes go nowhere, as the signal module's docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SearchCapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, PreconditionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecsetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # MemoryError included: a crash must not read as exit 1
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
