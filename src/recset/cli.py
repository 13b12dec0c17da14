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


def _load(args, name: str = "file") -> RecognizableSet:
    return read_automaton(getattr(args, name), strict=not args.lenient)


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
    cert = cross_base_refute(_load(args, "file_p"), _load(args, "file_q"))
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


class _Parser(argparse.ArgumentParser):
    """A usage error leaves through `main`'s one `error:` line, as any validation error."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recset",
        description="Finite-automaton recognizable sets of naturals: "
                    "membership, minimization, length profiles, interval "
                    "witnesses, and a complete syndeticity decision.")
    subs = parser.add_subparsers(dest="command", required=True)
    lenient = argparse.ArgumentParser(add_help=False)
    lenient.add_argument("--lenient", action="store_true",
                         help="repair leading-zero acceptance instead of rejecting it; tolerate unknown fields")
    document = argparse.ArgumentParser(add_help=False, parents=[lenient])
    document.add_argument("file")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="write the automaton document here instead of stdout")

    def command(name, func, summary, *integers, parents=(document,)):
        sub = subs.add_parser(name, help=summary, parents=parents)
        for integer in integers:
            sub.add_argument(integer, type=int)
        sub.set_defaults(func=func)
        return sub

    command("encode", _cmd_encode, "base-p digits of an integer", "n", "base", parents=())
    decode = command("decode", _cmd_decode, "integer value of a digit list", parents=())
    decode.add_argument("digits", help="comma-separated digits, may be empty")
    decode.add_argument("base", type=int)
    command("member", _cmd_member, "is n in the set?", "n")
    command("enum", _cmd_enum, "first elements in increasing order", "limit")
    command("minimize", _cmd_minimize, "canonical minimal automaton", parents=(document, out))
    command("trim", _cmd_trim, "drop unreachable and dead states", parents=(document, out))
    command("right-dense", _cmd_right_dense, "does every word extend into the zero-padded language?")
    command("profile", _cmd_profile, "length-set profile of a state", "state")
    command("witness-nonempty", _cmd_witness_nonempty, "uniformly nonempty interval family").add_argument(
        "--m-min", type=int, default=1, help="smallest admissible m (default 1)")
    command("witness-empty", _cmd_witness_empty, "uniformly empty interval family, if any")
    command("syndetic", _cmd_syndetic, "decide bounded gaps, with certificate or witness")
    command("kronecker", _cmd_kronecker, "exponent pair nesting scaled power intervals",
            *"mnabcdpq", parents=())
    command("indep", _cmd_indep, "are two bases multiplicatively independent?", "p", "q", parents=())
    command("gaps", _cmd_gaps, "scan consecutive-element gaps up to a horizon").add_argument(
        "--horizon", type=int, default=100_000)
    refute = command("refute", _cmd_refute, "nested-interval proof that two automata differ",
                     parents=(lenient,))
    refute.add_argument("file_p")
    refute.add_argument("file_q")
    command("example1", _cmd_example1, "write the built-in right-dense-but-gappy set", parents=(out,))
    return parser


def main(argv=None) -> int:
    # certificates can exceed the default int-to-str digit limit (Python >= 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that left is met here, not at interpreter exit
        return code
    except SystemExit:  # --help has printed; usage errors raise ValidationError instead
        return 0
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
