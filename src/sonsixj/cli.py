"""Command-line front end.

One executable, several kinds of query:

    sonsixj sixj    --n 6 -- 2 2 2 2 2 2 --format exact
    sonsixj calpha  --n 5 --method B -- 2 2 2 2 2 2
    sonsixj threej  --n 6 -- 2 2 0
    sonsixj dim     --n 5 --l 2
    sonsixj sp_dim  --n 2 --nu 2
    sonsixj sp_u    --n 2 -- 1 1 2 1 1 2
    sonsixj orbit   --n 6 -- 2 4 4 2 4 4
    sonsixj verify  --suite cross-formula --n 4..9 --max-label 6
    sonsixj sweep   --kind sixj --n 4 --max-label 2 --jobs 4

Labels follow a bare ``--`` in the row order {a b e; d c f} (top row first).
Exact strings are the source of truth; decimals are derived, never fed back.
Exit codes: 0 success, 1 internal invariant violation, 2 malformed input, 141 when
stdout closes before the output ends (128 + SIGPIPE).
The only environment knob is SONSIXJ_CACHE_SIZE (entries in the value cache).
"""

from __future__ import annotations

import argparse
import decimal
import inspect
import json
import os
import re
import signal
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .exact import SurdValue, surd_normalize
from .labels import SixJLabels, admissible_sixes, symmetry_orbit
from .sixj import METHODS, FACTORIAL_METHODS, c_alpha, cache_info, configure_cache, dim, sixj, threej_zero
from .spn import SP_METHODS, SpLabels, dim_sp, sp_admissible, u_sp
from .verify import SUITES, run_suite

DEFAULT_DIGITS = 16
MAX_N_VALUES = 10_000  # most n values one --n may expand to

_EXACT_PATTERN = re.compile(
    r"^(?P<num>-?\d+)(?:/(?P<den>\d+))?"
    r"(?:\*sqrt\((?P<rnum>\d+)(?:/(?P<rden>\d+))?\))?$"
)


class MalformedQuery(ValueError):
    """Bad command-line input (exit code 2)."""


def render_exact(value: SurdValue | Fraction | int) -> str:
    """Canonical exact string: 'p/q' or 'p/q*sqrt(r)', as ``SurdValue.__str__`` writes it."""
    return str(value if isinstance(value, SurdValue) else Fraction(value))


def parse_exact(text: str) -> SurdValue:
    """Inverse of render_exact; round-trips byte-identically on its output."""
    m = _EXACT_PATTERN.match(text.strip())
    if not m:
        raise MalformedQuery(f"not an exact value: {text!r}")
    if m.group("den") == "0" or m.group("rden") == "0":
        raise MalformedQuery(f"zero denominator in {text!r}")
    coeff = Fraction(int(m.group("num")), int(m.group("den") or 1))
    radicand = Fraction(int(m.group("rnum") or 1), int(m.group("rden") or 1))
    try:
        return surd_normalize(coeff, radicand)
    except ValueError as exc:  # a radicand too large to factor
        raise MalformedQuery(f"{exc} in {text!r}") from exc


def render_decimal(value: SurdValue | Fraction | int, digits: int = DEFAULT_DIGITS) -> str:
    """Decimal rendering with the stated number of significant digits."""
    if not isinstance(value, SurdValue):
        value = SurdValue.of_rational(Fraction(value))
    if value.is_zero():
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        d = decimal.Decimal(value.coeff.numerator) / decimal.Decimal(value.coeff.denominator)
        if value.radicand != 1:
            d *= decimal.Decimal(value.radicand.numerator).sqrt()
        ctx.prec = digits
        return str(+d)


def _emit(args, payload: dict, exact_value) -> None:
    """Print one result in the requested format."""
    if args.format == "json":
        print(json.dumps(payload, separators=(", ", ": ")))
    elif args.format == "decimal":
        print(render_decimal(exact_value, args.digits))
    else:
        print(render_exact(exact_value))


def _payload(kind: str, n: int, labels: Sequence[int], method_used, predicted_terms, value) -> dict:
    return {
        "kind": kind,
        "n": n,
        "labels": list(labels),
        "method_used": method_used,
        "predicted_terms": predicted_terms,
        "value_exact": render_exact(value),
        "value_decimal": render_decimal(value),
    }


def extract_labels(argv: Sequence[str]) -> tuple[list[str], list[int]]:
    """Split off the integer run following a bare '--'.

    Returns the remaining argv (flags before and after the run) and the
    labels. Flags may follow the labels, as in '-- 2 2 2 2 2 2 --format json'.
    """
    argv = list(argv)
    if "--" not in argv:
        return argv, []
    at = argv.index("--")
    labels: list[int] = []
    rest = argv[:at]
    i = at + 1
    while i < len(argv) and re.fullmatch(r"-?\d+", argv[i]):
        labels.append(int(argv[i]))
        i += 1
    rest.extend(argv[i:])
    return rest, labels


def _need_labels(labels: list[int], count: int, what: str) -> list[int]:
    if len(labels) != count:
        raise MalformedQuery(
            f"{what} needs exactly {count} labels after '--', got {len(labels)}"
        )
    if any(x < 0 for x in labels):
        raise MalformedQuery(f"labels must be nonnegative, got {labels}")
    return labels


def _parse_n_list(text: str) -> list[int]:
    """'6' | '4..9' | '4,6,8' -> explicit list."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", part)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
        elif re.fullmatch(r"-?\d+", part):
            lo = hi = int(part)
        else:
            raise MalformedQuery(f"cannot parse n value {part!r}")
        # an empty range (hi < lo) is legal and contributes nothing
        if len(out) + max(0, hi - lo + 1) > MAX_N_VALUES:
            raise MalformedQuery(f"--n {text!r} expands to more than {MAX_N_VALUES} values")
        out.extend(range(lo, hi + 1))
    return out


def _single_n(text: str) -> int:
    values = _parse_n_list(text)
    if len(values) != 1:
        raise MalformedQuery(f"this query takes a single n, got {text!r}")
    return values[0]


# ---------------------------------------------------------------------------
# per-kind handlers
# ---------------------------------------------------------------------------


def _evaluate(kind: str, six: Sequence[int], n: int, method: str,
              allow_n3: bool = False) -> tuple[dict, SurdValue | Fraction]:
    """(json payload, exact value) of one sixj, calpha or sp_u query.

    ``auto`` means A for calpha and a for sp_u.
    """
    if kind == "sixj":
        result = sixj(SixJLabels(*six, n), method=method, allow_n3=allow_n3)
        method_used, terms = result.method_used, result.predicted_terms
    elif kind == "calpha":
        result = c_alpha(SixJLabels(*six, n), method if method != "auto" else "A", allow_n3=allow_n3)
        method_used, terms = result.method, result.terms
    else:
        result = u_sp(SpLabels(*six, n), method if method != "auto" else "a")
        method_used, terms = result.method, None
    return _payload(kind, n, six, method_used, terms, result.value), result.value


def _cmd_value(args, labels: list[int]) -> int:
    """The sixj, calpha and sp_u queries: six labels, one n, one value."""
    six = _need_labels(labels, 6, args.kind)
    n = _single_n(args.n)
    _emit(args, *_evaluate(args.kind, six, n, args.method, getattr(args, "allow_n3", False)))
    return 0


def _cmd_threej(args, labels: list[int]) -> int:
    ls = _need_labels(labels, 3, "threej")
    n = _single_n(args.n)
    value = threej_zero(n, *ls, allow_n3=args.allow_n3)
    _emit(args, _payload("threej", n, ls, None, None, value), value)
    return 0


def _cmd_dim(args, labels: list[int]) -> int:
    if labels:
        raise MalformedQuery("dim takes --l, not trailing labels")
    n = _single_n(args.n)
    value = dim(n, args.l)
    _emit(args, _payload("dim", n, [args.l], None, None, Fraction(value)), Fraction(value))
    return 0


def _cmd_sp_dim(args, labels: list[int]) -> int:
    if labels:
        raise MalformedQuery("sp_dim takes --nu, not trailing labels")
    n = _single_n(args.n)
    value = dim_sp(n, args.nu)
    _emit(args, _payload("sp_dim", n, [args.nu], None, None, Fraction(value)), Fraction(value))
    return 0


def _cmd_orbit(args, labels: list[int]) -> int:
    six = _need_labels(labels, 6, "orbit")
    n = _single_n(args.n)
    lab = SixJLabels(*six, n)
    variants = sorted(symmetry_orbit(lab), key=lambda v: v.six)
    for variant in variants:
        if args.format == "json":
            print(
                json.dumps(
                    {"kind": "orbit", "n": n, "labels": list(variant.six)},
                    separators=(", ", ": "),
                )
            )
        else:
            print(" ".join(str(x) for x in variant.six))
    return 0


def _cmd_verify(args, labels: list[int]) -> int:
    if labels:
        raise MalformedQuery("verify takes no trailing labels")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    kwargs = {}
    if args.n is not None:
        kwargs["n_values"] = tuple(_parse_n_list(args.n))
    if args.max_label is not None:
        kwargs["max_label"] = args.max_label
    if args.count is not None:
        kwargs["count"] = args.count
    if args.seed is not None:
        kwargs["seed"] = args.seed
    failed = False
    for name in names:
        accepted = inspect.signature(SUITES[name]).parameters
        report = run_suite(name, **{k: v for k, v in kwargs.items() if k in accepted})
        print(report.summary())
        for line in report.mismatches:
            print(f"  MISMATCH {line}")
        failed = failed or not report.ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# sweep: deterministic json-lines over a label range
# ---------------------------------------------------------------------------


_SWEEP_METHODS = {
    "sixj": ("auto",) + METHODS + FACTORIAL_METHODS,
    "calpha": ("auto",) + METHODS + FACTORIAL_METHODS,  # auto means A
    "sp_u": ("auto",) + SP_METHODS,  # auto means a
}

SweepTask = tuple[str, tuple[int, ...], int, str]


def _sweep_eval(task: SweepTask) -> str:
    return json.dumps(_evaluate(*task)[0], separators=(", ", ": "))


def _sweep_tasks(args) -> Iterator[SweepTask]:
    """Check every n, --max-label and --method, then return the tasks lazily.

    Tasks come in order of n, then of the labels (a, b, e, d, c, f).
    """
    n_values = _parse_n_list(args.n)
    kind, method = args.kind, args.method
    if method not in _SWEEP_METHODS[kind]:
        raise MalformedQuery(
            f"sweep --kind {kind} takes --method {', '.join(_SWEEP_METHODS[kind])}; got {method!r}"
        )
    if kind in ("sixj", "calpha"):
        if args.max_label is None:
            raise MalformedQuery("sweep over sixj/calpha needs --max-label")
        for n in n_values:
            if n < 4:
                raise MalformedQuery(f"sweep needs n >= 4, got {n}")
        return ((kind, six, n, method) for n in n_values for six in admissible_sixes(args.max_label))
    for n in n_values:
        if n < 1:
            raise MalformedQuery(f"sp sweep needs rank >= 1, got {n}")
    return (
        (kind, six, n, method)
        for n in n_values
        for six in admissible_sixes(args.max_label if args.max_label is not None else n)
        if sp_admissible(SpLabels(*six, n))
    )


def _sweep_chunk(tasks: list[SweepTask]) -> list[str]:
    return [_sweep_eval(task) for task in tasks]


def _pool_rows(tasks: Iterator[SweepTask], jobs: int, chunk: int = 64) -> Iterator[str]:
    """Rows in task order from a process pool, with at most 4 chunks per worker in flight."""
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending: deque = deque()
        for batch in iter(lambda: list(islice(tasks, chunk)), []):
            pending.append(pool.submit(_sweep_chunk, batch))
            if len(pending) >= 4 * jobs:
                yield from pending.popleft().result()
        for future in pending:
            yield from future.result()


def _cmd_sweep(args, labels: list[int]) -> int:
    if labels:
        raise MalformedQuery("sweep enumerates labels itself; drop the trailing labels")
    tasks = _sweep_tasks(args)
    jobs = min(args.jobs, os.cpu_count() or 1)
    for row in _pool_rows(tasks, jobs) if jobs > 1 else map(_sweep_eval, tasks):
        print(row)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("exact", "decimal", "json"), default="exact")
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS, help="significant digits for decimal output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sonsixj",
        description="Exact recoupling coefficients for symmetric irreps of SO(n) "
        "and antisymmetric irreps of Sp(2n). Labels follow '--' in the order a b e d c f.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)

    p = sub.add_parser("sixj", help="full 6j-symbol {a b e; d c f}")
    p.add_argument("--n", required=True)
    p.add_argument("--method", default="auto", choices=("auto",) + METHODS + FACTORIAL_METHODS)
    p.add_argument("--allow-n3", action="store_true")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("calpha", help="normalization-free core coefficient")
    p.add_argument("--n", required=True)
    p.add_argument("--method", default="A", choices=METHODS + FACTORIAL_METHODS)
    p.add_argument("--allow-n3", action="store_true")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("threej", help="3j-symbol with zero projections")
    p.add_argument("--n", required=True)
    p.add_argument("--allow-n3", action="store_true")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_threej)

    p = sub.add_parser("dim", help="dimension of the symmetric irrep l of SO(n)")
    p.add_argument("--n", required=True)
    p.add_argument("--l", type=int, required=True)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("sp_dim", help="dimension of the single-column irrep of Sp(2n)")
    p.add_argument("--n", required=True)
    p.add_argument("--nu", type=int, required=True)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_sp_dim)

    p = sub.add_parser("sp_u", help="symplectic recoupling coefficient")
    p.add_argument("--n", required=True)
    p.add_argument("--method", default="a", choices=SP_METHODS)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("orbit", help="all label sets sharing the same value")
    p.add_argument("--n", required=True)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("verify", help="run self-verification suites")
    p.add_argument("--suite", default="all", choices=("all",) + tuple(SUITES))
    p.add_argument("--n", default=None, help="n values, e.g. 4..9 or 4,6,8")
    p.add_argument("--max-label", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep", help="evaluate every admissible label set in range")
    p.add_argument("--kind", dest="kind_inner", default="sixj", choices=("sixj", "calpha", "sp_u"))
    p.add_argument("--n", required=True, help="n values, e.g. 4 or 4..6")
    p.add_argument("--max-label", type=int, default=None)
    p.add_argument("--method", default="auto")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPU count")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    cache_size = os.environ.get("SONSIXJ_CACHE_SIZE")
    if cache_size is not None:
        try:
            size = max(0, min(int(cache_size), sys.maxsize))  # the sizes lru_cache takes
        except ValueError:
            print(f"SONSIXJ_CACHE_SIZE must be an integer, got {cache_size!r}", file=sys.stderr)
            return 2
        if size != cache_info().maxsize:  # a new cache would drop what this process holds
            configure_cache(size)
    rest, labels = extract_labels(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(rest)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; pass both through
        return int(exc.code or 0)
    if getattr(args, "kind_inner", None) is not None:
        args.kind = args.kind_inner
    try:
        code = args.handler(args, labels)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does): point stdout at devnull so
        # the flush at exit cannot fail again, and exit as a process killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
