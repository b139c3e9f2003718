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
Exact strings are the source of truth; decimals are derived, never fed back.  A
value renders its exact and its default decimal string once (``SurdValue`` keeps
them), so the sweep's rows that hit the value cache reuse their orbit's strings.
``--method auto`` means the orbit's cheapest production method for sixj, A for
calpha and a for sp_u; ``--digits`` takes 1..10000, ``--max-label`` 0 or more and
``--count`` and ``--jobs`` 1 or more; ``verify`` with one named suite rejects a flag
that suite does not take, and ``--suite all`` skips a suite that rejects its range
and runs the rest.
Exit codes: 0 success, 1 internal invariant violation, 2 malformed input, 141 when
stdout closes before the output ends (128 + SIGPIPE).
The only environment knob is SONSIXJ_CACHE_SIZE (entries in the value cache).
"""

from __future__ import annotations

import argparse
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
from typing import Callable, Iterator, NamedTuple, Sequence

from .exact import DEFAULT_DIGITS, SurdValue, surd_normalize
from .labels import SixJLabels, admissible_sixes, symmetry_orbit
from .sixj import METHODS, c_alpha, cache_info, configure_cache, dim, sixj, threej_zero
from .spn import SP_METHODS, SpLabels, dim_sp, sp_admissible, u_sp
from .verify import SUITES, SuiteRangeError, run_suite

MAX_N_VALUES = 10_000  # most n values one --n may expand to
MAX_DIGITS = 10_000  # most significant digits --digits may ask for

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
    return value.decimal_text(digits)


def _emit(args, payload: dict, exact_value) -> None:
    """Print one result in the requested format."""
    if args.format == "json":
        print(json.dumps(payload))
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
# query kinds and their handlers
# ---------------------------------------------------------------------------


def _sixj_value(six, n, method, allow_n3):
    result = sixj(SixJLabels(*six, n), method=method, allow_n3=allow_n3)
    return result.method_used, result.predicted_terms, result.value


def _calpha_value(six, n, method, allow_n3):
    result = c_alpha(SixJLabels(*six, n), method, allow_n3=allow_n3)
    return result.method, result.terms, result.value


class Query(NamedTuple):
    """One single-value query kind, as the parser, the query handler and the sweep read it.

    ``evaluate(labels, n, method, allow_n3)`` gives (method_used, predicted_terms, exact
    value); it looks sixj up when called, so a tracer may replace ``cli.sixj``.
    """

    help: str
    labels: int | str  # the label count after '--', or the name of the one scalar flag
    evaluate: Callable
    methods: tuple[str, ...] = ()  # the --method choices, auto first
    auto: str = "auto"  # the method auto stands for
    allow_n3: bool = False  # takes --allow-n3


_SO_METHODS = ("auto",) + METHODS

QUERIES = {
    "sixj": Query("full 6j-symbol {a b e; d c f}", 6, _sixj_value, _SO_METHODS, allow_n3=True),
    "calpha": Query("normalization-free core coefficient", 6, _calpha_value, _SO_METHODS, "A", True),
    "threej": Query("3j-symbol with zero projections", 3, lambda ls, n, method, allow_n3: (
        None, None, threej_zero(n, *ls, allow_n3=allow_n3)), allow_n3=True),
    "dim": Query("dimension of the symmetric irrep l of SO(n)", "l",
                 lambda ls, n, method, allow_n3: (None, None, Fraction(dim(n, *ls)))),
    "sp_dim": Query("dimension of the single-column irrep of Sp(2n)", "nu",
                    lambda ls, n, method, allow_n3: (None, None, Fraction(dim_sp(n, *ls)))),
    "sp_u": Query("symplectic recoupling coefficient", 6, lambda six, n, method, allow_n3: (
        method, None, u_sp(SpLabels(*six, n), method).value), ("auto",) + SP_METHODS, "a"),
}


def _cmd_query(args, labels: list[int]) -> int:
    """Every kind in QUERIES: labels (or one scalar flag), one n, one value."""
    kind, query = args.command, QUERIES[args.command]
    if isinstance(query.labels, str):
        if labels:
            raise MalformedQuery(f"{kind} takes --{query.labels}, not trailing labels")
        labels = [getattr(args, query.labels)]
    else:
        labels = _need_labels(labels, query.labels, kind)
    n = _single_n(args.n)
    if not 1 <= args.digits <= MAX_DIGITS:
        raise MalformedQuery(f"--digits must be in 1..{MAX_DIGITS}, got {args.digits}")
    method = query.auto if args.method == "auto" else args.method
    method_used, terms, value = query.evaluate(labels, n, method, args.allow_n3)
    _emit(args, _payload(kind, n, labels, method_used, terms, value), value)
    return 0


def _cmd_orbit(args, labels: list[int]) -> int:
    six = _need_labels(labels, 6, "orbit")
    n = _single_n(args.n)
    for variant in sorted(symmetry_orbit(SixJLabels(*six, n)), key=lambda v: v.six):
        if args.format == "json":
            print(json.dumps({"kind": "orbit", "n": n, "labels": list(variant.six)}))
        else:
            print(" ".join(str(x) for x in variant.six))
    return 0


_VERIFY_FLAGS = {"n": "n_values", "max_label": "max_label", "count": "count", "seed": "seed"}  # dest: keyword


def _cmd_verify(args, labels: list[int]) -> int:
    if labels:
        raise MalformedQuery("verify takes no trailing labels")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    given = {dest: getattr(args, dest) for dest in _VERIFY_FLAGS if getattr(args, dest) is not None}
    if "n" in given:
        given["n"] = tuple(_parse_n_list(given["n"]))
    failed = False
    for name in names:
        accepted = inspect.signature(SUITES[name]).parameters
        kwargs = {_VERIFY_FLAGS[dest]: v for dest, v in given.items() if _VERIFY_FLAGS[dest] in accepted}
        if args.suite != "all" and len(kwargs) < len(given):
            foreign = next(dest for dest in given if _VERIFY_FLAGS[dest] not in accepted)
            raise MalformedQuery(f"verify --suite {name} does not take --{foreign.replace('_', '-')}")
        try:
            report = run_suite(name, **kwargs)
        except SuiteRangeError as exc:  # raised before the suite checks anything
            if args.suite != "all":
                raise
            print(f"suite {name}: skipped ({exc})")
            continue
        print(report.summary())
        for line in report.mismatches:
            print(f"  MISMATCH {line}")
        failed = failed or not report.ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# sweep: deterministic json-lines over a label range
# ---------------------------------------------------------------------------


SweepTask = tuple[str, tuple[int, ...], int, str]


def _sweep_eval(task: SweepTask) -> str:
    kind, six, n, method = task
    return json.dumps(_payload(kind, n, six, *QUERIES[kind].evaluate(six, n, method, False)))


def _sweep_tasks(args) -> Iterator[SweepTask]:
    """Check every n, --max-label and --method, then return the tasks lazily.

    Tasks come in order of n, then of the labels (a, b, e, d, c, f).
    """
    n_values = _parse_n_list(args.n)
    kind, query = args.kind, QUERIES[args.kind]
    if args.method not in query.methods:
        raise MalformedQuery(f"sweep --kind {kind} takes --method {', '.join(query.methods)}; got {args.method!r}")
    method = query.auto if args.method == "auto" else args.method
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


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer >= low; anything else exits 2 with the usage."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its 'invalid int value' message
    return parse


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("exact", "decimal", "json"), default="exact")
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS, help="significant digits for decimal output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sonsixj",
        description="Exact recoupling coefficients for symmetric irreps of SO(n) "
        "and antisymmetric irreps of Sp(2n). Labels follow '--' in the order a b e d c f.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, query in QUERIES.items():
        p = sub.add_parser(kind, help=query.help)
        p.add_argument("--n", required=True)
        if isinstance(query.labels, str):
            p.add_argument(f"--{query.labels}", type=int, required=True)
        if query.methods:
            p.add_argument("--method", choices=query.methods)
        if query.allow_n3:
            p.add_argument("--allow-n3", action="store_true")
        _add_format_flags(p)
        p.set_defaults(handler=_cmd_query, method="auto", allow_n3=False)

    p = sub.add_parser("orbit", help="all label sets sharing the same value")
    p.add_argument("--n", required=True)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("verify", help="run self-verification suites")
    p.add_argument("--suite", default="all", choices=("all",) + tuple(SUITES))
    p.add_argument("--n", default=None, help="n values, e.g. 4..9 or 4,6,8")
    p.add_argument("--max-label", type=_int_at_least(0), default=None)
    p.add_argument("--count", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep", help="evaluate every admissible label set in range")
    p.add_argument("--kind", default="sixj", choices=tuple(k for k, q in QUERIES.items() if q.methods))
    p.add_argument("--n", required=True, help="n values, e.g. 4 or 4..6")
    p.add_argument("--max-label", type=_int_at_least(0), default=None)
    p.add_argument("--method", default="auto")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes, at most the CPU count")
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
