"""Command line interface: parsing, rendering, exit codes, sweeps."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from fractions import Fraction

import pytest

from sonsixj import cli, exact
from sonsixj.cli import (
    MalformedQuery,
    _parse_n_list,
    extract_labels,
    main,
    parse_exact,
    render_decimal,
    render_exact,
)
from sonsixj.exact import SurdValue, surd_normalize
from sonsixj.labels import SixJLabels, admissible_sixes, symmetry_orbit
from sonsixj.sixj import cache_clear, cache_info, sixj
from sonsixj.spn import SpLabels, u_sp


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def test_extract_labels():
    rest, labels = extract_labels(["sixj", "--n", "6", "--", "2", "2", "2", "2", "2", "2"])
    assert rest == ["sixj", "--n", "6"]
    assert labels == [2, 2, 2, 2, 2, 2]


def test_extract_labels_flags_after():
    rest, labels = extract_labels(["sixj", "--n", "6", "--", "1", "2", "3", "--format", "json"])
    assert rest == ["sixj", "--n", "6", "--format", "json"]
    assert labels == [1, 2, 3]


def test_extract_labels_absent():
    rest, labels = extract_labels(["verify", "--suite", "so4"])
    assert rest == ["verify", "--suite", "so4"]
    assert labels == []


def test_parse_n_list():
    assert _parse_n_list("6") == [6]
    assert _parse_n_list("4..9") == [4, 5, 6, 7, 8, 9]
    assert _parse_n_list("4,6,8") == [4, 6, 8]
    assert _parse_n_list("9..4") == []
    with pytest.raises(MalformedQuery):
        _parse_n_list("abc")


def test_parse_n_list_bounded(capsys):
    # checked before the list is built: the last two would not fit in memory
    assert len(_parse_n_list(f"1..{cli.MAX_N_VALUES}")) == cli.MAX_N_VALUES
    for text in (f"1..{cli.MAX_N_VALUES + 1}", f"1..{cli.MAX_N_VALUES},7",
                 "4..10000000000", "0..99999999999999999999999999"):
        with pytest.raises(MalformedQuery, match="expands to more than"):
            _parse_n_list(text)
    code = main(["sweep", "--kind", "sixj", "--n", "4..10000000000", "--max-label", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "expands to more than" in err


# ---------------------------------------------------------------------------
# exact and decimal rendering
# ---------------------------------------------------------------------------

def test_render_exact():
    assert render_exact(SurdValue.of_rational(Fraction(9, 400))) == "9/400"
    assert render_exact(surd_normalize(Fraction(1, 10), 5)) == "1/10*sqrt(5)"
    assert render_exact(SurdValue.zero()) == "0"
    assert render_exact(Fraction(-3)) == "-3"


def test_parse_exact_round_trip():
    for text in ("9/400", "1/10*sqrt(5)", "-3", "0", "7/2", "-2/3*sqrt(15)"):
        assert render_exact(parse_exact(text)) == text


def test_parse_exact_rejects_junk():
    for text in ("", "sqrt(5)", "1.5", "1/0", "2*sqrt(-3)"):
        with pytest.raises(MalformedQuery):
            parse_exact(text)


def test_parse_exact_rejects_unfactorable_radicand_quickly():
    text = "1*sqrt(%d)" % ((2**61 - 1) * (2**89 - 1))
    start = time.perf_counter()
    with pytest.raises(MalformedQuery, match="too large to factor"):
        parse_exact(text)
    assert time.perf_counter() - start < 1.0


def test_parse_exact_prime_power_radicand():
    # 8000360005400027 = 200003**3: a power of a prime beyond the trial-division bound
    assert render_exact(parse_exact("1*sqrt(8000360005400027)")) == "200003*sqrt(200003)"


def test_value_exact_round_trip_limit():
    # every radicand prime is below n + the largest triad sum (sixj) or at most 2n + 2
    # (sp_u); parse_exact needs those of 10**5 and above to multiply to less than 10**10
    inside = [sixj(SixJLabels(5, 2, 3, 2, 5, 2, 99980)).value,
              u_sp(SpLabels(1, 2, 1, 3, 2, 3, 49998)).value]
    beyond = [sixj(SixJLabels(5, 2, 3, 2, 5, 2, 100049)).value,
              u_sp(SpLabels(1, 2, 1, 3, 2, 3, 50076)).value]
    for value in inside:
        assert render_exact(parse_exact(render_exact(value))) == render_exact(value)
    assert beyond[0].radicand % (100049 * 100057) == 0
    assert beyond[1].radicand % (100151 * 100153) == 0
    for value in beyond:
        with pytest.raises(MalformedQuery, match="too large to factor"):
            parse_exact(render_exact(value))


def test_render_decimal():
    assert render_decimal(SurdValue.of_rational(Fraction(9, 400)), 8) == "0.0225"
    assert render_decimal(SurdValue.zero()) == "0"
    v = surd_normalize(Fraction(1, 10), 5)
    assert render_decimal(v, 16) == "0.2236067977499790"


def test_cache_hits_reuse_their_orbits_rendering(monkeypatch):
    cache_clear()
    first, *others = sorted(symmetry_orbit(SixJLabels(3, 4, 5, 2, 3, 4, 12)))
    value = sixj(first).value
    rendered = (render_exact(value), render_decimal(value))
    monkeypatch.setattr(exact, "decimal", None)  # a hit does no Decimal arithmetic
    assert others
    for labels in others:
        hit = sixj(labels).value
        assert hit is value
        assert (render_exact(hit), render_decimal(hit)) == rendered


def test_rows_rendered_in_threads_agree():
    # four threads fill one empty value cache and render its shared values at once,
    # under a tiny switch interval; each must print the serial sweep's rows
    tasks = [("sixj", six, n, "auto") for n in (7, 8) for six in admissible_sixes(3)]
    expected = [cli._sweep_eval(task) for task in tasks]
    results = []
    old_interval = sys.getswitchinterval()
    cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append([cli._sweep_eval(t) for t in tasks]))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert results == [expected] * 4


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cmd_dim(capsys):
    code, out = run_cli(capsys, ["dim", "--n", "5", "--l", "2"])
    assert code == 0 and out == "14\n"


def test_cmd_dim_small_n(capsys):
    assert run_cli(capsys, ["dim", "--n", "2", "--l", "0"]) == (0, "1\n")
    assert run_cli(capsys, ["dim", "--n", "2", "--l", "1"]) == (0, "2\n")
    code = main(["dim", "--n", "1", "--l", "0"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: dim needs n >= 2, got n = 1\n")


def test_cmd_sp_dim(capsys):
    code, out = run_cli(capsys, ["sp_dim", "--n", "2", "--nu", "2"])
    assert code == 0 and out == "5\n"


def test_cmd_sixj_exact(capsys):
    code, out = run_cli(capsys, ["sixj", "--n", "6", "--", "2", "2", "2", "2", "2", "2"])
    assert code == 0 and out == "9/400\n"


def test_cmd_threej_surd(capsys):
    code, out = run_cli(capsys, ["threej", "--n", "6", "--", "2", "2", "0"])
    assert code == 0 and out == "1/10*sqrt(5)\n"


def test_cmd_calpha_method(capsys):
    code, out = run_cli(capsys, ["calpha", "--n", "5", "--method", "B",
                                 "--", "2", "2", "2", "2", "2", "2"])
    assert code == 0 and out == "9604/81\n"


def test_cmd_sp_u(capsys):
    code, out = run_cli(capsys, ["sp_u", "--n", "2", "--", "1", "1", "2", "1", "1", "2"])
    assert code == 0 and out == "3/4\n"


def test_cmd_sixj_json_fields(capsys):
    code, out = run_cli(capsys, ["sixj", "--n", "6", "--format", "json",
                                 "--", "2", "2", "2", "2", "2", "2"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["kind", "n", "labels", "method_used",
                             "predicted_terms", "value_exact", "value_decimal"]
    assert payload["kind"] == "sixj"
    assert payload["labels"] == [2, 2, 2, 2, 2, 2]
    # the exact string round-trips byte for byte
    assert render_exact(parse_exact(payload["value_exact"])) == payload["value_exact"]


def test_cmd_sixj_decimal_digits(capsys):
    code, out = run_cli(capsys, ["sixj", "--n", "6", "--format", "decimal",
                                 "--digits", "8", "--", "2", "2", "2", "2", "2", "2"])
    assert code == 0 and out == "0.0225\n"


def test_cmd_orbit(capsys):
    code, out = run_cli(capsys, ["orbit", "--n", "6", "--", "1", "1", "2", "1", "1", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    assert "1 1 2 1 1 2" in lines and len(lines) == 3


def test_cmd_verify_suite(capsys):
    code, out = run_cli(capsys, ["verify", "--suite", "sp", "--n", "1,2"])
    assert code == 0
    assert out.startswith("suite sp:") and " ok " in out + " "


def test_cmd_verify_rejects_a_flag_its_suite_does_not_take(capsys):
    for argv, flag in ((["--suite", "so4", "--n", "5"], "--n"),
                       (["--suite", "sp", "--n", "1", "--max-label", "2"], "--max-label"),
                       (["--suite", "oracles", "--seed", "3"], "--seed")):
        code = main(["verify", *argv])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: verify --suite {argv[1]} does not take {flag}\n"
    # each suite of `all` takes only the flags it accepts
    code, out = run_cli(capsys, ["verify", "--suite", "all", "--n", "4", "--max-label", "1",
                                 "--count", "2", "--seed", "3"])
    summaries = [line for line in out.splitlines() if line.startswith("suite ")]
    assert code == 0 and [line.split(":")[0] for line in summaries] == [f"suite {s}" for s in cli.SUITES]
    assert "suite so4: 2 checks" in out and "suite cross-formula: 8 checks" in out


def test_cmd_verify_all_skips_a_suite_that_rejects_its_range(capsys):
    code = main(["verify", "--suite", "oracles", "--n", "5", "--max-label", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: oracle routes need even n")
    code, out = run_cli(capsys, ["verify", "--suite", "all", "--n", "4,5", "--max-label", "1",
                                 "--count", "2"])
    summaries = [line for line in out.splitlines() if line.startswith("suite ")]
    assert code == 0 and len(summaries) == len(cli.SUITES)
    assert "suite oracles: skipped (oracle routes need even n" in out
    assert "suite sp: " in out and "suite sp: skipped" not in out


def test_cmd_verify_all_names_the_odd_n_the_oracles_skip(capsys):
    code, out = run_cli(capsys, ["verify", "--suite", "all", "--n", "4,5,6", "--max-label", "1",
                                 "--count", "2"])
    [skip] = [line for line in out.splitlines() if line.startswith("suite oracles: ")]
    assert code == 0
    assert skip == "suite oracles: skipped (oracle routes need even n (quarter-integer arguments otherwise), got n = 5)"


def test_cmd_verify_skips_the_so_suites_below_n_4(capsys):
    code, out = run_cli(capsys, ["verify", "--suite", "all", "--n", "3", "--max-label", "1"])
    assert code == 0
    skipped = [line.split(":")[0] for line in out.splitlines() if ": skipped (" in line]
    assert skipped == [f"suite {s}" for s in ("cross-formula", "oracles", "symmetry", "rationality",
                                              "stretched", "kdf")]
    assert "suite stretched: skipped (the SO(n) suites need n >= 4, got n = 3)" in out
    for name in ("so4", "sp", "performance"):
        assert f"suite {name}: " in out and f"suite {name}: skipped" not in out
    for argv, err in ((["--suite", "cross-formula", "--n", "5,3"], "the SO(n) suites need n >= 4, got n = 3"),
                      (["--suite", "sp", "--n", "0"], "the sp suite needs ranks n >= 1, got n = 0")):
        code = main(["verify", *argv])
        assert (code, capsys.readouterr()) == (2, ("", f"error: {err}\n"))


def test_cmd_verify_all_exits_2_when_a_suite_raises_after_a_mismatch(capsys, monkeypatch):
    verify_mod = importlib.import_module("sonsixj.verify")

    def triple(lab):
        if lab.n == 4:
            return SurdValue.zero()  # a mismatch wherever the 6j-symbol is nonzero
        raise ValueError("raised mid-suite")

    monkeypatch.setattr(verify_mod, "sixj_via_su2_triple", triple)
    code = main(["verify", "--suite", "all", "--n", "4,6", "--max-label", "1", "--count", "2"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "error: raised mid-suite\n")
    assert "suite cross-formula: " in out and "suite oracles" not in out


@pytest.mark.parametrize("digits, code", [("0", 2), ("10000", 0), ("10001", 2)])
def test_cmd_digits_bounded(capsys, digits, code):
    got = main(["threej", "--n", "6", "--format", "decimal", "--digits", digits, "--", "2", "2", "0"])
    out, err = capsys.readouterr()
    assert got == code
    if code:
        assert (out, err) == ("", f"error: --digits must be in 1..10000, got {digits}\n")
    else:
        assert out.startswith("0.22360679774997896964") and len(out.strip()) == 2 + 10_000


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_malformed_label_count(capsys):
    assert main(["sixj", "--n", "6", "--", "2", "2", "2"]) == 2
    capsys.readouterr()


def test_exit_code_bad_n(capsys):
    assert main(["sixj", "--n", "abc", "--", "2", "2", "2", "2", "2", "2"]) == 2
    capsys.readouterr()


def test_exit_code_unsupported_n(capsys):
    assert main(["sixj", "--n", "3", "--", "0", "0", "0", "0", "0", "0"]) == 2
    out = run_cli(capsys, ["sixj", "--n", "3", "--allow-n3", "--", "0", "0", "0", "0", "0", "0"])
    assert out == (0, "1\n")


def test_unsupported_n_names_the_flag(capsys):
    assert main(["threej", "--n", "3", "--", "2", "2", "2"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: n = 3 unsupported (n >= 4, or n = 3 with allow_n3=True, "
                   "the command-line flag --allow-n3)\n")


@pytest.mark.parametrize("argv, flag, bound", [
    (["verify", "--suite", "so4", "--max-label", "-1"], "--max-label", "must be >= 0, got -1"),
    (["verify", "--suite", "symmetry", "--count", "0"], "--count", "must be >= 1, got 0"),
    (["sweep", "--kind", "sixj", "--n", "4", "--max-label", "-1"], "--max-label", "must be >= 0, got -1"),
    (["sweep", "--kind", "sp_u", "--n", "2", "--max-label", "-3"], "--max-label", "must be >= 0, got -3"),
    (["sweep", "--kind", "sixj", "--n", "4", "--max-label", "1", "--jobs", "0"], "--jobs", "must be >= 1, got 0"),
    (["sweep", "--kind", "sixj", "--n", "4", "--max-label", "1", "--jobs", "x"], "--jobs", "invalid int value: 'x'"),
])
def test_malformed_range_flags_exit_2(capsys, argv, flag, bound):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: argument {flag}: {bound}\n")


def test_exit_code_bad_cache_env(capsys, monkeypatch):
    sixj_mod = importlib.import_module("sonsixj.sixj")
    # main() replaces the process-wide cache; put the original back afterwards
    monkeypatch.setattr(sixj_mod, "_cached_evaluate", sixj_mod._cached_evaluate)
    monkeypatch.setenv("SONSIXJ_CACHE_SIZE", "many")
    assert main(["dim", "--n", "5", "--l", "2"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("SONSIXJ_CACHE_SIZE", str(10**30))  # beyond what lru_cache takes
    assert run_cli(capsys, ["dim", "--n", "5", "--l", "2"]) == (0, "14\n")
    monkeypatch.setenv("SONSIXJ_CACHE_SIZE", "64")
    code, out = run_cli(capsys, ["dim", "--n", "5", "--l", "2"])
    assert (code, out) == (0, "14\n")
    assert sixj_mod.cache_info().maxsize == 64


def test_parser_built_once_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["sixj", "--n", "6", "--format", "json", "--", "2", "2", "2", "2", "2", "2"]
    code, out = run_cli(capsys, [*argv, "--method", "B"])
    assert code == 0 and json.loads(out)["method_used"] == "B"
    code, out = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["method_used"] == "NearStretchedE"  # auto again
    code, out = run_cli(capsys, ["sixj", "--help"])
    assert code == 0 and out.startswith("usage: sonsixj sixj")
    assert run_cli(capsys, ["sp_u", "--n", "2", "--", "1", "1", "2", "1", "1", "2"]) == (0, "3/4\n")


def test_exit_code_closed_form_off_its_label_set(capsys):
    code = main(["sixj", "--n", "6", "--method", "StretchedE", "--", "2", "2", "2", "2", "2", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: stretched closed form needs e = a + b\n")


def test_env_cache_size_keeps_the_cache_across_calls(capsys, monkeypatch):
    sixj_mod = importlib.import_module("sonsixj.sixj")
    monkeypatch.setattr(sixj_mod, "_cached_evaluate", sixj_mod._cached_evaluate)
    monkeypatch.setenv("SONSIXJ_CACHE_SIZE", "100")
    argv = ["sixj", "--n", "6", "--", "2", "2", "2", "2", "2", "2"]
    assert run_cli(capsys, argv) == (0, "9/400\n")
    info = sixj_mod.cache_info()
    assert (info.maxsize, info.hits, info.misses) == (100, 0, 1)
    assert run_cli(capsys, argv) == (0, "9/400\n")
    info = sixj_mod.cache_info()
    assert (info.maxsize, info.hits, info.misses) == (100, 1, 1)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_deterministic_and_parallel(capsys):
    code, serial = run_cli(capsys, ["sweep", "--kind", "sixj", "--n", "4..5", "--max-label", "2"])
    assert code == 0
    code2, parallel = run_cli(capsys, ["sweep", "--kind", "sixj", "--n", "4..5",
                                       "--max-label", "2", "--jobs", "2"])
    assert code2 == 0
    assert serial == parallel
    rows = [json.loads(line) for line in serial.splitlines()]
    keys = [(r["n"], tuple(r["labels"])) for r in rows]
    assert keys == sorted(keys)


# SHA-256 of the stdout of `sonsixj sweep --kind sixj --n 4..9 --max-label 4` (3,420 rows),
# recorded from code that rendered every row afresh
SWEEP_4_9_SHA256 = "5c97304ebc19e7348d97e3fd12279af0287a28882cc95b988c1e5393ea000dcc"


def test_sweep_bytes_pinned_on_every_path(capsys):
    argv = ["sweep", "--kind", "sixj", "--n", "4..9", "--max-label", "4"]
    cache_clear()
    cold = run_cli(capsys, argv)
    misses = cache_info().misses
    warm = run_cli(capsys, argv)  # every row a cache hit, reusing its orbit's rendering
    assert cache_info().misses == misses
    pooled = run_cli(capsys, argv + ["--jobs", "2"])
    for code, out in (cold, warm, pooled):
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_4_9_SHA256


def test_sweeps_enumerate_a_small_label_range_once(capsys, monkeypatch):
    calls = []

    def counted(max_label):
        calls.append(max_label)
        return admissible_sixes(max_label)

    monkeypatch.setattr(cli, "admissible_sixes", counted)
    cli._kept_sixes.cache_clear()
    argv = ["sweep", "--kind", "sixj", "--n", "6,7", "--max-label", "2"]
    first, second = run_cli(capsys, argv), run_cli(capsys, argv)
    assert first == second and first[1].count("\n") == 2 * len(list(admissible_sixes(2)))
    assert calls == [2]
    # above the kept range nothing is kept: every n enumerates its own sets, lazily
    calls.clear()
    top = cli.KEPT_MAX_LABEL + 1
    tasks = cli._sweep_tasks(cli.build_parser().parse_args(["sweep", "--kind", "sixj", "--n", "6,7",
                                                             "--max-label", str(top)]))
    assert calls == []
    assert sum(1 for _ in tasks) == 2 * len(list(admissible_sixes(top))) and calls == [top, top]


def test_sweep_rows_match_direct_evaluation(capsys):
    _, out = run_cli(capsys, ["sweep", "--kind", "sixj", "--n", "4", "--max-label", "1"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 8
    by_labels = {tuple(r["labels"]): r["value_exact"] for r in rows}
    assert by_labels[(0, 1, 1, 0, 1, 1)] == "1/4"
    assert by_labels[(0, 0, 0, 0, 0, 0)] == "1"


def test_sweep_sp_kind(capsys):
    code, out = run_cli(capsys, ["sweep", "--kind", "sp_u", "--n", "2"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 36
    assert all(r["kind"] == "sp_u" for r in rows)


def test_sweep_empty_range(capsys):
    code, out = run_cli(capsys, ["sweep", "--kind", "sixj", "--n", "9..4", "--max-label", "2"])
    assert (code, out) == (0, "")


def test_sweep_checks_every_n_before_the_first_row(capsys):
    assert run_cli(capsys, ["sweep", "--kind", "sixj", "--n", "8,3", "--max-label", "2"]) == (2, "")
    assert run_cli(capsys, ["sweep", "--kind", "sp_u", "--n", "2,0"]) == (2, "")


@pytest.mark.parametrize("kind, method", [
    ("sp_u", "zzz"), ("sp_u", "A"), ("sixj", "zzz"), ("sixj", "a"), ("calpha", "b"),
])
def test_sweep_rejects_method_foreign_to_kind(capsys, kind, method):
    argv = ["sweep", "--kind", kind, "--n", "4", "--max-label", "1", "--method", method]
    assert run_cli(capsys, argv) == (2, "")


@pytest.mark.parametrize("kind, method", [
    (kind, method) for kind, query in cli.QUERIES.items() for method in query.methods
])
def test_sweep_runs_through_or_fails_before_the_first_row(capsys, kind, method):
    argv = ["sweep", "--kind", kind, "--n", "2" if kind == "sp_u" else "4", "--max-label", "2",
            "--method", method]
    code, out = run_cli(capsys, argv)
    assert (code == 0 and out) or (code, out) == (2, "")


@pytest.mark.parametrize("kind", ["sixj", "calpha"])
@pytest.mark.parametrize("method", ["StretchedE", "NearStretchedE"])
def test_sweep_rejects_the_closed_forms(capsys, kind, method):
    # they apply only where e = a + b or a + b - 2, which a sweep's label range crosses
    main(["sweep", "--kind", kind, "--n", "6", "--max-label", "3", "--method", method])
    out, err = capsys.readouterr()
    assert out == "" and "takes --method auto, A, B, C, T3, AFactorial, BFactorial, CFactorial;" in err


def test_sweep_method_auto_per_kind(capsys):
    for kind, default in (("sp_u", "a"), ("calpha", "A")):
        _, auto = run_cli(capsys, ["sweep", "--kind", kind, "--n", "4", "--max-label", "2"])
        _, forced = run_cli(capsys, ["sweep", "--kind", kind, "--n", "4", "--max-label", "2",
                                     "--method", default])
        assert auto == forced and auto


@pytest.mark.parametrize("kind, n, six, methods", [
    ("sixj", "5", (2, 2, 2, 2, 2, 2), [("auto", "auto")]),
    ("calpha", "5", (2, 2, 2, 2, 2, 2), [(None, "auto"), ("auto", "auto"), ("B", "B")]),
    ("sp_u", "2", (1, 1, 2, 1, 1, 2), [(None, "auto"), ("auto", "auto"), ("c", "c")]),
])
def test_single_json_query_equals_its_sweep_row(capsys, kind, n, six, methods):
    """One query and the sweep build a row by the same path; None is the query's default,
    so a single query's --method auto prints what its default prints."""
    labels = [str(x) for x in six]
    for single, swept in methods:
        flags = [] if single is None else ["--method", single]
        code, out = run_cli(capsys, [kind, "--n", n, "--format", "json", *flags, "--", *labels])
        assert code == 0
        _, rows = run_cli(capsys, ["sweep", "--kind", kind, "--n", n, "--max-label", "2",
                                   "--method", swept])
        row = next(line for line in rows.splitlines() if json.loads(line)["labels"] == list(six))
        assert out == row + "\n"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("cpus, jobs, workers", [
    (2, 1000, [2]), (3, 2, [2]), (None, 1000, []), (1, 8, []),
])
def test_sweep_jobs_capped_at_cpu_count(capsys, monkeypatch, cpus, jobs, workers):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    RecordingPool.seen = []
    argv = ["sweep", "--kind", "sixj", "--n", "4..5", "--max-label", "4"]  # 18 chunks of 64
    _, serial = run_cli(capsys, argv)
    code, out = run_cli(capsys, argv + ["--jobs", str(jobs)])
    assert (code, out) == (0, serial)
    assert RecordingPool.seen == workers


def test_closed_stdout_exits_without_traceback():
    # the reader takes one row and closes the pipe, as `sonsixj sweep ... | head -1` does;
    # the sweep prints far more than a pipe buffer holds, so the next write fails
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "sonsixj.cli", "sweep", "--kind", "calpha", "--n", "5..100",
            "--max-label", "2"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141  # 128 + SIGPIPE
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()
