"""Core 6j evaluation: dimensions, 3j prefactors, all evaluators, caching."""

import importlib
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sonsixj.exact import PoleError, ResidualSqrtPiError, SurdValue, surd_normalize
from sonsixj.labels import SixJLabels, admissible_sixes, shelepin, symmetry_orbit
from sonsixj.sixj import (
    DEFAULT_CACHE_SIZE,
    FACTORIAL_METHODS,
    METHODS,
    MethodChoice,
    _abcdef,
    _gamma_sum,
    c_alpha,
    cache_clear,
    cache_info,
    configure_cache,
    dim,
    select_method,
    sixj,
    threej_zero,
)
from sonsixj.verify import random_admissible


def test_dim_values():
    assert dim(5, 2) == 14
    assert dim(4, 1) == 4
    assert dim(10, 3) == 210
    assert dim(6, 0) == 1
    assert dim(7, 1) == 7
    assert dim(3, 0) == 1 and dim(3, 4) == 9


def test_dim_small_n():
    assert dim(2, 0) == 1
    assert [dim(2, l) for l in range(1, 5)] == [2, 2, 2, 2]
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=f"n = {n}"):
            dim(n, 0)


def test_threej_diagonal_law():
    # {l l 0} with zero projections squares to 1/dim
    for n in (4, 5, 6, 9):
        for l in range(0, 5):
            v = threej_zero(n, l, l, 0)
            assert v.sign() >= 0
            assert v.square() == Fraction(1, dim(n, l))


def test_threej_values():
    assert threej_zero(6, 2, 2, 0) == surd_normalize(Fraction(1, 10), 5)
    assert threej_zero(5, 2, 2, 2) == surd_normalize(Fraction(1, 42), 42)
    assert threej_zero(4, 1, 1, 2) == surd_normalize(Fraction(1, 6), 3)


def test_threej_vanishing():
    # odd total or broken triangle
    assert threej_zero(6, 2, 2, 1).is_zero()
    assert threej_zero(6, 3, 1, 1).is_zero()


def test_sixj_all_zero_labels():
    for n in range(4, 10):
        assert sixj(SixJLabels(0, 0, 0, 0, 0, 0, n)).value == SurdValue.of_rational(1)


def test_sixj_inadmissible_is_zero():
    out = sixj(SixJLabels(0, 0, 1, 0, 0, 1, 6))
    assert out.value.is_zero()
    assert out.method_used == "zero"
    assert out.predicted_terms == 0
    assert sixj(SixJLabels(1, 1, 1, 1, 1, 1, 6)).value.is_zero()


# Frozen reference values.  Each was computed by the two independent SU(2)
# reduction routes for even n, which agreed, and is pinned here as a literal.
FROZEN_SIXJ = {
    (2, 2, 2, 2, 2, 2, 4): Fraction(1, 36),
    (2, 2, 2, 2, 2, 2, 6): Fraction(9, 400),
    (2, 2, 4, 2, 2, 4, 6): Fraction(1, 2100),
    (1, 1, 2, 1, 1, 2, 8): Fraction(3, 280),
    (4, 2, 2, 2, 4, 2, 4): Fraction(1, 20),
    (3, 3, 4, 3, 3, 2, 6): Fraction(1, 175),
}

# Frozen core coefficients for odd n, where no reduction route exists.  Each
# was computed by the three structurally distinct evaluator families
# (double-sum, factorial-form, and triple-sum), which agreed exactly.
FROZEN_CALPHA = {
    (2, 2, 2, 2, 2, 2, 5): Fraction(9604, 81),
    (1, 1, 2, 1, 1, 2, 7): Fraction(70, 3),
    (2, 4, 2, 4, 2, 4, 9): Fraction(60623640, 2197),
}


def test_sixj_frozen_values():
    for six_n, expected in FROZEN_SIXJ.items():
        lab = SixJLabels(*six_n)
        assert sixj(lab).value == SurdValue.of_rational(expected), six_n


def test_calpha_frozen_values():
    for six_n, expected in FROZEN_CALPHA.items():
        lab = SixJLabels(*six_n)
        for method in ("A", "B", "T3"):
            assert c_alpha(lab, method).value == expected, (six_n, method)


def test_all_evaluators_agree():
    for six in [(2, 2, 2, 2, 2, 2), (1, 3, 2, 3, 1, 4), (2, 2, 4, 4, 2, 2),
                (0, 2, 2, 2, 0, 2), (3, 1, 2, 1, 3, 2)]:
        for n in (4, 5, 7):
            lab = SixJLabels(*six, n)
            values = {m: c_alpha(lab, m).value for m in METHODS + FACTORIAL_METHODS
                      if m not in ("StretchedE", "NearStretchedE")}
            assert len(set(values.values())) == 1, (six, n, values)


def test_stretched_methods_match_generic():
    # fully stretched: the first overlap row vanishes
    lab = SixJLabels(2, 2, 4, 2, 2, 4, 6)
    assert shelepin(lab).r(1, 1) == 0
    assert c_alpha(lab, "StretchedE").value == c_alpha(lab, "A").value
    # near stretched: the corner overlap is exactly 1
    lab2 = SixJLabels(2, 2, 2, 2, 2, 2, 6)
    assert shelepin(lab2).r(1, 1) == 1
    assert c_alpha(lab2, "NearStretchedE").value == c_alpha(lab2, "A").value


def test_closed_forms_reject_other_label_sets():
    # r11 = 1 is not stretched, r11 = 0 is not near-stretched, r11 = 2 is neither
    for six, method, message in [
        ((2, 2, 2, 2, 2, 2), "StretchedE", "stretched closed form needs e = a + b"),
        ((2, 2, 4, 2, 2, 4), "NearStretchedE", "near-stretched closed form needs e = a + b - 2"),
        ((2, 2, 0, 2, 2, 0), "StretchedE", "stretched closed form needs e = a + b"),
        ((2, 2, 0, 2, 2, 0), "NearStretchedE", "near-stretched closed form needs e = a + b - 2"),
    ]:
        with pytest.raises(ValueError) as info:
            c_alpha(SixJLabels(*six, 6), method)
        assert str(info.value) == message


def test_unknown_method_rejected():
    lab = SixJLabels(2, 2, 2, 2, 2, 2, 6)
    for method in ("Z", "auto", "a"):
        with pytest.raises(ValueError) as info:
            c_alpha(lab, method)
        assert str(info.value) == f"unknown method {method}"


def test_select_method_choices():
    choice = select_method(SixJLabels(2, 2, 4, 2, 2, 4, 6))
    assert choice.method == "StretchedE"
    assert choice.predicted_terms == 1
    choice2 = select_method(SixJLabels(2, 2, 2, 2, 2, 2, 6))
    assert choice2.method == "NearStretchedE"
    assert choice2.predicted_terms == 2


def predicted_terms(method: str, r11: int, r13: int, r31: int) -> int:
    """Work estimate: the summation lattice size of the method."""
    if method == "StretchedE":
        return 1
    if method == "NearStretchedE":
        return 2
    if method == "A":
        return (r11 + 1) * (r13 + 1)
    if method in ("B", "C"):
        return (r11 + 1) * (r31 + 1)
    if method == "T3":
        return (r11 + 1) * (r11 + 2) * (2 * r11 + 3) // 6
    raise ValueError(f"unknown method {method}")


def reference_select(labels):
    """The plain orbit scan: every distinct variant in label order, every method."""
    best = None
    for variant in sorted(symmetry_orbit(labels), key=lambda v: v.six):
        arr = shelepin(variant)
        r11, r13, r31 = arr.r(1, 1), arr.r(1, 3), arr.r(3, 1)
        cands = ["A", "B", "C", "T3"]
        if r11 == 0:
            cands.append("StretchedE")
        elif r11 == 1:
            cands.append("NearStretchedE")
        for m in cands:
            key = (predicted_terms(m, r11, r13, r31), METHODS.index(m), variant.six)
            if best is None or key < best[0]:
                best = (key, MethodChoice(m, key[0], variant))
    return best[1]


@pytest.mark.parametrize("n", [6, 7])
def test_select_method_matches_orbit_scan(n):
    for six in admissible_sixes(6):
        lab = SixJLabels(*six, n)
        assert select_method(lab) == reference_select(lab), six


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(4, 12))
def test_select_method_matches_orbit_scan_large_labels(rng, n):
    lab = random_admissible(rng, n, 30)
    assert select_method(lab) == reference_select(lab)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(4, 12))
def test_auto_equals_every_forced_method(rng, n):
    lab = random_admissible(rng, n, 30)
    auto = sixj(lab, use_cache=False).value
    for method in ("A", "B", "C"):
        assert sixj(lab, method=method).value == auto, method


def test_predicted_terms_bounds_actual():
    for six in list(admissible_sixes(3))[::5]:
        lab = SixJLabels(*six, 6)
        choice = select_method(lab)
        got = c_alpha(choice.variant, choice.method)
        assert got.terms <= choice.predicted_terms, (six, choice)


def test_sixj_orbit_invariance():
    lab = SixJLabels(1, 3, 2, 3, 1, 4, 7)
    ref = sixj(lab, method="A").value
    for member in symmetry_orbit(lab):
        assert sixj(member, method="B", use_cache=False).value == ref


def test_odd_n_core_coefficients_are_rational():
    # the core coefficient stays rational at odd n; the assembled symbol may
    # still carry a surd from its normalization factors
    for six in [(2, 2, 2, 2, 2, 2), (1, 1, 2, 1, 1, 2), (2, 4, 2, 4, 2, 4)]:
        for n in (5, 7, 9):
            lab = SixJLabels(*six, n)
            for method in ("A", "C", "T3"):
                assert isinstance(c_alpha(lab, method).value, Fraction), (six, n)
    v = sixj(SixJLabels(2, 4, 2, 4, 2, 4, 5), use_cache=False).value
    assert v == surd_normalize(Fraction(1, 693), 91)


def test_n_guard():
    lab3 = SixJLabels(0, 0, 0, 0, 0, 0, 3)
    with pytest.raises(ValueError):
        sixj(lab3)
    assert sixj(lab3, allow_n3=True).value == SurdValue.of_rational(1)
    with pytest.raises(ValueError):
        sixj(SixJLabels(0, 0, 0, 0, 0, 0, 2), allow_n3=True)


def test_cache_round_trip():
    configure_cache(16)
    try:
        lab = SixJLabels(2, 2, 4, 4, 2, 2, 8)
        first = sixj(lab)
        second = sixj(lab)
        assert first.value == second.value
        assert second.method_used == first.method_used
        assert cache_info()[:2] == (1, 1)  # hits, misses
        # orbit members share the cache slot and the value
        swapped = lab._replace(a=4, d=2, b=2, c=2)
        third = sixj(swapped)
        assert cache_info()[:2] == (2, 1)
        assert cache_info().currsize == 1
        assert third.labels == swapped
        assert (third.value, third.method_used, third.predicted_terms) == (
            first.value, first.method_used, first.predicted_terms)
        uncached = sixj(lab, use_cache=False)
        assert uncached.value == first.value
        assert cache_info()[:2] == (2, 1)
        cache_clear()
        assert cache_info() == (0, 0, 16, 0)
    finally:
        configure_cache(DEFAULT_CACHE_SIZE)


def test_cache_disabled():
    configure_cache(0)
    try:
        lab = SixJLabels(2, 2, 2, 2, 2, 2, 6)
        assert sixj(lab).value == SurdValue.of_rational(Fraction(9, 400))
        assert sixj(lab).value == SurdValue.of_rational(Fraction(9, 400))
        assert cache_info()[:2] == (0, 2)  # hits, misses
        assert cache_info().currsize == 0
    finally:
        configure_cache(DEFAULT_CACHE_SIZE)
    assert cache_info().maxsize == 65536


def test_cache_is_thread_safe():
    # four threads alternate two orbits through a one-slot cache with a tiny switch
    # interval; a check-then-read lookup raised KeyError here
    labs = (SixJLabels(0, 0, 0, 0, 0, 0, 6), SixJLabels(1, 1, 0, 1, 1, 0, 6))
    expected = [sixj(lab, use_cache=False).value for lab in labs]
    errors = []

    def worker():
        try:
            for i in range(1000):
                assert sixj(labs[i % 2]).value == expected[i % 2]
        except Exception as exc:  # reported to the main thread below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    configure_cache(1)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
        configure_cache(DEFAULT_CACHE_SIZE)
    assert not errors, errors[:1]


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2", None])
def test_non_int_labels_rejected(bad):
    for i, name in enumerate(SixJLabels._fields):
        fields = [1, 1, 0, 1, 1, 0, 6]
        fields[i] = bad
        lab = SixJLabels(*fields)
        for call in (sixj, c_alpha, lambda x: sixj(x, method="B")):
            with pytest.raises(ValueError, match=f"label {name} = "):
                call(lab)


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2", None])
def test_dim_rejects_non_int(bad):
    with pytest.raises(ValueError, match="label l = "):
        dim(5, bad)
    with pytest.raises(ValueError, match="label n = "):
        dim(bad, 2)


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2", None])
def test_threej_zero_rejects_non_int(bad):
    for i, name in enumerate(("n", "l1", "l2", "l3")):
        args = [6, 2, 2, 2]
        args[i] = bad
        with pytest.raises(ValueError, match=f"label {name} = "):
            threej_zero(*args)


@pytest.mark.parametrize("module", ["exact", "sixj"])
def test_every_lru_cache_is_bounded(module):
    # a long verify or a large-n check run must not keep every value it ever made
    mod = importlib.import_module(f"sonsixj.{module}")
    caches = {name: obj for name, obj in vars(mod).items() if hasattr(obj, "cache_parameters")}
    assert caches
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, f"{module}.{name} is unbounded"


def test_cache_info_reports_the_configured_size():
    assert cache_info().maxsize == DEFAULT_CACHE_SIZE
    configure_cache(123)
    try:
        assert cache_info().maxsize == 123
    finally:
        configure_cache(DEFAULT_CACHE_SIZE)
    assert cache_info().maxsize == DEFAULT_CACHE_SIZE


def test_generic_evaluators_agree_at_n3():
    # B, C, T3 and the three factorial forms against A, at SO(3) with labels <= 4
    for six in admissible_sixes(4):
        lab = SixJLabels(*six, 3)
        ref = c_alpha(lab, "A", allow_n3=True).value
        for method in ("B", "C", "T3", *FACTORIAL_METHODS):
            assert c_alpha(lab, method, allow_n3=True).value == ref, (six, method)


# the Gamma-product loop behind T3 and the factorial forms; arguments are doubled
_LAB = SixJLabels(2, 2, 2, 2, 2, 2, 6)
_SCALE = Fraction(1, 6) * _abcdef(_LAB)  # 1/(n-3)! times the six-label product


def test_gamma_sum_skips_a_denominator_pole_uncounted():
    # Gamma(1)/Gamma(0) is a zero term; -Gamma(3)/Gamma(1) = -2 is the one counted
    assert _gamma_sum(_LAB, [], [], 0, iter([(0, [2], [0]), (1, [6], [2])])) == (-2 * _SCALE, 1)
    # a numerator pole pairs with a denominator pole: Gamma(-1)/Gamma(0) = -1, counted
    assert _gamma_sum(_LAB, [], [], 0, iter([(0, [-2], [0])])) == (-_SCALE, 1)


def test_gamma_sum_prefactor_and_sign():
    # Gamma(5/2)/Gamma(1/2) = 3/4 times the term Gamma(1/2)/Gamma(1/2), negated
    assert _gamma_sum(_LAB, [5], [1], 1, iter([(0, [1], [1])])) == (-Fraction(3, 4) * _SCALE, 1)


def test_gamma_sum_numerator_pole_raises():
    with pytest.raises(PoleError, match=r"unpaired gamma poles in numerator: \[-1\]$"):
        _gamma_sum(_LAB, [], [], 0, iter([(0, [4], [2]), (0, [3, -2], [2])]))


def test_gamma_sum_mixed_sqrt_pi_raises():
    # Gamma(1/2) carries sqrt(pi) and Gamma(1) does not
    with pytest.raises(ResidualSqrtPiError, match="inconsistent"):
        _gamma_sum(_LAB, [], [], 0, iter([(0, [1], [2]), (0, [2], [2])]))
    with pytest.raises(ResidualSqrtPiError, match=r"residual sqrt\(pi\)\*\*1$"):
        _gamma_sum(_LAB, [], [], 0, iter([(0, [1], [2])]))
