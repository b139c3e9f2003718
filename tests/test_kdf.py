"""Terminating double-series representations of the core coefficient."""

from fractions import Fraction

import pytest

from sonsixj import kdf
from sonsixj.exact import PoleError, ResidualSqrtPiError
from sonsixj.kdf import (
    DEPENDENCY_FAMILY,
    VARIANTS,
    IndefinitePrefactorError,
    KdFParams,
    check_balance,
    check_dependencies,
    hook_reflection_map_check,
    kdf_c_alpha,
    kdf_eval,
    kdf_params_for,
)
from sonsixj.labels import SixJLabels, admissible_sixes
from sonsixj.sixj import c_alpha


def naive_eval(p: KdFParams) -> Fraction:
    """Plain double loop over the series terms, written independently."""

    def poch(x, k):
        out = Fraction(1)
        for i in range(k):
            out *= x + i
        return out

    def stop(uppers):
        return min(-int(u) for u in uppers if u.denominator == 1 and u <= 0)

    total = Fraction(0)
    for s in range(stop(p.b) + 1):
        for t in range(stop(p.b_prime) + 1):
            num = poch(p.a1, s + t)
            for bi in p.b:
                num *= poch(bi, s)
            for bi in p.b_prime:
                num *= poch(bi, t)
            den = poch(p.c1, s + t)
            for dj in p.d:
                den *= poch(dj, s)
            for dj in p.d_prime:
                den *= poch(dj, t)
            den *= Fraction(1)
            fact = 1
            for i in range(1, s + 1):
                fact *= i
            for i in range(1, t + 1):
                fact *= i
            total += num * p.x**s * p.y**t / (den * fact)
    return total


def _params(a1, c1, b, d, bp, dp, x=1, y=1):
    return KdFParams(
        Fraction(a1), Fraction(c1),
        tuple(Fraction(v) for v in b), tuple(Fraction(v) for v in d),
        tuple(Fraction(v) for v in bp), tuple(Fraction(v) for v in dp),
        Fraction(x), Fraction(y),
    )


def test_eval_trivial_series():
    # a vanishing coupled numerator parameter kills every term but (0, 0)
    p = _params(0, 3, (-2, 1, 1, 1), (2, 2, 2), (-1, 1, 1, 1), (3, 3, 3))
    assert kdf_eval(p) == 1


def test_eval_single_term_axes():
    # both axes stop at 0 when a zero sits among the uppers
    p = _params(-5, 2, (0, 4, 4, 4), (1, 1, 1), (0, 4, 4, 4), (1, 1, 1))
    assert kdf_eval(p) == 1


def test_eval_two_terms_by_hand():
    # one axis, one step: 1 + a1 * b1 b2 b3 b4 / (c1 * d1 d2 d3)
    p = _params(3, 3, (-1, 2, 1, 1), (5, 1, 1), (0, 1, 1, 1), (1, 1, 1))
    assert kdf_eval(p) == 1 + Fraction(3 * (-1) * 2, 3 * 5)


def test_eval_matches_naive_loop():
    cases = [
        _params(-3, Fraction(7, 2), (-2, 1, 2, 1), (3, 2, 4), (-1, 2, 1, 1), (2, 5, 3)),
        _params(-4, Fraction(5, 2), (-3, Fraction(1, 2), 1, 2), (2, 3, 3),
                (-2, 2, 2, 1), (4, 2, 2), x=Fraction(2, 3), y=Fraction(-1, 2)),
        _params(-2, 6, (-2, -1, 3, 1), (1, 2, 2), (-3, 1, 1, 2), (3, 1, 4)),
    ]
    for p in cases:
        assert kdf_eval(p) == naive_eval(p)


def test_eval_nonterminating_raises():
    p = _params(-1, 3, (2, 1, 1, 1), (5, 1, 1), (2, 1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        kdf_eval(p)


def test_eval_denominator_pole_raises():
    # denominator parameter hits zero inside the summation rectangle
    p = _params(-2, 3, (-2, 1, 1, 1), (-1, 2, 2), (0, 1, 1, 1), (1, 1, 1))
    with pytest.raises(PoleError):
        kdf_eval(p)


def test_variants_reproduce_core_coefficient():
    for six in admissible_sixes(2):
        for n in (4, 6):
            lab = SixJLabels(*six, n)
            ref = c_alpha(lab, "A").value
            for variant in VARIANTS:
                try:
                    kdf_params_for(lab, variant)
                except IndefinitePrefactorError:
                    continue
                assert kdf_c_alpha(lab, variant) == ref, (six, n, variant)


def test_params_balance_and_dependencies():
    for six in list(admissible_sixes(2))[::2]:
        lab = SixJLabels(*six, 6)
        for variant in VARIANTS:
            try:
                params, _ = kdf_params_for(lab, variant)
            except IndefinitePrefactorError:
                continue
            assert check_balance(params, 6), (six, variant)
            assert check_dependencies(params, DEPENDENCY_FAMILY[variant]), (six, variant)


def test_dependency_family_split():
    assert set(DEPENDENCY_FAMILY) == set(VARIANTS)
    assert set(DEPENDENCY_FAMILY.values()) == {"bala", "balb"}


def test_undefined_prefactor_skip_case():
    lab = SixJLabels(0, 1, 1, 0, 1, 1, 4)
    with pytest.raises(IndefinitePrefactorError):
        kdf_params_for(lab, "3a")
    # sibling variants on the same labels still exist and reproduce the core
    assert kdf_c_alpha(lab, "1a") == c_alpha(lab, "A").value


def test_prefactor_with_residual_sqrt_pi_raises(monkeypatch):
    lab = SixJLabels(2, 2, 2, 2, 2, 2, 6)
    assert isinstance(kdf_params_for(lab, "1a")[1], Fraction)
    monkeypatch.setattr(kdf, "gamma_ratio_doubled", lambda nums, dens: (1, 1, 1))
    with pytest.raises(ResidualSqrtPiError):
        kdf_params_for(lab, "1a")


def test_params_for_inadmissible_raises():
    with pytest.raises(ValueError):
        kdf_params_for(SixJLabels(0, 0, 1, 0, 0, 1, 6), "1a")


@pytest.mark.parametrize("n", [2, 1, 0])
def test_params_for_rejects_n_below_3(n):
    # an error naming n, not the undefined-prefactor skip
    lab = SixJLabels(2, 2, 2, 2, 2, 2, n)
    for variant in VARIANTS:
        with pytest.raises(ValueError, match=f"KdF series need n >= 3, got n = {n}$") as info:
            kdf_params_for(lab, variant)
        assert not isinstance(info.value, IndefinitePrefactorError)


def test_hook_reflection_maps():
    pairs = (("1a", "2a"), ("1b", "2b"), ("1a", "3b"), ("1b", "3a"))
    for six in [(2, 2, 2, 2, 2, 2), (1, 3, 2, 3, 1, 4), (2, 2, 4, 2, 2, 4)]:
        lab = SixJLabels(*six, 6)
        for pair in pairs:
            assert hook_reflection_map_check(lab, pair), (six, pair)
            assert hook_reflection_map_check(lab, pair[::-1]), (six, pair)


def test_hook_reflection_self_pairs():
    lab = SixJLabels(2, 2, 2, 2, 2, 2, 6)
    for v in VARIANTS:
        assert hook_reflection_map_check(lab, (v, v)), v


def test_hook_reflection_unknown_pair():
    lab = SixJLabels(2, 2, 2, 2, 2, 2, 6)
    with pytest.raises(ValueError):
        hook_reflection_map_check(lab, ("1a", "1b"))


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2", None])
def test_kdf_c_alpha_rejects_non_int(bad):
    for i, name in enumerate(SixJLabels._fields):
        fields = [2, 2, 2, 2, 2, 2, 6]
        fields[i] = bad
        with pytest.raises(ValueError, match=f"label {name} = "):
            kdf_c_alpha(SixJLabels(*fields), VARIANTS[0])
