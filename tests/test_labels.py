"""Label bookkeeping: admissibility, the 3x4 overlap array, and the symmetry orbit."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sonsixj.labels import (
    TRIADS,
    ParityError,
    SixJLabels,
    admissible,
    admissible_sixes,
    array_labels,
    canonical_representative,
    orbit_key,
    reflect_labels,
    shelepin,
    symmetry_orbit,
    triangle_ok,
)


def test_triangle_ok():
    assert triangle_ok(2, 2, 2)
    assert triangle_ok(2, 2, 4)
    assert triangle_ok(0, 3, 3)
    assert not triangle_ok(0, 1, 2)
    assert not triangle_ok(5, 1, 1)


def test_admissible():
    assert admissible(SixJLabels(2, 2, 2, 2, 2, 2, 6))
    assert admissible(SixJLabels(0, 0, 0, 0, 0, 0, 4))
    # broken triangle
    assert not admissible(SixJLabels(0, 0, 1, 0, 0, 1, 6))
    # odd triad sum
    assert not admissible(SixJLabels(1, 1, 1, 1, 1, 1, 6))
    # negative label
    assert not admissible(SixJLabels(-1, 1, 0, 1, -1, 0, 6))


def _admissible_by_triads(six):
    """Nonnegative labels and triangle_ok on each of the four triads."""
    return all(x >= 0 for x in six) and all(triangle_ok(*(six[i] for i in t)) for t in TRIADS)


@settings(derandomize=True, max_examples=500)
@given(st.tuples(*[st.integers(-2, 8)] * 6))
def test_admissible_matches_triad_formulation(six):
    assert admissible(SixJLabels(*six, 6)) == _admissible_by_triads(six)


def test_admissible_matches_triad_formulation_exhaustively():
    # every set with labels in -2..3: negative, odd-sum and admissible sets alike
    sixes = list(product(range(-2, 4), repeat=6))
    agree = [admissible(SixJLabels(*six, 6)) == _admissible_by_triads(six) for six in sixes]
    assert all(agree)
    assert 0 < sum(map(_admissible_by_triads, sixes)) < len(sixes)


def test_overlap_array_all_twos():
    arr = shelepin(SixJLabels(2, 2, 2, 2, 2, 2, 6))
    assert arr.alpha == (3, 3, 3, 3)
    assert arr.beta == (4, 4, 4)
    for i in range(1, 4):
        for k in range(1, 5):
            assert arr.r(i, k) == 1


def test_overlap_array_stretched():
    arr = shelepin(SixJLabels(2, 2, 4, 2, 2, 4, 6))
    assert arr.rows[0] == (0, 0, 0, 0)
    assert arr.rows[1] == (2, 2, 2, 2)
    assert arr.rows[2] == (2, 2, 2, 2)


def test_overlap_array_parity_error():
    with pytest.raises(ParityError):
        shelepin(SixJLabels(1, 1, 1, 1, 1, 1, 6))


def test_labels_round_trip():
    for six in [(2, 2, 2, 2, 2, 2), (1, 3, 2, 3, 1, 4), (0, 2, 2, 4, 2, 2)]:
        lab = SixJLabels(*six, 7)
        arr = shelepin(lab)
        assert array_labels(arr.alpha, arr.beta, 7) == lab


def test_orbit_variant_count():
    # 144 rearrangements; the set collapses their repeats
    assert len(symmetry_orbit(SixJLabels(2, 4, 6, 6, 6, 6, 6))) == 144
    lab = SixJLabels(2, 2, 2, 2, 2, 2, 6)
    assert symmetry_orbit(lab) == frozenset({lab})
    assert len(symmetry_orbit(SixJLabels(1, 1, 2, 1, 1, 2, 6))) == 3


labels_strategy = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
).map(lambda six: SixJLabels(*six, 8)).filter(admissible)


@given(labels_strategy)
def test_orbit_closure(lab):
    orbit = symmetry_orbit(lab)
    assert lab in orbit
    rep = canonical_representative(lab)
    for member in orbit:
        assert admissible(member)
        assert canonical_representative(member) == rep
        assert symmetry_orbit(member) == orbit


@given(labels_strategy)
def test_orbit_preserves_overlap_multiset(lab):
    # every member shares the same multiset of overlap entries
    base = sorted(x for row in shelepin(lab).rows for x in row)
    for member in symmetry_orbit(lab):
        got = sorted(x for row in shelepin(member).rows for x in row)
        assert got == base


def test_canonical_representative_stable():
    lab = SixJLabels(1, 3, 2, 3, 1, 4, 9)
    rep = canonical_representative(lab)
    assert canonical_representative(rep) == rep
    assert rep in symmetry_orbit(lab)


@pytest.mark.parametrize("max_label", range(9))
def test_admissible_sixes_matches_product_filter(max_label):
    expected = [six for six in product(range(max_label + 1), repeat=6)
                if admissible(SixJLabels(*six, 4))]
    assert list(admissible_sixes(max_label)) == expected


def test_admissible_sixes_empty_below_zero():
    assert list(admissible_sixes(-1)) == []


def test_orbit_key_form():
    lab = SixJLabels(1, 3, 2, 3, 1, 4, 9)
    arr = shelepin(lab)
    assert orbit_key(lab) == (*sorted(arr.alpha), *sorted(arr.beta), 9)
    with pytest.raises(ParityError):
        orbit_key(SixJLabels(1, 1, 1, 1, 1, 1, 6))


def _orbit_key_reference(labels):
    """orbit_key as first written: the four triad sums tested one by one."""
    a, b, e, d, c, f, n = labels
    triads = (c + d + e, b + d + f, a + c + f, a + b + e)
    if any(t % 2 for t in triads):
        raise ParityError(f"odd triad sum in {labels.six}")
    alpha = sorted(t // 2 for t in triads)
    beta = sorted(((a + b + c + d) // 2, (a + d + e + f) // 2, (b + c + e + f) // 2))
    return (*alpha, *beta, n)


@given(st.lists(st.integers(min_value=-40, max_value=40), min_size=7, max_size=7))
def test_orbit_key_matches_reference_on_any_integers(fields):
    # negatives and odd triad sums included: the same key, or the same ParityError
    lab = SixJLabels(*fields)
    try:
        expected = _orbit_key_reference(lab)
    except ParityError as exc:
        with pytest.raises(ParityError) as got:
            orbit_key(lab)
        assert str(got.value) == str(exc)
    else:
        assert orbit_key(lab) == expected


@pytest.mark.parametrize("n", [6, 7])
def test_orbit_key_in_bijection_with_canonical_representative(n):
    rep_of_key, key_of_rep = {}, {}
    for six in admissible_sixes(6):
        lab = SixJLabels(*six, n)
        key, rep = orbit_key(lab), canonical_representative(lab)
        assert rep_of_key.setdefault(key, rep) == rep, six
        assert key_of_rep.setdefault(rep, key) == key, six
    assert len(rep_of_key) == 217


def test_reflect_labels_involution():
    lab = SixJLabels(1, 3, 2, 3, 1, 4, 7)
    for names in ("d", "f", "cdf"):
        assert reflect_labels(reflect_labels(lab, names), names) == lab


def test_reflect_labels_values():
    # x -> -x - n + 2 on the named positions only
    lab = SixJLabels(1, 3, 2, 3, 1, 4, 6)
    ref = reflect_labels(lab, "d")
    assert ref == SixJLabels(1, 3, 2, -7, 1, 4, 6)
    assert reflect_labels(lab, "cdf") == SixJLabels(1, 3, 2, -7, -5, -8, 6)
