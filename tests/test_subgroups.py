"""Windowed additive-polynomial images, pseudo-directness, approximation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import F2
from ultralift import cli
from ultralift.fftower import _echelon
from ultralift.series import TowerField, TruncatedSeries
from ultralift.subgroups import (AdditivePoly, frobenius_power, image_window,
                                 input_range, optimal_approx,
                                 pseudo_direct_check, subspace_from_series)
from ultralift.values import Value


def ser(terms, trunc=300):
    return TruncatedSeries(F2, 1, terms, Fraction(trunc))


def brute_window_span(space):
    return set(space.elements())


def vec_valuation(vec, lo, hi):
    for i, x in enumerate(vec):
        if x:
            return lo + i
    return hi


# -- images ---------------------------------------------------------------


def test_identity_image_is_full_space():
    f = AdditivePoly(2, (ser({0: 1}),))
    s = image_window(f, (0, 4))
    assert s.pivots() == [0, 1, 2, 3]


def test_squaring_image_matches_exhaustive_enumeration():
    f = AdditivePoly(2, (ser({}), ser({0: 1})))
    s = image_window(f, (0, 6))
    assert s.pivots() == [0, 2, 4]
    # oracle: square every F_2-polynomial input of degree < 6 and truncate
    got = set()
    for mask in range(2**6):
        a = ser({k: (mask >> k) & 1 for k in range(6)}, trunc=12)
        sq = (a * a).truncate(6)
        vec = [0] * 6
        for e, c in sq.terms:
            vec[int(e)] = 1
        got.add(tuple(vec))
    assert got == brute_window_span(s)


def test_artin_schreier_image_exhaustive():
    f = AdditivePoly(2, (ser({0: 1}), ser({0: 1})))
    s = image_window(f, (0, 4))
    got = set()
    for mask in range(2**4):
        a = ser({k: (mask >> k) & 1 for k in range(4)}, trunc=12)
        img = (a + a * a).truncate(4)
        vec = [0] * 4
        for e, c in img.terms:
            vec[int(e)] = 1
        got.add(tuple(vec))
    assert got == brute_window_span(s)


def test_frobenius_power_is_exact():
    a = ser({1: 1, 3: 1}, trunc=5)
    sq = frobenius_power(a, 2, 1)
    assert sq.terms == ((Fraction(2), F2.one), (Fraction(6), F2.one))
    assert sq.trunc == 10


# -- pseudo-directness ------------------------------------------------------


def test_single_summand_always_pseudo_direct():
    f = AdditivePoly(2, (ser({}), ser({0: 1})))
    s = image_window(f, (0, 6))
    assert pseudo_direct_check([s], (0, 6)).ok


def test_equal_line_spans_pseudo_direct():
    a1 = subspace_from_series([ser({0: 1})], 0, 4, 2)
    assert pseudo_direct_check([a1, a1], (0, 4)).ok


def brute_pseudo_direct(spaces, lo, hi):
    """(66) checked by exhaustive decomposition search over the window."""
    total_rows = [row for s in spaces for row in s.basis]
    total = subspace_from_series(
        [TruncatedSeries(F2, 1,
                         {Fraction(lo + i): int(x) for i, x in enumerate(row) if x},
                         Fraction(hi)) for row in total_rows], lo, hi, 2) \
        if total_rows else None
    if total is None:
        return True
    spans = [list(s.elements()) for s in spaces]
    for a_vec in total.elements():
        if not any(a_vec):
            continue
        va = vec_valuation(a_vec, lo, hi)
        found = False
        for combo in itertools.product(*spans):
            summed = [0] * (hi - lo)
            for part in combo:
                summed = [(x + y) % 2 for x, y in zip(summed, part)]
            vsum = vec_valuation(summed, lo, hi)
            parts_vals = [vec_valuation(p, lo, hi) for p in combo]
            gap = [(x - y) % 2 for x, y in zip(a_vec, summed)]
            if vec_valuation(gap, lo, hi) > va and vsum == min(parts_vals):
                found = True
                break
        if not found:
            return False
    return True


def test_cancellation_pair_detected_with_witness():
    b1 = subspace_from_series([ser({0: 1, 1: 1})], 0, 4, 2)
    b2 = subspace_from_series([ser({0: 1})], 0, 4, 2)
    rep = pseudo_direct_check([b1, b2], (0, 4))
    assert not rep.ok
    assert rep.witness_value == 1
    assert not brute_pseudo_direct([b1, b2], 0, 4)


def test_pseudo_direct_matches_brute_force_on_random_instances(rng):
    agreements = 0
    for _ in range(25):
        spaces = []
        for _ in range(rng.randrange(1, 3)):
            gens = []
            for _ in range(rng.randrange(1, 3)):
                terms = {k: rng.randrange(0, 2) for k in range(4)}
                if not any(terms.values()):
                    terms[rng.randrange(0, 4)] = 1
                gens.append(ser(terms, trunc=8))
            spaces.append(subspace_from_series(gens, 0, 4, 2))
        if sum(s.dim for s in spaces) > 6:
            continue
        got = pseudo_direct_check(spaces, (0, 4)).ok
        want = brute_pseudo_direct(spaces, 0, 4)
        assert got == want
        agreements += 1
    assert agreements >= 15


# -- optimal approximation ---------------------------------------------------


def brute_best_value(a_vec, spaces, lo, hi):
    total_rows = [row for s in spaces for row in s.basis]
    best = vec_valuation(a_vec, lo, hi)
    space = subspace_from_series(
        [TruncatedSeries(F2, 1,
                         {Fraction(lo + i): int(x) for i, x in enumerate(row) if x},
                         Fraction(hi)) for row in total_rows], lo, hi, 2) \
        if total_rows else None
    if space is None:
        return best
    for z in space.elements():
        gap = [(x - y) % 2 for x, y in zip(a_vec, z)]
        best = max(best, vec_valuation(gap, lo, hi))
    return best


def test_approx_element_inside_sum():
    a = subspace_from_series([ser({0: 1}), ser({2: 1})], 0, 4, 2)
    res = optimal_approx(ser({0: 1, 2: 1}, trunc=8), [a], (0, 4))
    assert res.at_window_top and res.achieved == Value(4)


def test_approx_t_against_even_span():
    a = subspace_from_series([ser({0: 1}), ser({2: 1})], 0, 4, 2)
    res = optimal_approx(ser({1: 1}, trunc=8), [a], (0, 4))
    assert res.best == (0, 0, 0, 0)
    assert res.achieved == Value(1)
    assert not res.at_window_top


def test_approx_matches_brute_force_random(rng):
    for _ in range(25):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            terms = {k: rng.randrange(0, 2) for k in range(6)}
            if not any(terms.values()):
                terms[rng.randrange(0, 6)] = 1
            gens.append(ser(terms, trunc=12))
        space = subspace_from_series(gens, 0, 6, 2)
        a_terms = {k: rng.randrange(0, 2) for k in range(6)}
        a = ser(a_terms, trunc=12)
        res = optimal_approx(a, [space], (0, 6))
        a_vec = tuple(a_terms.get(k, 0) for k in range(6))
        want = brute_best_value(a_vec, [space], 0, 6)
        got = 6 if res.at_window_top else int(res.achieved.amount)
        assert got == want


def test_approx_monotone_in_window(rng):
    # enlarging the window never decreases the achieved value
    for _ in range(15):
        gens = [ser({0: 1, 1: 1}, trunc=12), ser({2: 1}, trunc=12)]
        small = subspace_from_series(gens, 0, 4, 2)
        large = subspace_from_series(gens, 0, 6, 2)
        a_terms = {k: rng.randrange(0, 2) for k in range(4)}
        a = ser(a_terms, trunc=12)
        r_small = optimal_approx(a, [small], (0, 4))
        r_large = optimal_approx(a, [large], (0, 6))
        v_small = 4 if r_small.at_window_top else int(r_small.achieved.amount)
        v_large = 6 if r_large.at_window_top else int(r_large.achieved.amount)
        assert v_large >= v_small


def test_prop64_equivalence_on_tiny_window(rng):
    # windowed pseudo-directness agrees with the exhaustive immediacy test
    # for the sum map on every nonzero element of the windowed sum
    f1 = AdditivePoly(2, (ser({0: 1, 1: 1}),))           # a -> (1+t) a
    f2 = AdditivePoly(2, (ser({0: 1}),))                 # identity
    s1 = image_window(f1, (0, 3))
    s2 = image_window(f2, (0, 3))
    got = pseudo_direct_check([s1, s2], (0, 3)).ok
    want = brute_pseudo_direct([s1, s2], 0, 3)
    assert got == want


# -- sparse echelon against the dense one it replaced -------------------------


def dense_echelon(rows, p):
    """Reduced row echelon form over F_p of dense rows, ordered by pivot
    position: every pivot column is cleared from every other row."""
    work = [list(r) for r in rows if any(r)]
    out = []
    width = len(work[0]) if work else 0
    col = 0
    while work and col < width:
        sel = next((r for r in work if r[col] % p), None)
        if sel is None:
            col += 1
            continue
        work.remove(sel)
        inv = pow(sel[col], -1, p)
        sel = [(x * inv) % p for x in sel]
        work = [[(x - r[col] * y) % p for x, y in zip(r, sel)] if r[col] % p else r
                for r in work]
        work = [r for r in work if any(r)]
        out = [[(x - r[col] * y) % p for x, y in zip(r, sel)] if r[col] % p else r
               for r in out]
        out.append(sel)
        col += 1
    out.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
    return out


def sparse_echelon_dense(rows, p, width):
    out = []
    for row in _echelon([{i: x for i, x in enumerate(r) if x} for r in rows], p):
        vec = [0] * width
        for i, x in row.items():
            vec[i] = x
        out.append(vec)
    return out


def random_rows(rng, p, width, nrows):
    """Zero rows, duplicates, rows with one or two nonzeros (the shape of
    image_window's generators) and dense rows, mixed."""
    rows = []
    for _ in range(nrows):
        kind = rng.choice(("zero", "duplicate", "sparse", "sparse", "dense"))
        row = [0] * width
        if kind == "duplicate" and rows:
            row = list(rng.choice(rows))
        elif kind == "sparse":
            for i in rng.sample(range(width), min(width, rng.randrange(1, 3))):
                row[i] = rng.randrange(1, p)
        elif kind == "dense":
            row = [rng.randrange(p) for _ in range(width)]
        rows.append(row)
    return rows


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 300), st.integers(0, 40),
       st.integers(0, 2**32))
def test_sparse_echelon_matches_dense(p, width, nrows, seed):
    rows = random_rows(random.Random(seed), p, width, nrows)
    assert sparse_echelon_dense(rows, p, width) == dense_echelon(rows, p)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("shape", ("full-rank", "rank-0", "no-rows", "duplicates"))
def test_sparse_echelon_edge_ranks(p, shape):
    rng = random.Random(f"{p}:{shape}")
    width = 12
    if shape == "full-rank":
        # a unit lower-triangular matrix with its rows shuffled
        rows = [[rng.randrange(p) if j < i else int(j == i) for j in range(width)]
                for i in range(width)]
        rng.shuffle(rows)
    elif shape == "rank-0":
        rows = [[0] * width for _ in range(5)]
    elif shape == "no-rows":
        rows = []
    else:
        row = [rng.randrange(p) for _ in range(width)]
        row[3] = 1
        rows = [row, [(2 * x) % p for x in row], row]
    got = sparse_echelon_dense(rows, p, width)
    assert got == dense_echelon(rows, p)
    rank = {"full-rank": width, "rank-0": 0, "no-rows": 0, "duplicates": 1}[shape]
    assert len(got) == rank


@pytest.mark.parametrize("p", (2, 3))
def test_sparse_echelon_on_image_shaped_rows(p):
    # about the shape of the p90 subgroup request: ~110 rows over 289
    # columns, each with one or two nonzeros
    rng = random.Random(p)
    rows = []
    for _ in range(110):
        row = [0] * 289
        for i in rng.sample(range(289), rng.randrange(1, 3)):
            row[i] = rng.randrange(1, p)
        rows.append(row)
    assert sparse_echelon_dense(rows, p, 289) == dense_echelon(rows, p)


# -- the input range read off the Newton polygon ------------------------------


def reference_window(p, coeffs, window, start):
    """The reduced echelon basis on [lo, hi) of the image of
    sum_j coeffs[j] X^(p^j) (exact exponent dicts) over the generators t^g
    from ``start`` up to the first whose every term lies at or above hi."""
    lo, hi = window
    terms = [(e, c, p**j) for j, a in enumerate(coeffs) for e, c in a.items()]
    floor = min(e + start * q for e, _, q in terms)
    rows = []
    g = start
    while min(e + g * q for e, _, q in terms) < hi:
        row = {}
        for e, c, q in terms:
            if e + g * q < hi:
                k = e + g * q - floor
                row[k] = (row.get(k, 0) + c) % p
        rows.append({k: x for k, x in row.items() if x})
        g += 1
    kept = []
    for row in _echelon(rows, p):
        if min(row) >= lo - floor:
            vec = [0] * (hi - lo)
            for k, x in row.items():
                vec[k - (lo - floor)] = x
            kept.append(vec)
    return dense_echelon(kept, p)


@st.composite
def additive_cases(draw):
    p = draw(st.sampled_from((2, 3)))
    degree = draw(st.integers(0, 2))
    coeffs = [draw(st.dictionaries(st.integers(-3, 6), st.integers(1, p - 1),
                                   max_size=3))
              for _ in range(degree + 1)]
    lo = draw(st.integers(-6, 6))
    return p, coeffs, (lo, lo + draw(st.integers(1, 6)))


@settings(max_examples=150, deadline=None)
@given(additive_cases())
def test_image_window_matches_a_reference_starting_40_lower(case):
    p, coeffs, window = case
    assume(any(coeffs))
    fld = TowerField(p)
    f = AdditivePoly(p, tuple(
        TruncatedSeries(fld, 1, {Fraction(e): c for e, c in a.items()},
                        Fraction(1000)) for a in coeffs))
    g_lo, _ = input_range(p, f.coeffs, window)
    got = dense_echelon(list(image_window(f, window).basis), p)
    assert got == reference_window(p, coeffs, window, g_lo - 40)


def run_subgroup(capsys, *argv):
    code = cli.main(["subgroup", *argv])
    return code, capsys.readouterr().out.splitlines()


def test_subgroup_image_from_an_input_below_the_degree_slack(capsys):
    # P = (t^17 + t^19) X^2 maps t^(-6) to t^5 + t^7: pivot 5 is in the
    # image, so t^5 is approximated past the window top
    code, lines = run_subgroup(capsys, "--ground", "series:f2:1:40",
                               "--addpoly", "0;1*t^(17) + 1*t^(19) + O(t^(200))",
                               "--window", "4:7", "--approx", "1*t^(5) + O(t^(60))")
    assert code == 0
    assert "image 0 pivots: [5]" in lines
    assert "achieved value: >= 7" in lines


def test_subgroup_high_degree_needs_one_generator(capsys):
    # X^(3^8) on [0, 6): only t^0 has an image below 6
    code, lines = run_subgroup(capsys, "--ground", "series:f3:1:12",
                               "--addpoly", "0;0;0;0;0;0;0;0;1", "--window", "0:6")
    assert code == 0
    assert "image 0 pivots: [0]" in lines


def test_subgroup_refuses_a_vanishing_coefficient_whose_unknown_terms_reach_the_window(capsys):
    # O(t^3) allows a_0 = t^3, whose term t^(3 + g) changes the basis on
    # [0, 6); known past the window, the vanishing a_0 counts as zero
    code, _ = run_subgroup(capsys, "--ground", "series:f2:1:20",
                           "--addpoly", "O(t^(3));1", "--window", "0:6",
                           "--report", "structured")
    assert code == 70
    for addpoly in ("O(t^(30));1", "0;1"):
        code, lines = run_subgroup(capsys, "--ground", "series:f2:1:20",
                                   "--addpoly", addpoly, "--window", "0:6")
        assert code == 0
        assert "image 0 pivots: [0, 2, 4]" in lines
