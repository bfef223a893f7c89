"""Tower levels, compatible embeddings, and the additive polynomial solver."""

import itertools
import random

import pytest

from ultralift import fftower
from ultralift.errors import ResourceCapError, UsageError
from ultralift.fftower import (FFTower, _divisors, _solve_mod_p, additive_poly_solve,
                               conway_modulus, tower)


def test_moduli_are_reproducible():
    # frozen table; regenerating must give bit-identical polynomials
    assert conway_modulus(2, 1) == (1, 1)
    assert conway_modulus(2, 2) == (1, 1, 1)
    assert conway_modulus(2, 3) == (1, 1, 0, 1)
    assert conway_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert conway_modulus(3, 1) == (1, 1)
    assert conway_modulus(3, 2) == (2, 1, 1)


def test_embeddings_are_ring_maps(rng):
    t2 = tower(2)
    for _ in range(25):
        a = t2.random(rng, 2)
        b = t2.random(rng, 2)
        assert t2.embed(a + b, 8) == t2.embed(a, 8) + t2.embed(b, 8)
        assert t2.embed(a * b, 8) == t2.embed(a, 8) * t2.embed(b, 8)


def test_embeddings_commute(rng):
    t2 = tower(2)
    for _ in range(20):
        a = t2.random(rng, 2)
        assert t2.embed(t2.embed(a, 4), 12) == t2.embed(a, 12)


def test_frobenius_is_automorphism(rng):
    t3 = tower(3)
    for _ in range(20):
        a = t3.random(rng, 3)
        b = t3.random(rng, 3)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_frobenius_order_is_level():
    t2 = tower(2)
    x = t2.generator(4)
    y = x
    for _ in range(4):
        y = y.frobenius()
    assert y == x
    z = x.frobenius().frobenius()
    assert z != x  # order does not divide 2


def test_artin_schreier_zero_target():
    t2 = tower(2)
    one = t2.one()
    assert additive_poly_solve([one, one], t2.zero()).is_zero()


def test_artin_schreier_needs_extension():
    # x^2 + x = 1 has no root in F_2; the first level with one is F_4,
    # where the roots are the elements of multiplicative order 3
    t2 = tower(2)
    one = t2.one()
    assert all((x * x + x) != one for x in (t2.zero(), one))  # F_2 exhausted
    r = additive_poly_solve([one, one], one)
    assert r * r + r == one
    assert r.level == 2
    assert r.multiplicative_order() == 3  # divides 15, so it also lives in F_16
    r16 = t2.embed(r, 4)
    assert r16 * r16 + r16 == t2.one(4)


def test_frobenius_inverse_unique_root(rng):
    t3 = tower(3)
    for _ in range(10):
        c = t3.random(rng, 2)
        root = additive_poly_solve([t3.zero(), t3.one()], c)
        assert root**3 == c
        assert root.level == 2  # Frobenius is bijective at the same level


def test_random_additive_solves_verify(rng):
    t2 = tower(2)
    for _ in range(15):
        coeffs = [t2.random(rng, 2) for _ in range(3)]
        if all(c.is_zero() for c in coeffs):
            coeffs[0] = t2.one()
        target = t2.random(rng, 2)
        x = additive_poly_solve(coeffs, target, degree_cap=32)
        acc = t2.zero(x.level)
        for j, cj in enumerate(coeffs):
            acc = acc + cj * (x ** (2**j))
        assert acc == target


def test_degree_cap_enforced():
    t2 = tower(2)
    one = t2.one()
    with pytest.raises(ResourceCapError):
        additive_poly_solve([one, one], one, degree_cap=1)


def test_all_zero_coefficients_rejected():
    t2 = tower(2)
    with pytest.raises(UsageError):
        additive_poly_solve([t2.zero()], t2.one())


def test_inverse_and_division(rng):
    t5 = tower(5)
    for _ in range(20):
        a = t5.random(rng, 2)
        if a.is_zero():
            continue
        assert a * a.inverse() == t5.one()
        b = t5.random(rng, 2)
        assert (b / a) * a == b


# -- log tables against the polynomial kernel -------------------------------


def kernel_results(tw, d, m):
    """Every product, inverse, power, Frobenius image, embedding and
    minimal form over F_{p^d}, as coefficient tuples; None where the
    operation divides by zero."""
    p = tw.p
    elems = [tw.elem(d, digits) for digits in itertools.product(range(p), repeat=d)]
    q = len(elems)
    out = {}
    for i, a in enumerate(elems):
        out["frobenius", i] = a.frobenius().coeffs
        big = tw.embed(a, m)
        out["embed", i] = big.coeffs
        out["minimal", i] = (a._minimal_form(), big._minimal_form())
        for e in (q - 1, q, 3 * q + 2, -(q - 1), -q):
            out["pow", i, e] = None if a.is_zero() and e < 0 else (a**e).coeffs
        for j, b in enumerate(elems):
            out["mul", i, j] = (a * b).coeffs
            e = j - q // 2  # negative, zero and positive exponents
            out["pow", i, e] = None if a.is_zero() and e < 0 else (a**e).coeffs
        if a.is_zero():
            for op in (a.inverse, lambda: a ** -1):
                with pytest.raises(ZeroDivisionError):
                    op()
        else:
            out["inverse", i] = a.inverse().coeffs
    return out


@pytest.mark.parametrize("p, d, m", [(2, 4, 8), (3, 3, 6), (2, 6, 12)])
def test_log_tables_match_polynomial_kernel(monkeypatch, p, d, m):
    tables = FFTower(p)
    got = kernel_results(tables, d, m)
    assert all(tables._log_tables(k) is not None for k in _divisors(m))
    # a tower built under a bound of 1 keeps the polynomial kernel at every
    # level it touches
    monkeypatch.setattr(fftower, "_TABLE_ELEMENTS", 1)
    poly = FFTower(p)
    want = kernel_results(poly, d, m)
    assert all(poly._log_tables(k) is None for k in _divisors(m))
    assert poly.modulus(m) == tables.modulus(m)
    assert got == want


@pytest.mark.parametrize("p, d, m", [(2, 4, 8), (3, 3, 6), (2, 6, 12)])
def test_equal_elements_at_different_levels_hash_equal(p, d, m):
    tw = tower(p)
    for digits in itertools.product(range(p), repeat=d):
        a = tw.elem(d, digits)
        big = tw.embed(a, m)
        assert big == a and hash(big) == hash(a)


def dense_solve_mod_p(columns, rhs, p):
    """Gauss-Jordan on the dense augmented matrix; free variables zero."""
    ncols, nrows = len(columns), len(rhs)
    aug = [[columns[j][i] % p for j in range(ncols)] + [rhs[i] % p] for i in range(nrows)]
    pivots, row = [], 0
    for col in range(ncols):
        sel = next((r for r in range(row, nrows) if aug[r][col]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = pow(aug[row][col], -1, p)
        aug[row] = [(x * inv) % p for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    if any(aug[r][ncols] for r in range(row, nrows)):
        return None
    sol = [0] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol


@pytest.mark.parametrize("p", (2, 3, 5))
def test_solve_mod_p_matches_dense_gauss_jordan(p):
    rng = random.Random(p)
    solved = unsolvable = 0
    for _ in range(200):
        n, k = rng.randrange(1, 7), rng.randrange(1, 7)
        cols = [[rng.randrange(p) * (rng.random() < 0.6) for _ in range(k)]
                for _ in range(n)]
        rhs = [rng.randrange(p) for _ in range(k)]
        got = _solve_mod_p(cols, rhs, p)
        assert got == dense_solve_mod_p(cols, rhs, p)
        if got is None:
            unsolvable += 1
        else:
            solved += 1
            assert all(sum(v * c[i] for v, c in zip(got, cols)) % p == rhs[i]
                       for i in range(k))
    assert solved and unsolvable
