import random
from fractions import Fraction

import pytest
from hypothesis import settings

from ultralift.padics import TruncatedPAdic
from ultralift.series import RationalField, TowerField, TruncatedSeries

# property tests draw the same examples on every run; failures found
# elsewhere are not replayed from a local example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

QQ = RationalField()
F2 = TowerField(2)
F3 = TowerField(3)


@pytest.fixture
def rng():
    return random.Random(20240)


def q_series(terms, trunc=12, denom=1):
    return TruncatedSeries(QQ, denom, terms, Fraction(trunc))


def f2_series(terms, trunc=12, denom=1):
    return TruncatedSeries(F2, denom, terms, Fraction(trunc))


def padic(p, x, n):
    return TruncatedPAdic.from_rational(p, Fraction(x), n)
