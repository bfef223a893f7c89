"""The generic correction driver: convergence, certificates, stalls."""

import pytest

from conftest import padic
from ultralift.errors import PrecisionLossError, StallError
from ultralift.lifting import newton_drive
from ultralift.padics import TruncatedPAdic
from ultralift.values import Value


def test_square_root_of_seven_matches_enumeration():
    # oracle: exhaustive squaring over residues mod 3^12
    N = 3**12
    roots = sorted(a for a in range(N) if (a * a - 7) % N == 0)
    assert roots == [148891, 382550]
    start = padic(3, 1, 12)
    target = padic(3, 7, 12)
    two = padic(3, 2, 12)
    got, cert = newton_drive(lambda y: y * y, lambda _y, r: r / two,
                             start, target, Value(12))
    assert got.residue == 148891  # the branch through 1 mod 3; 4 mod 9
    assert got.residue % 9 == 4
    assert cert.monotone()
    assert cert.outcome == "converged-at-precision"


def test_exact_zero_outcome():
    start = padic(3, 5, 10)
    _, cert = newton_drive(lambda y: y * y, lambda _y, r: r, start,
                           start * start, Value(10))
    assert cert.outcome == "converged-at-precision"
    assert cert.steps == ()


def test_identity_map_single_step():
    start = padic(3, 0, 10)
    target = padic(3, 42, 10)
    got, cert = newton_drive(lambda y: y, lambda _y, r: r, start, target, Value(10))
    assert got == target
    assert len(cert.steps) == 1


def test_residual_saturated_short_of_precision_raises():
    # the target states only 8 digits: a residual that vanishes modulo 3^8
    # certifies nothing at 12
    start = padic(3, 0, 12)
    target = padic(3, 42, 8)
    with pytest.raises(PrecisionLossError):
        newton_drive(lambda y: y, lambda _y, r: r, start, target, Value(12))


def test_stall_raises_with_certificate():
    start = padic(3, 1, 10)
    target = padic(3, 7, 10)
    with pytest.raises(StallError) as exc:
        newton_drive(lambda y: y * y, lambda _y, r: r.zero_like() + 3,
                     start, target, Value(10))
    cert = exc.value.certificate
    assert cert is not None and cert.outcome == "stalled"
    assert len(cert.steps) >= 1


def test_residual_monotonicity_recorded():
    start = padic(3, 1, 12)
    target = padic(3, 7, 12)
    two = padic(3, 2, 12)
    _, cert = newton_drive(lambda y: y * y, lambda _y, r: r / two,
                           start, target, Value(12))
    values = [s.residual_before for s in cert.steps] + [cert.final_residual]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_zero_correction_stalls_at_step_0():
    # residual values must strictly increase: a step that gains nothing
    # stalls at once instead of being accepted
    start = padic(3, 1, 10)
    target = padic(3, 7, 10)
    with pytest.raises(StallError, match="at step 0") as exc:
        newton_drive(lambda y: y * y, lambda _y, r: r.zero_like(),
                     start, target, Value(10))
    steps = exc.value.certificate.steps
    assert [(s.residual_before, s.residual_after) for s in steps] == [
        (Value(1), Value(1))]
