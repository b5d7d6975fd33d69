"""Field arithmetic: exactness, axioms, parsing and rendering."""

import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thincert import FieldElement, FieldSpec, SparseMatrix, Vector, parse_scalar
from thincert.field import MODULUS_BOUND

QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF5 = FieldSpec.gf(5)
GF7 = FieldSpec.gf(7)


def gf_elements(spec):
    return st.integers(0, spec.modulus - 1).map(spec.element)


rational_elements = st.fractions(
    min_value=-(10 ** 6), max_value=10 ** 6, max_denominator=10 ** 4).map(QQ.element)


# --------------------------------------------------------------------------
# construction and validation

def test_gf_requires_prime_modulus():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            FieldSpec.gf(bad)
    for good in (2, 3, 5, 7, 11, 97):
        assert FieldSpec.gf(good).modulus == good


@pytest.mark.parametrize("modulus", [5.0, "5", True, Fraction(5)], ids=repr)
def test_gf_refuses_a_modulus_that_is_not_an_int(modulus):
    # 5.0 would otherwise equal GF(5) and compute in floats.
    with pytest.raises(ValueError, match="is not an int"):
        FieldSpec.gf(modulus)


def test_gf_inverse_equals_fermat():
    rng = random.Random(61)
    for p in (2, 5, 1_000_003, 2 ** 61 - 1):
        spec = FieldSpec.gf(p)
        for _ in range(200):
            a = rng.randrange(1, p)
            assert spec.inv(a) == pow(a, p - 2, p)
            assert spec.inv(a - p) == pow(a, p - 2, p)   # unreduced input
        with pytest.raises(ZeroDivisionError):
            spec.inv(p)


def test_gf_primality_is_fast_and_rejects_pseudoprimes():
    start = time.perf_counter()
    assert FieldSpec.gf(2 ** 61 - 1).modulus == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.5
    # a Carmichael number, and strong pseudoprimes to the first 5 and 9 prime bases
    for bad in (561, 3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec.gf(bad)


def test_gf_rejects_moduli_beyond_the_primality_bound():
    # MODULUS_BOUND passes all 13 Miller-Rabin bases but is composite;
    # 2^89 - 1 is a Mersenne prime, rejected all the same
    for big in (MODULUS_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=str(MODULUS_BOUND)):
            FieldSpec.gf(big)


def test_spec_equality_and_hash():
    assert FieldSpec.gf(5) == FieldSpec.gf(5)
    assert FieldSpec.gf(5) != FieldSpec.gf(7)
    assert FieldSpec.rationals() == FieldSpec.rationals()
    assert FieldSpec.rationals() != FieldSpec.gf(2)
    assert len({FieldSpec.gf(5), FieldSpec.gf(5), FieldSpec.rationals()}) == 2


def test_coerce_reduces_mod_p():
    assert GF5.coerce(7) == 2
    assert GF5.coerce(-1) == 4
    assert GF5.coerce(10) == 0


def test_coerce_rejects_bool_and_foreign_values():
    with pytest.raises(ValueError):
        QQ.coerce(True)
    with pytest.raises(ValueError):
        GF5.coerce(Fraction(1, 2))
    with pytest.raises(ValueError):
        QQ.coerce("3")
    with pytest.raises(ValueError):
        GF5.coerce(QQ.element(1))  # element of a different field


def test_constructor_stores_the_canonical_raw_value():
    for spec, value, raw in ((GF5, 7, 2), (GF5, -1, 4), (GF5, GF5.element(3), 3),
                             (QQ, 3, Fraction(3)), (QQ, Fraction(-6, 4), Fraction(-3, 2)),
                             (QQ, QQ.element(Fraction(1, 3)), Fraction(1, 3))):
        el = FieldElement(spec, value)
        assert el.spec == spec
        assert el.value == raw and type(el.value) is type(raw)


def test_constructor_rejects_what_the_field_cannot_hold():
    for spec, bad in ((GF5, Fraction(1, 2)), (GF5, 1.5), (QQ, 1.5), (GF5, True),
                      (GF5, GF7.element(1)), (GF5, QQ.element(1)), (QQ, GF5.element(1))):
        with pytest.raises(ValueError):
            FieldElement(spec, bad)
    # so no public matrix or vector can hold such an element
    with pytest.raises(ValueError):
        SparseMatrix(GF5, 1, 1, (((0, FieldElement(GF5, Fraction(1, 2))),),))
    with pytest.raises(ValueError):
        Vector(QQ, 1, ((0, FieldElement(QQ, 1.5)),))


def test_cross_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        GF2.element(1) + GF5.element(1)


def test_exactness_no_float_drift():
    # classic float failure case: 0.1 + 0.2 != 0.3
    a = QQ.element(Fraction(1, 10))
    b = QQ.element(Fraction(2, 10))
    assert a + b == QQ.element(Fraction(3, 10))
    third = QQ.element(Fraction(1, 3))
    assert third + third + third == QQ.element(1)


# --------------------------------------------------------------------------
# axioms, property-tested per field

@pytest.mark.parametrize("spec", [GF2, GF5, FieldSpec.gf(7)])
def test_gf_axioms(spec):
    @given(gf_elements(spec), gf_elements(spec), gf_elements(spec))
    def check(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == 0
        assert a * 1 == a
        if a != 0:
            assert a * a.inverse() == 1

    check()


@given(rational_elements, rational_elements, rational_elements)
def test_rational_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - b == -(b - a)
    if b != 0:
        assert (a / b) * b == a


@given(gf_elements(GF5), st.integers(-20, 20))
def test_int_mixing_matches_coercion(a, n):
    assert a + n == a + GF5.element(n)
    assert a * n == GF5.element(n) * a
    assert n - a == GF5.element(n) - a


def test_fraction_mixing_only_over_the_rationals():
    half = Fraction(1, 2)
    assert QQ.element(1) + half == QQ.element(Fraction(3, 2))
    assert QQ.element(2) * half == 1
    assert QQ.element(half) == half
    assert GF5.element(2) != half
    with pytest.raises(TypeError):
        GF5.element(2) + half


# --------------------------------------------------------------------------
# the eight binary operators, pinned against FieldSpec's raw operations

BINARY = [("__add__", operator.add, "add"), ("__radd__", operator.add, "add"),
          ("__sub__", operator.sub, "sub"), ("__rsub__", operator.sub, "sub"),
          ("__mul__", operator.mul, "mul"), ("__rmul__", operator.mul, "mul"),
          ("__truediv__", operator.truediv, "div"), ("__rtruediv__", operator.truediv, "div")]


INTS = [0, 1, 3, -2, 12, 2 ** 70 + 1]


def _operands(spec):
    """Same-field elements, ints and (over Q) Fractions, each with its raw value."""
    out = [(spec.element(n), spec.coerce(n)) for n in INTS]
    out += [(n, spec.coerce(n)) for n in INTS]
    if not spec.is_prime_field:
        out += [(f, f) for f in (Fraction(1, 2), Fraction(-7, 3))]
    return out


@pytest.mark.parametrize("dunder, op, raw_op", BINARY)
@pytest.mark.parametrize("spec", [GF5, FieldSpec.gf(2 ** 61 - 1), QQ])
def test_binary_operator_matches_the_raw_operation(spec, dunder, op, raw_op):
    reflected = dunder.startswith("__r")
    for a in map(spec.element, INTS):
        for b, b_raw in _operands(spec):
            x, y = (b_raw, a.value) if reflected else (a.value, b_raw)
            try:
                want = getattr(spec, raw_op)(x, y)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    getattr(a, dunder)(b)
                continue
            got = getattr(a, dunder)(b)
            assert got.spec == spec
            assert got.value == want and type(got.value) is type(want)
            if not isinstance(b, FieldElement):   # Python's dispatch reaches the same method
                assert (op(b, a) if reflected else op(a, b)) == got


@pytest.mark.parametrize("dunder, op, raw_op", BINARY)
def test_binary_operator_rejects_foreign_operands(dunder, op, raw_op):
    reflected = dunder.startswith("__r")
    for spec, bad in ((GF5, Fraction(1, 2)), (GF5, 1.5), (QQ, 1.5), (GF5, True), (QQ, False)):
        a = spec.element(3)
        assert getattr(a, dunder)(bad) is NotImplemented
        with pytest.raises(TypeError):
            op(bad, a) if reflected else op(a, bad)
    for a, other in ((GF5.element(3), GF7.element(2)), (QQ.element(3), GF5.element(2))):
        with pytest.raises(ValueError):
            getattr(a, dunder)(other)


def test_operators_look_up_the_raw_operation_on_every_call(monkeypatch):
    # A wrapper installed on FieldSpec later (a call counter) sees each use.
    calls = []
    raw_mul = FieldSpec.mul
    monkeypatch.setattr(FieldSpec, "mul", lambda spec, a, b: calls.append(a * b) or raw_mul(spec, a, b))
    assert GF5.element(2) * 3 == 1 and 3 * GF5.element(2) == 1
    assert GF5.element(1) / GF5.element(2) == 3     # div multiplies by the inverse
    assert calls == [6, 6, 3]


def test_equality_across_fields_is_false_not_an_error():
    assert GF5.element(1) != GF7.element(1)
    assert not GF5.element(1) == QQ.element(1)
    # A plain int is compared unreduced, as the hash contract needs.
    assert GF5.element(3) != 8 and GF5.element(3) == 3
    assert QQ.element(Fraction(1, 2)) == Fraction(1, 2)
    assert GF5.element(1) != 1.0 and QQ.element(1) != True   # noqa: E712


@given(st.integers(-30, 30), st.integers(1, 4))
def test_equal_objects_hash_alike(n, d):
    # Elements of GF(2), GF(5) and Q beside the ints and Fractions they may
    # equal: objects that compare equal must hash alike.
    frac = Fraction(n, d)
    objs = [n, n + 10, frac, GF2.element(n), GF5.element(n), QQ.element(n), QQ.element(frac)]
    for a in objs:
        for b in objs:
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_sets_mixing_elements_and_numbers():
    assert len({GF5.element(3), 8, 3}) == 2
    assert len({QQ.element(1), 1}) == 1
    assert len({QQ.element(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert GF5.element(3) != Fraction(3) and GF5.element(1) != True   # noqa: E712


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF5.element(3) / GF5.element(0)
    with pytest.raises(ZeroDivisionError):
        QQ.element(0).inverse()


# --------------------------------------------------------------------------
# parsing and rendering

def test_parse_scalar_examples():
    assert parse_scalar("-2/4", QQ) == QQ.element(Fraction(-1, 2))
    assert parse_scalar("7", GF5) == GF5.element(2)


def test_parse_scalar_rejects_garbage():
    for bad in ("", "1/", "/2", "1.5", "one", "1 2", "--3", "2/-3"):
        with pytest.raises(ValueError):
            parse_scalar(bad, QQ)


def test_parse_scalar_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0", QQ)


def test_parse_scalar_denominator_vanishing_mod_p():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/5", GF5)
    assert parse_scalar("1/2", GF5) == GF5.element(3)  # 2 * 3 = 6 = 1 mod 5


@given(rational_elements)
def test_rational_render_parse_round_trip(a):
    assert parse_scalar(str(a), QQ) == a


@given(gf_elements(GF5))
def test_gf_render_parse_round_trip(a):
    assert parse_scalar(str(a), GF5) == a


def test_render_is_canonical():
    assert str(QQ.element(Fraction(2, 4))) == "1/2"
    assert str(QQ.element(Fraction(-3, 1))) == "-3"
    assert str(GF5.element(7)) == "2"


def test_bool_means_nonzero():
    assert not GF5.element(0)
    assert GF5.element(3)
    assert not QQ.element(0)
