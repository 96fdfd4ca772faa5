"""Unit + property tests for the Galois-field substrate (repro.gf)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import (
    GF,
    ONE,
    X,
    ZERO,
    get_field,
    is_irreducible,
    is_primitive,
    monic_polys_lex,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mod,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
    poly_trim,
    smallest_irreducible,
    smallest_primitive,
)

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


@pytest.fixture(params=FIELD_ORDERS, ids=lambda q: f"GF{q}")
def field(request):
    return get_field(request.param)


class TestFieldConstruction:
    def test_invalid_order(self):
        for q in (0, 1, 6, 10, 12):
            with pytest.raises(ValueError):
                GF(q)

    def test_attributes(self):
        f = get_field(9)
        assert f.order == 9 and f.char == 3 and f.degree == 2
        assert f.modulus is not None and poly_deg(f.modulus) == 2

    def test_prime_field_has_no_modulus(self):
        assert get_field(7).modulus is None

    def test_gf4_standard_modulus(self):
        # x^2 + x + 1 is the unique irreducible quadratic over F_2.
        assert get_field(4).modulus == (1, 1, 1)

    def test_factory_memoizes(self):
        assert get_field(5) is get_field(5)

    def test_equality_and_hash(self):
        assert GF(5) == GF(5)
        assert GF(5) != GF(7)
        assert hash(GF(5)) == hash(GF(5))


class TestFieldAxioms:
    """Exhaustive axioms checks on every element pair (fields are small)."""

    def test_additive_group(self, field):
        q = field.order
        for x in range(q):
            assert field.add(x, 0) == x
            assert field.add(x, field.neg(x)) == 0
            for y in range(q):
                assert field.add(x, y) == field.add(y, x)

    def test_multiplicative_group(self, field):
        q = field.order
        for x in range(q):
            assert field.mul(x, 1) == x
            assert field.mul(x, 0) == 0
            if x != 0:
                assert field.mul(x, field.inv(x)) == 1

    def test_associativity_and_distributivity_sampled(self, field):
        q = field.order
        rng = np.random.default_rng(q)
        for _ in range(60):
            x, y, z = (int(v) for v in rng.integers(0, q, 3))
            assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
            assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
            assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))

    def test_no_zero_divisors(self, field):
        q = field.order
        for x in range(1, q):
            for y in range(1, q):
                assert field.mul(x, y) != 0

    def test_inverse_of_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    def test_div_and_pow(self, field):
        q = field.order
        for x in range(1, q):
            assert field.div(x, x) == 1
            # Lagrange: x^(q-1) == 1 for units, x^q == x for all.
            assert field.pow(x, q - 1) == 1
        for x in range(q):
            assert field.pow(x, q) == x

    def test_pow_negative_exponent(self, field):
        q = field.order
        for x in range(1, q):
            assert field.mul(field.pow(x, -1), x) == 1

    def test_frobenius_is_additive(self, field):
        # (x+y)^p == x^p + y^p in characteristic p.
        p, q = field.char, field.order
        for x in range(q):
            for y in range(q):
                lhs = field.pow(field.add(x, y), p)
                rhs = field.add(field.pow(x, p), field.pow(y, p))
                assert lhs == rhs


class TestVectorOps:
    def test_vadd_vmul_match_scalar(self, field):
        q = field.order
        xs, ys = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
        va = field.vadd(xs, ys)
        vm = field.vmul(xs, ys)
        for x in range(q):
            for y in range(q):
                assert va[x, y] == field.add(x, y)
                assert vm[x, y] == field.mul(x, y)

    def test_vneg(self, field):
        q = field.order
        vn = field.vneg(np.arange(q))
        for x in range(q):
            assert vn[x] == field.neg(x)

    def test_shapes_preserved(self, field):
        a = np.zeros((3, 4), dtype=np.int64)
        assert field.vadd(a, a).shape == (3, 4)
        assert field.vmul(a, a).shape == (3, 4)


#: every field order up to 32, prime and extension
ALL_ORDERS_TO_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


@pytest.mark.parametrize("q", ALL_ORDERS_TO_32, ids=lambda q: f"GF{q}")
def test_vinv_inverts_every_unit(q):
    f = get_field(q)
    units = np.arange(1, q)
    inv = f.vinv(units)
    assert (f.vmul(units, inv) == 1).all()
    assert inv.tolist() == [f.inv(x) for x in range(1, q)]
    with pytest.raises(ZeroDivisionError):
        f.vinv(np.array([1, 0]))
    with pytest.raises(ZeroDivisionError):
        f.vinv(0)


class TestEncodings:
    def test_roundtrip(self, field):
        for e in range(field.order):
            assert field.from_poly(field.to_poly(e)) == e

    def test_to_poly_of_zero(self, field):
        assert field.to_poly(0) == ()

    def test_from_poly_overflow(self):
        f = get_field(4)
        with pytest.raises(ValueError):
            f.from_poly((0, 0, 1))  # degree 2 >= field degree 2


class TestPolyArithmetic:
    def setup_method(self):
        self.f5 = get_field(5)

    def test_trim(self):
        assert poly_trim([0, 0, 0]) == ()
        assert poly_trim([1, 2, 0]) == (1, 2)

    def test_add_sub_roundtrip(self):
        f, g = (1, 2, 3), (4, 4)
        s = poly_add(self.f5, f, g)
        assert poly_sub(self.f5, s, g) == f

    def test_mul_known(self):
        # (x+1)(x+4) = x^2 + 5x + 4 = x^2 + 4 over F_5
        assert poly_mul(self.f5, (1, 1), (4, 1)) == (4, 0, 1)

    def test_divmod_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = poly_trim(rng.integers(0, 5, 6).tolist())
            g = poly_trim(rng.integers(0, 5, 3).tolist())
            if not g:
                continue
            qt, r = poly_divmod(self.f5, f, g)
            assert poly_deg(r) < poly_deg(g)
            back = poly_add(self.f5, poly_mul(self.f5, qt, g), r)
            assert back == f

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(self.f5, (1, 1), ZERO)

    def test_gcd_monic_and_divides(self):
        f = poly_mul(self.f5, (1, 1), (2, 1))
        g = poly_mul(self.f5, (1, 1), (3, 1))
        d = poly_gcd(self.f5, f, g)
        assert d == poly_monic(self.f5, (1, 1))

    def test_powmod_matches_naive(self):
        m = (2, 0, 1)  # x^2 + 2
        acc = ONE
        for e in range(8):
            assert poly_powmod(self.f5, X, e, m) == acc
            acc = poly_mod(self.f5, poly_mul(self.f5, acc, X), m)

    def test_powmod_negative_exponent(self):
        with pytest.raises(ValueError):
            poly_powmod(self.f5, X, -1, (1, 0, 1))

    def test_eval_horner(self):
        # f(x) = 3 + 2x + x^2 at x=4 over F_5: 3 + 8 + 16 = 27 = 2
        assert poly_eval(self.f5, (3, 2, 1), 4) == 2

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    @settings(max_examples=25)
    def test_eval_of_product(self, x, y):
        f, g = (1, 2, 1), (3, 1)
        lhs = poly_eval(self.f5, poly_mul(self.f5, f, g), x)
        rhs = self.f5.mul(poly_eval(self.f5, f, x), poly_eval(self.f5, g, x))
        assert lhs == rhs


class TestIrreducibility:
    def test_known_irreducibles(self):
        f2, f3 = get_field(2), get_field(3)
        assert is_irreducible(f2, (1, 1, 1))  # x^2+x+1
        assert not is_irreducible(f2, (1, 0, 1))  # x^2+1 = (x+1)^2
        assert is_irreducible(f3, (1, 2, 0, 1))  # x^3+2x+1
        assert not is_irreducible(f3, (2, 0, 0, 1))  # x^3+2 has root 1

    def test_degree_one_always_irreducible(self):
        assert is_irreducible(get_field(7), (3, 1))

    def test_constants_not_irreducible(self):
        assert not is_irreducible(get_field(7), (3,))
        assert not is_irreducible(get_field(7), ZERO)

    def test_cubic_irreducible_iff_rootless(self):
        # For degree <= 3, irreducible over F_q iff no roots in F_q.
        f7 = get_field(7)
        for fpoly in monic_polys_lex(f7, 3):
            has_root = any(poly_eval(f7, fpoly, x) == 0 for x in range(7))
            assert is_irreducible(f7, fpoly) == (not has_root)

    def test_counting_monic_irreducible_quadratics(self):
        # Over F_q there are exactly (q^2 - q)/2 monic irreducible quadratics.
        for q in (2, 3, 4, 5, 7, 9):
            f = get_field(q)
            count = sum(1 for g in monic_polys_lex(f, 2) if is_irreducible(f, g))
            assert count == (q * q - q) // 2


class TestPrimitivity:
    def test_primitive_implies_irreducible(self):
        f3 = get_field(3)
        for g in monic_polys_lex(f3, 3):
            if is_primitive(f3, g):
                assert is_irreducible(f3, g)

    def test_known_primitive_over_f3(self):
        # x^3 + 2x + 1 is the classic primitive cubic over F_3.
        assert is_primitive(get_field(3), (1, 2, 0, 1))

    def test_irreducible_but_not_primitive(self):
        # x^2 + 1 over F_3: root i has order 4 != 8, so irreducible non-primitive.
        f3 = get_field(3)
        assert is_irreducible(f3, (1, 0, 1))
        assert not is_primitive(f3, (1, 0, 1))

    def test_counting_primitive_cubics(self):
        # # primitive degree-n polys over F_q = phi(q^n - 1) / n.
        from repro.utils import euler_totient

        for q in (2, 3, 4):
            f = get_field(q)
            count = sum(1 for g in monic_polys_lex(f, 3) if is_primitive(f, g))
            assert count == euler_totient(q**3 - 1) // 3


class TestSmallestPolys:
    def test_smallest_irreducible_is_minimal(self):
        f2 = get_field(2)
        assert smallest_irreducible(f2, 2) == (1, 1, 1)

    def test_smallest_primitive_f3_cubic(self):
        # Scanning lex order over F_3 cubics the first primitive is x^3+2x+1.
        assert smallest_primitive(get_field(3), 3) == (1, 2, 0, 1)

    def test_smallest_primitive_is_primitive(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            f = get_field(q)
            g = smallest_primitive(f, 3)
            assert poly_deg(g) == 3 and g[-1] == 1
            assert is_primitive(f, g)

    def test_lex_order_of_generator(self):
        f3 = get_field(3)
        polys = list(monic_polys_lex(f3, 2))
        assert len(polys) == 9
        assert polys[0] == (0, 0, 1)  # x^2
        assert polys[1] == (1, 0, 1)  # x^2 + 1
        assert polys[3] == (0, 1, 1)  # x^2 + x
        assert polys[-1] == (2, 2, 1)  # x^2 + 2x + 2
