import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcover import (
    ExponentMismatch,
    FiniteSubgroupSpec,
    InvalidOrder,
    InvalidSubgroup,
    PolarizationMatrix,
    SublatticeInclusion,
    chi,
    isogeny_degree_factor,
    mixed_intersection,
    norm_endomorphism,
    pullback,
    self_intersection,
)


def _random_posdef(rng: random.Random, d: int) -> PolarizationMatrix:
    a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
    rows = [
        [sum(a[k][i] * a[k][j] for k in range(d)) + (i == j) for j in range(d)]
        for i in range(d)
    ]
    return PolarizationMatrix(tuple(tuple(r) for r in rows))


def _random_unimodular(rng: random.Random, d: int, steps: int = 15):
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        for c in range(d):
            m[i][c] += k * m[j][c]
    return m


def _random_saturated(rng: random.Random, d: int, r: int) -> SublatticeInclusion:
    u = _random_unimodular(rng, d)
    cols = [[u[i][j] for j in range(r)] for i in range(d)]
    return SublatticeInclusion(tuple(tuple(row) for row in cols))


class TestPolarizationMatrix:
    def test_constructors(self):
        assert PolarizationMatrix.identity(3).rows == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        )
        assert PolarizationMatrix.scaled_identity(2, 4).rows == ((4, 0), (0, 4))
        assert PolarizationMatrix.identity_plus_ones(2).rows == ((2, 1), (1, 2))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidOrder):
            PolarizationMatrix(((1, 0),))

    def test_rejects_non_symmetric(self):
        with pytest.raises(InvalidOrder):
            PolarizationMatrix(((1, 2), (3, 1)))

    def test_rejects_non_integer(self):
        with pytest.raises(InvalidOrder):
            PolarizationMatrix(((1.5, 0), (0, 1)))
        with pytest.raises(InvalidOrder):
            PolarizationMatrix(((True, False), (False, True)))

    def test_value_semantics(self):
        s = PolarizationMatrix([[2, 1], [1, 2]])
        assert s == PolarizationMatrix.identity_plus_ones(2)
        assert hash(s) == hash(PolarizationMatrix.identity_plus_ones(2))
        assert s != PolarizationMatrix.identity(2)
        assert s != SublatticeInclusion(((1,), (1,)))
        assert repr(s) == "PolarizationMatrix(rows=((2, 1), (1, 2)))"
        with pytest.raises(AttributeError):
            s.rows = ((1,),)
        with pytest.raises(AttributeError):
            s.extra = 1
        with pytest.raises(AttributeError):
            del s.rows


class TestChiAndSelfIntersection:
    def test_chi_identity_plus_ones(self):
        for d in range(1, 5):
            assert chi(PolarizationMatrix.identity_plus_ones(d)) == d + 1

    def test_chi_scaled_identity(self):
        for d in range(1, 4):
            for c in (2, 4, 6, 8):
                assert chi(PolarizationMatrix.scaled_identity(d, c)) == c ** d

    def test_self_intersection_is_factorial_times_chi(self):
        rng = random.Random(3)
        for _ in range(25):
            d = rng.randint(1, 4)
            s = _random_posdef(rng, d)
            assert self_intersection(s) == math.factorial(d) * chi(s)

    def test_chi_matches_sympy_det(self):
        rng = random.Random(5)
        for _ in range(25):
            d = rng.randint(1, 5)
            s = _random_posdef(rng, d)
            assert chi(s) == int(sympy.Matrix(s.rows).det())


def _mixed_oracle(terms):
    """Coefficient extraction from a fully symbolic determinant expansion."""
    d = terms[0][0].d
    xs = sympy.symbols(f"x0:{len(terms)}")
    acc = sympy.zeros(d, d)
    for x, (s, _) in zip(xs, terms):
        acc += x * sympy.Matrix(s.rows)
    poly = sympy.Poly(acc.det(), *xs)
    coeff = poly.coeff_monomial(
        sympy.prod(x ** a for x, (_, a) in zip(xs, terms))
    )
    scale = 1
    for _, a in terms:
        scale *= math.factorial(a)
    return scale * int(coeff)


class TestMixedIntersection:
    def test_two_term_example(self):
        i2 = PolarizationMatrix.identity(2)
        j2 = PolarizationMatrix(((1, 1), (1, 1)))
        assert mixed_intersection([(i2, 1), (j2, 1)]) == 2

    def test_single_term_reduces_to_self(self):
        rng = random.Random(11)
        for _ in range(10):
            d = rng.randint(1, 4)
            s = _random_posdef(rng, d)
            assert mixed_intersection([(s, d)]) == self_intersection(s)

    def test_matches_symbolic_oracle_two_terms(self):
        rng = random.Random(13)
        for _ in range(15):
            d = rng.randint(2, 4)
            a = rng.randint(1, d - 1)
            s1 = _random_posdef(rng, d)
            s2 = _random_posdef(rng, d)
            terms = [(s1, a), (s2, d - a)]
            assert mixed_intersection(terms) == _mixed_oracle(terms)

    def test_matches_symbolic_oracle_three_terms(self):
        rng = random.Random(17)
        for _ in range(8):
            d = 3
            s1, s2, s3 = (_random_posdef(rng, d) for _ in range(3))
            terms = [(s1, 1), (s2, 1), (s3, 1)]
            assert mixed_intersection(terms) == _mixed_oracle(terms)

    def test_exponent_sum_must_match_dimension(self):
        i2 = PolarizationMatrix.identity(2)
        with pytest.raises(ExponentMismatch):
            mixed_intersection([(i2, 1)])
        with pytest.raises(ExponentMismatch):
            mixed_intersection([(i2, 2), (i2, 1)])

    def test_size_mismatch_rejected(self):
        i2 = PolarizationMatrix.identity(2)
        i3 = PolarizationMatrix.identity(3)
        with pytest.raises(ExponentMismatch):
            mixed_intersection([(i2, 1), (i3, 1)])

    def test_exponent_must_be_an_integer(self):
        i2 = PolarizationMatrix.identity(2)
        for a in (1.5, True):
            with pytest.raises(ExponentMismatch, match="is not an integer"):
                mixed_intersection([(i2, a), (i2, 2 - a)])
        assert mixed_intersection([(i2, 2), (i2, 0)]) == self_intersection(i2)

    def test_symmetry_in_arguments(self):
        rng = random.Random(19)
        s1 = _random_posdef(rng, 3)
        s2 = _random_posdef(rng, 3)
        assert mixed_intersection([(s1, 2), (s2, 1)]) == mixed_intersection(
            [(s2, 1), (s1, 2)]
        )

    def test_matches_symbolic_oracle_k_terms(self):
        rng = random.Random(23)
        for _ in range(30):
            d = rng.randint(1, 4)
            k = rng.randint(1, 4)
            exponents = [0] * k
            for _ in range(d):
                exponents[rng.randrange(k)] += 1
            terms = [(_random_posdef(rng, d), a) for a in exponents]
            assert mixed_intersection(terms) == _mixed_oracle(terms)

    def test_nine_distinct_copies_give_factorial_times_det(self):
        s = _random_posdef(random.Random(29), 9)
        assert mixed_intersection([(s, 1)] * 9) == math.factorial(9) * chi(s)


class TestSublatticeInclusion:
    def test_accepts_saturated_columns(self):
        z = SublatticeInclusion(((1,), (1,)))
        assert z.d == 2 and len(z.columns[0]) == 1

    def test_rejects_rank_deficient(self):
        with pytest.raises(InvalidSubgroup):
            SublatticeInclusion(((1, 2), (1, 2)))
        # more columns than the ambient dimension: no r x r minor at all
        with pytest.raises(InvalidSubgroup, match="full column rank"):
            SublatticeInclusion.unchecked(((1, 0),))

    def test_rejects_non_saturated(self):
        with pytest.raises(InvalidSubgroup):
            SublatticeInclusion(((2,), (0,)))
        with pytest.raises(InvalidSubgroup):
            SublatticeInclusion(((2, 0), (0, 1), (0, 0)))

    def test_unchecked_bypasses_saturation(self):
        z = SublatticeInclusion.unchecked(((2,), (0,)))
        assert z.d == 2 and len(z.columns[0]) == 1
        assert z == SublatticeInclusion.unchecked([[2], [0]])
        assert repr(z) == "SublatticeInclusion(columns=((2,), (0,)))"
        assert vars(z) == {"columns": ((2,), (0,))}  # no flag left on the instance

    def test_saturation_agrees_with_column_gcd_for_rank_one(self):
        # rank-1 saturation is exactly gcd(entries) == 1
        rng = random.Random(23)
        for _ in range(40):
            col = [rng.randint(-6, 6) for _ in range(3)]
            if all(c == 0 for c in col):
                continue
            g = math.gcd(*[abs(c) for c in col])
            cols = tuple((c,) for c in col)
            if g == 1:
                SublatticeInclusion(cols)
            else:
                with pytest.raises(InvalidSubgroup):
                    SublatticeInclusion(cols)


class TestNormEndomorphism:
    def test_diagonal_example(self):
        l = PolarizationMatrix.identity(2)
        z = SublatticeInclusion(((1,), (1,)))
        n, e = norm_endomorphism(l, z)
        assert e == 2
        assert n == ((1, 1), (1, 1))

    def test_unchecked_scaled_example(self):
        l = PolarizationMatrix.identity(2)
        z = SublatticeInclusion.unchecked(((2,), (0,)))
        n, e = norm_endomorphism(l, z)
        assert e == 4
        assert n == ((4, 0), (0, 0))

    def test_projector_identity(self):
        rng = random.Random(29)
        for _ in range(50):
            d = rng.randint(2, 4)
            r = rng.randint(1, d - 1)
            l = _random_posdef(rng, d)
            z = _random_saturated(rng, d, r)
            n, e = norm_endomorphism(l, z)
            # matrix product written out to stay in exact ints
            n2 = tuple(
                tuple(sum(n[i][k] * n[k][j] for k in range(d)) for j in range(d))
                for i in range(d)
            )
            en = tuple(tuple(e * n[i][j] for j in range(d)) for i in range(d))
            assert n2 == en

    def test_full_rank_subvariety_gives_multiple_of_identity(self):
        l = PolarizationMatrix.identity(3)
        z = _random_saturated(random.Random(31), 3, 3)
        n, e = norm_endomorphism(l, z)
        assert n == tuple(
            tuple(e if i == j else 0 for j in range(3)) for i in range(3)
        )

    def test_singular_restriction_rejected(self):
        l = PolarizationMatrix(((1, 0), (0, 0)))
        z = SublatticeInclusion(((0,), (1,)))
        with pytest.raises(InvalidOrder):
            norm_endomorphism(l, z)

    def test_dimension_mismatch_rejected(self):
        l = PolarizationMatrix.identity(3)
        z = SublatticeInclusion(((1,), (1,)))
        with pytest.raises(InvalidOrder):
            norm_endomorphism(l, z)


class TestPullback:
    def test_pullback_by_identity(self):
        s = PolarizationMatrix.identity_plus_ones(2)
        alpha = ((1, 0), (0, 1))
        assert pullback(alpha, s).rows == s.rows

    def test_pullback_scales_chi_by_det_squared(self):
        s = PolarizationMatrix.identity(2)
        alpha = ((2, 1), (1, 1))  # det 1
        assert chi(pullback(alpha, s)) == chi(s)
        alpha2 = ((2, 0), (0, 1))  # det 2
        assert chi(pullback(alpha2, s)) == 4 * chi(s)

    def test_ragged_or_column_less_endomorphism_rejected(self):
        for alpha in (((1, 2), (3,)), ((), ())):
            with pytest.raises(InvalidOrder, match="rectangular"):
                pullback(alpha, PolarizationMatrix.identity(2))

    def test_degenerate_pullback_of_norm(self):
        # the norm of a proper subvariety pulls the polarization back to a
        # positive semidefinite class with zero top self-intersection
        rng = random.Random(41)
        for _ in range(20):
            d = rng.randint(2, 4)
            r = rng.randint(1, d - 1)
            l = _random_posdef(rng, d)
            z = _random_saturated(rng, d, r)
            n, _ = norm_endomorphism(l, z)
            m = pullback(n, l)
            assert self_intersection(m) == 0
            assert mixed_intersection([(m, 1), (l, d - 1)]) > 0


class TestIsogenyDegreeFactor:
    def test_counts_translation_part(self):
        q2 = FiniteSubgroupSpec.parse(("1/2,0",))
        q3 = FiniteSubgroupSpec.parse(("1/3,0",))
        assert isogeny_degree_factor(q2, 2) == 4
        assert isogeny_degree_factor(q3, 3) == 27
        assert isogeny_degree_factor(FiniteSubgroupSpec.trivial(), 3) == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 20))
def test_norm_projector_property(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    r = rng.randint(1, d - 1)
    l = _random_posdef(rng, d)
    z = _random_saturated(rng, d, r)
    n, e = norm_endomorphism(l, z)
    assert e >= 1
    n2 = tuple(
        tuple(sum(n[i][k] * n[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )
    assert n2 == tuple(tuple(e * v for v in row) for row in n)
