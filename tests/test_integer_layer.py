"""The exact integer routines of `elliptic` and `isogeny`, checked against sympy as an oracle.

sympy is a test dependency only.  The package computes the 2x2 Hermite form
of `elliptic`, and the two invariants of `isogeny` from closed forms: the gcd
of an inclusion's maximal minors (`polarization._maximal_minor_gcd`, which
the Hermite form's covolume uses too) and the lcm of the denominators of the
restricted form's inverse, adj / det from integer cofactors.  The tests
compare them, the norm endomorphism and the adjugate with sympy's, and the
last test proves that every command and the norm endomorphism run with
sympy and `fractions` made unimportable.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from ellcover import (
    FiniteSubgroupSpec,
    InvalidOrder,
    InvalidSubgroup,
    LatticeTau,
    PolarizationMatrix,
    SublatticeInclusion,
    norm_endomorphism,
)
from ellcover.elliptic import quotient_lattice
from ellcover.elliptic import _hermite_2x2
from ellcover.isogeny import _adjugate

SRC = Path(__file__).resolve().parent.parent / "src"

# the Q0 shapes of tests/test_groups.py: trivial, cyclic of order 2 to 4,
# and a Klein four-group
GROUP_Q0 = [(), ("1/2,0",), ("1/3,0",), ("1/4,0",), ("1/2,0", "0,1/2")]


def _sympy_hnf(vectors):
    hnf = hermite_normal_form(sympy.Matrix(vectors).T)
    return tuple(tuple(int(hnf[i, j]) for j in range(2)) for i in range(2))


def _sympy_invariant_factors(rows):
    snf = smith_normal_form(sympy.Matrix(rows))
    return [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]


class TestHermite:
    @pytest.mark.parametrize("q0", GROUP_Q0)
    def test_quotient_periods_match_sympy_basis(self, q0):
        lattice = LatticeTau.from_tau(complex(0.3, 1.1))
        spec = FiniteSubgroupSpec.parse(q0) if q0 else FiniteSubgroupSpec.trivial()
        rows = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
        rows.extend(spec.generators)
        den = math.lcm(*(f.denominator for row in rows for f in row))
        hnf = _sympy_hnf([[int(f * den) for f in row] for row in rows])
        quo = quotient_lattice(lattice, spec)
        assert quo.subgroup.order == spec.order
        # the Hermite basis, divided by its reduction scale: E/Q0 at unit scale
        (a, b), (_, c) = hnf
        unscaled = LatticeTau(
            complex(Fraction(a, den) * lattice.omega1),
            complex(Fraction(b, den) * lattice.omega1 + Fraction(c, den) * lattice.omega2),
        )
        assert quo.target.omega1 == unscaled.omega1 / unscaled.scale
        assert quo.target.omega2 == unscaled.omega2 / unscaled.scale
        assert abs(quo.target.scale - 1) < 1e-15

    def test_random_generator_sets_match_sympy(self):
        rng = random.Random(11)
        for _ in range(500):
            den = rng.randint(1, 24)
            vectors = [[den, 0], [0, den]] + [
                [rng.randint(-50, 50), rng.randint(-50, 50)]
                for _ in range(rng.randint(0, 3))
            ]
            assert _hermite_2x2(vectors) == _sympy_hnf(vectors)

    def test_rank_deficient_rejected(self):
        with pytest.raises(InvalidSubgroup):
            _hermite_2x2([[1, 2], [2, 4]])


COLUMN_KINDS = ("random", "scaled", "dependent")


def _random_columns(rng, d, r, kind):
    """d x r integer columns: random, with a scaled first column, or with a dependent last column."""
    cols = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(d)]
    if kind == "scaled":
        # a scaled column scales every r x r minor
        scale = rng.randint(2, 4)
        for row in cols:
            row[0] *= scale
    elif kind == "dependent" and r > 1:
        k = rng.randint(-3, 3)
        for row in cols:
            row[-1] = k * row[0] + row[-2]
    return cols


def _check_saturation(cols):
    """Both constructors on `cols` against sympy's Smith form; returns its invariant factors."""
    r = len(cols[0])
    factors = _sympy_invariant_factors(cols)
    if len(factors) < r:
        with pytest.raises(InvalidSubgroup, match="full column rank"):
            SublatticeInclusion.unchecked(cols)
    else:
        assert SublatticeInclusion.unchecked(cols).columns == tuple(map(tuple, cols))
    if factors == [1] * r:
        assert SublatticeInclusion(cols).columns == tuple(map(tuple, cols))
        return factors
    with pytest.raises(InvalidSubgroup) as refused:
        SublatticeInclusion(cols)
    if len(factors) == r:
        assert f"(index {math.prod(factors)} in its saturation)" in str(refused.value)
    return factors


class TestClosedFormInvariants:
    def test_random_columns_match_sympy(self):
        rng = random.Random(7)
        saturated = 0
        for _ in range(200):
            d = rng.randint(1, 6)
            r = rng.randint(1, d)
            saturated += _check_saturation(_random_columns(rng, d, r, "random")) == [1] * r
        assert saturated > 0

    def test_scaled_columns_are_refused_as_sympy_says(self):
        rng = random.Random(9)
        for _ in range(200):
            d = rng.randint(1, 6)
            r = rng.randint(1, d)
            factors = _check_saturation(_random_columns(rng, d, r, "scaled"))
            assert factors != [1] * r

    def test_dependent_columns_are_refused_as_sympy_says(self):
        rng = random.Random(10)
        for _ in range(200):
            d = rng.randint(2, 6)
            r = rng.randint(2, d)
            factors = _check_saturation(_random_columns(rng, d, r, "dependent"))
            assert len(factors) < r

    def test_norm_exponent_matches_sympy(self):
        rng = random.Random(8)
        checked = 0
        while checked < 500:
            d = rng.randint(1, 5)
            r = rng.randint(1, d)
            a = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            # A^T A + D with D >= 0 on the diagonal: positive semidefinite,
            # and definite where D is
            l = PolarizationMatrix([
                [sum(a[k][i] * a[k][j] for k in range(d)) + (i == j) * rng.randint(0, 2)
                 for j in range(d)]
                for i in range(d)
            ])
            cols = _random_columns(rng, d, r, COLUMN_KINDS[checked % 3])
            factors = _sympy_invariant_factors(cols)
            if len(factors) < r:
                continue
            # the saturated inclusions through the checked constructor
            z = SublatticeInclusion(cols) if factors == [1] * r else SublatticeInclusion.unchecked(cols)
            phi = sympy.Matrix(cols).T * sympy.Matrix(l.rows) * sympy.Matrix(cols)
            if phi.det() == 0:
                with pytest.raises(InvalidOrder, match="singular"):
                    norm_endomorphism(l, z)
                continue
            n, e = norm_endomorphism(l, z)
            assert e == _sympy_invariant_factors(phi.tolist())[-1]
            expected = e * sympy.Matrix(cols) * phi.inv() * sympy.Matrix(cols).T * sympy.Matrix(l.rows)
            assert n == tuple(tuple(int(v) for v in row) for row in expected.tolist())
            checked += 1

    def test_adjugate_matches_sympy(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            det, adj = _adjugate(m)
            assert det == sympy.Matrix(m).det()
            assert adj == sympy.Matrix(m).adjugate().tolist()


NO_SYMPY_SCRIPT = """
import sys
for name in ("sympy", "fractions"):
    sys.modules[name] = None  # any import of it now raises ImportError
import warnings
warnings.simplefilter("ignore")
from ellcover import PolarizationMatrix, SublatticeInclusion, norm_endomorphism
from ellcover.cli import main

assert main(["construct", "--construction", "B", "--d", "3", "--q0", "1/2,0"]) == 0
assert main(["verify", "--construction", "A", "--d", "1", "--q0", "1/3,0",
             "--samples", "2"]) == 0
assert main(["intersection", "--self", "4 0;0 4"]) == 0
assert main(["intersection", "--chi", "2 1;1 2"]) == 0
assert main(["intersection", "--mixed", "1 0;0 1:1", "1 1;1 1:1"]) == 0
z = SublatticeInclusion(((1,), (1,), (0,)))
n, e = norm_endomorphism(PolarizationMatrix.identity_plus_ones(3), z)
assert e == 6, e
assert SublatticeInclusion.unchecked(((2,), (0,))).columns == ((2,), (0,))
from ellcover import InvalidSubgroup
for columns in (((2,), (0,)), ((1, 2), (1, 2))):  # not saturated; not of full rank
    try:
        SublatticeInclusion(columns)
    except InvalidSubgroup:
        continue
    raise AssertionError(f"{columns} was accepted")
z = SublatticeInclusion.unchecked(((2,), (0,)))
assert norm_endomorphism(PolarizationMatrix.identity(2), z) == (((4, 0), (0, 0)), 4)
print("no sympy needed")
"""


def test_runtime_needs_no_sympy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("no sympy needed")
