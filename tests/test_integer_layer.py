"""The exact integer routines of `polarization`, checked against sympy as an oracle.

sympy is a test dependency only: the package computes Hermite forms and Smith
invariant factors itself, and the last test proves that every command runs
with sympy made unimportable.
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

from ellcover import FiniteSubgroupSpec, InvalidSubgroup, LatticeTau
from ellcover.elliptic import quotient_lattice
from ellcover.elliptic import _hermite_2x2
from ellcover.isogeny import _invariant_factors

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
        if spec.order == 1:
            assert quo.target is lattice
            return
        (a, b), (_, c) = hnf
        assert quo.target.omega1 == complex(Fraction(a, den) * lattice.omega1)
        assert quo.target.omega2 == complex(
            Fraction(b, den) * lattice.omega1 + Fraction(c, den) * lattice.omega2
        )

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


class TestInvariantFactors:
    def test_random_matrices_match_sympy(self):
        rng = random.Random(7)
        for _ in range(400):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            assert _invariant_factors(rows) == _sympy_invariant_factors(rows)

    def test_singular_matrices_match_sympy(self):
        rng = random.Random(8)
        for _ in range(200):
            d = rng.randint(2, 6)
            rows = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
            # a dependent last row drops the rank below d
            k = rng.randint(-3, 3)
            rows[-1] = [k * u + v for u, v in zip(rows[0], rows[-2])]
            factors = _invariant_factors(rows)
            assert factors == _sympy_invariant_factors(rows)
            assert len(factors) < d

    def test_non_saturated_matrices_match_sympy(self):
        rng = random.Random(9)
        for _ in range(200):
            d = rng.randint(1, 6)
            r = rng.randint(1, d)
            cols = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(d)]
            scale = rng.randint(2, 4)
            # a scaled column scales every r x r minor, so a full-rank
            # result is not saturated
            for row in cols:
                row[0] *= scale
            factors = _invariant_factors(cols)
            assert factors == _sympy_invariant_factors(cols)
            if len(factors) == r:
                assert math.prod(factors) % scale == 0


NO_SYMPY_SCRIPT = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
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
