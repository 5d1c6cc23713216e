"""End-to-end acceptance gate.

Eight numbered checks, each printing one PASS/FAIL line with its runtime.
Budgets and tolerances are pinned here; a red line means the corresponding
guarantee of the package does not hold on this machine.
"""

import json
import math
import random
import time
import warnings

from ellcover import (
    FiniteSubgroupSpec,
    LatticeTau,
    NotVeryAmpleWarning,
    PolarizationMatrix,
    SublatticeInclusion,
    build_cover,
    build_group_A,
    build_group_B,
    chi,
    criterion_check,
    eisenstein_g2_g3,
    galois_verify,
    mixed_intersection,
    norm_endomorphism,
    pullback,
    self_intersection,
    very_ample_preconditions,
)
from ellcover.cli import main
from ellcover.weierstrass import TorusPoint, wp_both_values

from conftest import TAU, lattice_sum_g2_g3

DS = (1, 2, 3)
QS = (2, 3, 4)

# group orders counted from the listed elements, not read off the closed
# form that `.order` holds; shared with check 2
_GRID_ORDERS: dict[tuple[str, int, int], int] = {}


def _enumerate_grid() -> dict[tuple[str, int, int], int]:
    if not _GRID_ORDERS:
        for d in DS:
            for q in QS:
                q0 = FiniteSubgroupSpec.parse((f"1/{q},0",))
                _GRID_ORDERS[("A", d, q)] = len(build_group_A(d, q0).elements)
                _GRID_ORDERS[("B", d, q)] = len(build_group_B(d, q0).elements)
    return _GRID_ORDERS


def _report(number: int, ok: bool, description: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description} ({elapsed:.2f}s)")
    assert ok, f"acceptance check {number} failed: {description}"


def test_criterion_1_group_orders():
    t0 = time.perf_counter()
    orders = _enumerate_grid()
    ok = True
    for d in DS:
        for q in QS:
            ok = ok and orders[("A", d, q)] == 2 ** d * math.factorial(d) * q ** d
            ok = ok and orders[("B", d, q)] == math.factorial(d + 1) * q ** d
    ok = ok and orders[("B", 2, 2)] == 24
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(1, ok, "enumerated group orders match closed forms on the grid", elapsed)


def test_criterion_2_order_equals_factorial_chi():
    orders = _enumerate_grid()
    t0 = time.perf_counter()
    ok = True
    for d in DS:
        for q in QS:
            chi_a = chi(PolarizationMatrix.scaled_identity(d, 2 * q))
            ok = ok and orders[("A", d, q)] == math.factorial(d) * chi_a
            chi_b = chi(PolarizationMatrix.identity_plus_ones(d)) * q ** d
            ok = ok and orders[("B", d, q)] == math.factorial(d) * chi_b
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, "|G| = d! * chi holds exactly for both constructions", elapsed)


def test_criterion_3_galois_verification_construction_a():
    t0 = time.perf_counter()
    lattice = LatticeTau.from_tau(TAU)
    q2 = FiniteSubgroupSpec.parse(("1/2,0",))
    spec = build_cover("A", 2, lattice, q2)
    report = galois_verify(spec, samples=20, seed=42, eps_pt=1e-9)
    ok = report.passed and len(report.samples) == 20
    for rec in report.samples:
        if not rec["generic"]:
            continue
        ok = ok and rec["orbit_size"] == 32
        ok = ok and rec["image_spread"] < 1e-7
        ok = ok and rec["fiber_match"]
    ok = ok and any(rec["generic"] for rec in report.samples)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(
        3,
        ok,
        "construction A (d=2, |Q0|=2): orbits of 32, spread < 1e-7, fiber = orbit",
        elapsed,
    )


def test_criterion_4_galois_verification_construction_b():
    t0 = time.perf_counter()
    lattice = LatticeTau.from_tau(TAU)
    q2 = FiniteSubgroupSpec.parse(("1/2,0",))
    spec = build_cover("B", 2, lattice, q2)
    report = galois_verify(spec, samples=20, seed=42)
    ok = report.passed and len(report.samples) == 20
    for rec in report.samples:
        if not rec["generic"]:
            continue
        ok = ok and rec["orbit_size"] == 24
        ok = ok and rec["image_spread"] < 1e-7
        # fiber_match certifies that the fiber's size (d+1)! * |Q0|^2 = 24 is
        # |G| and that one preimage recovered from the target's divisor lies
        # within 1e-6 of one of the sample's 24 images
        ok = ok and rec["fiber_match"]
    ok = ok and any(rec["generic"] for rec in report.samples)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(
        4,
        ok,
        "construction B (d=2, |Q0|=2): orbits of 24, spread < 1e-7, fiber = orbit",
        elapsed,
    )


def test_criterion_5_function_theory_suite():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(5)
    for _ in range(5):
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 1.6))
        lattice = LatticeTau.from_tau(tau)
        g2, g3 = eisenstein_g2_g3(lattice)
        for _ in range(100):
            a = rng.uniform(0.05, 0.95)
            b = rng.uniform(0.05, 0.95)
            p, dp = wp_both_values(TorusPoint.from_coords(lattice, a, b))
            scale = max(1.0, abs(4 * p ** 3), abs(g2 * p), abs(g3))
            ok = ok and abs(dp * dp - (4 * p ** 3 - g2 * p - g3)) / scale < 1e-10

    _, g3_square = eisenstein_g2_g3(LatticeTau.from_tau(1j))
    ok = ok and abs(g3_square) < 1e-12
    rho = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    g2_hex, _ = eisenstein_g2_g3(LatticeTau.from_tau(rho))
    ok = ok and abs(g2_hex) < 1e-12

    for tau in (TAU, 0.1 + 1.3j):
        g2_ref, g3_ref = lattice_sum_g2_g3(tau)
        g2, g3 = eisenstein_g2_g3(LatticeTau.from_tau(tau))
        ok = ok and abs(g2 - g2_ref) < 1e-8 * abs(g2_ref)
        ok = ok and abs(g3 - g3_ref) < 1e-8 * abs(g3_ref)

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(
        5,
        ok,
        "differential equation, special values, and lattice-sum oracle agree",
        elapsed,
    )


def _random_posdef(rng: random.Random, d: int) -> PolarizationMatrix:
    a = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)]
    rows = [
        [sum(a[k][i] * a[k][j] for k in range(d)) + (i == j) for j in range(d)]
        for i in range(d)
    ]
    return PolarizationMatrix(tuple(tuple(r) for r in rows))


def _random_saturated(rng: random.Random, d: int, r: int) -> SublatticeInclusion:
    while True:
        m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for _ in range(4):
            i, j = rng.randrange(d), rng.randrange(d)
            if i == j:
                continue
            k = rng.randint(-1, 1)
            for c in range(d):
                m[i][c] += k * m[j][c]
        cols = tuple(tuple(m[i][j] for j in range(r)) for i in range(d))
        if max(abs(v) for row in cols for v in row) <= 5:
            return SublatticeInclusion(cols)


def test_criterion_6_norm_endomorphism_identities():
    t0 = time.perf_counter()
    rng = random.Random(6)
    ok = True
    for _ in range(200):
        d = rng.randint(2, 4)
        r = rng.randint(1, d - 1)
        l = _random_posdef(rng, d)
        z = _random_saturated(rng, d, r)
        n, e = norm_endomorphism(l, z)
        n2 = tuple(
            tuple(sum(n[i][k] * n[k][j] for k in range(d)) for j in range(d))
            for i in range(d)
        )
        ok = ok and n2 == tuple(tuple(e * v for v in row) for row in n)
        m = pullback(n, l)
        ok = ok and self_intersection(m) == 0
        ok = ok and mixed_intersection([(m, 1), (l, d - 1)]) > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(
        6,
        ok,
        "N^2 = eN and degenerate-pullback intersections on 200 random pairs",
        elapsed,
    )


def test_criterion_7_criterion_checker_grid():
    t0 = time.perf_counter()
    lattice = LatticeTau.from_tau(TAU)
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotVeryAmpleWarning)
        for construction in ("A", "B"):
            for d in DS:
                for q in QS:
                    q0 = FiniteSubgroupSpec.parse((f"1/{q},0",))
                    spec = build_cover(construction, d, lattice, q0)
                    crit = criterion_check(spec)
                    expected = very_ample_preconditions(construction, d, q0)
                    ok = ok and crit.very_ample == expected
                    if expected:
                        ok = ok and crit.all_ok
                    else:
                        ok = ok and not crit.all_ok
        # excluded cases called out explicitly: trivial Q0, and B on the line
        # with only two translation points
        trivial = FiniteSubgroupSpec.trivial()
        for construction in ("A", "B"):
            spec = build_cover(construction, 1, lattice, trivial)
            ok = ok and not criterion_check(spec).very_ample
        q2 = FiniteSubgroupSpec.parse(("1/2,0",))
        ok = ok and not criterion_check(build_cover("B", 1, lattice, q2)).very_ample
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(
        7,
        ok,
        "criterion checker all-true on very-ample grid, excluded cases flagged",
        elapsed,
    )


def test_criterion_8_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    args = [
        "verify",
        "--construction",
        "A",
        "--d",
        "2",
        "--q0",
        "1/2,0",
        "--samples",
        "20",
        "--seed",
        "42",
    ]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    code1 = main(args + ["--output", str(out1)])
    code2 = main(args + ["--output", str(out2)])
    blob1 = out1.read_bytes()
    ok = code1 == 0 and code2 == 0
    ok = ok and blob1 == out2.read_bytes()
    ok = ok and json.loads(blob1)["pass"] is True
    elapsed = time.perf_counter() - t0
    _report(8, ok, "two identical verify runs emit byte-identical JSON", elapsed)
