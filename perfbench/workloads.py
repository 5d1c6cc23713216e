"""Seeded command lists for the benchmark workloads and the checks on their outputs.

A workload is a list of `ellcover` commands.  Each command is a dict with the
subcommand (`kind`), its CLI arguments, the config it belongs to (`cfg`), a
readable `label`, and the values its output must show (`expect`).  Expected
values come from closed forms computed here, never from the package:

- group order `2^d d! n^d` (construction A) and `(d+1)! n^d` (B), n = |Q0|;
- the polarization `2n*I` (A) or `I+J` (B), with chi `(2n)^d` or `d+1`;
- `--self` of a matrix congruent to `c*I` is `d! c^d`, `--chi` of one
  congruent to `I+J` is `d+1`, and `--mixed S:d` is `d! det S` where S is
  built as `U^T D U` with U unimodular, so `det S = det D`.

The same list runs as CLI subprocesses (untraced, end-to-end metrics) and
in-process through `ellcover.cli.main` (traced, per-layer metrics); `check`
judges both the same way.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("verify_small", "verify_large", "exact")

DEFAULT_TAU = "0.3+1.1i"


def group_order(construction: str, d: int, n: int) -> int:
    if construction == "A":
        return 2**d * math.factorial(d) * n**d
    return math.factorial(d + 1) * n**d


def polarization_rows(construction: str, d: int, n: int) -> list[list[int]]:
    if construction == "A":
        return [[2 * n * (i == j) for j in range(d)] for i in range(d)]
    return [[1 + (i == j) for j in range(d)] for i in range(d)]


def polarization_chi(construction: str, d: int, n: int) -> int:
    return (2 * n) ** d if construction == "A" else d + 1


def matrix_text(rows: list[list[int]]) -> str:
    return ";".join(" ".join(str(v) for v in row) for row in rows)


def _cyclic_generator(rng: random.Random, n: int) -> str:
    """A uniformly drawn generator (a/n, b/n) of a cyclic subgroup of order n."""
    gens = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if math.gcd(math.gcd(a, b), n) == 1
    ]
    a, b = rng.choice(gens)
    return f"{Fraction(a, n)},{Fraction(b, n)}"


def _draw_tau(rng: random.Random) -> str:
    return f"{rng.uniform(-0.5, 0.5):.6f}{rng.uniform(0.9, 2.0):+.6f}i"


def _cover_commands(
    cfg: int,
    construction: str,
    d: int,
    n: int,
    q0: str,
    tau: str,
    samples: int,
    seeds: list[int],
    construct: bool = True,
) -> list[dict]:
    """construct and the degree-identity chi check on its polarization; one verify per seed."""
    flags = ["--construction", construction, "--d", str(d), f"--tau={tau}", "--q0", q0]
    label = f"{construction} d={d} q0={q0} tau={tau}"
    order = group_order(construction, d, n)
    rows = polarization_rows(construction, d, n)
    commands = [] if not construct else [
        {
            "kind": "construct",
            "cfg": cfg,
            "label": f"construct {label}",
            "argv": flags,
            "expect": {"group_order": order, "polarization": rows},
        },
        {
            "kind": "intersection",
            "cfg": cfg,
            "label": f"chi of the polarization of {label}",
            "argv": ["--chi", matrix_text(rows)],
            "expect": {"value": polarization_chi(construction, d, n)},
        },
    ]
    commands.extend(
        {
            "kind": "verify",
            "cfg": cfg,
            "label": f"verify {label} samples={samples} seed={seed}",
            "argv": flags + ["--samples", str(samples), "--seed", str(seed)],
            "expect": {"group_order": order, "samples": samples},
        }
        for seed in (seeds if samples else [])
    )
    return commands


def _unimodular(rng: random.Random, d: int) -> list[list[int]]:
    """A random integer matrix of determinant +-1: permuted elementary shears."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def _congruent(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """U^T S U for a random unimodular U; determinant and symmetry are kept."""
    d = len(rows)
    u = _unimodular(rng, d)
    su = [[sum(rows[i][k] * u[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return [[sum(u[k][i] * su[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def _intersection_commands(rng: random.Random, count: int, max_d: int) -> list[dict]:
    commands = []
    for i in range(count):
        mode = ("self", "chi", "mixed")[i % 3]
        d = rng.randint(1, max_d)
        if mode == "self":
            c = rng.randint(1, 5)
            base = [[c * (r == s) for s in range(d)] for r in range(d)]
            expected = math.factorial(d) * c**d
            argv = ["--self", matrix_text(_congruent(rng, base))]
        elif mode == "chi":
            base = [[1 + (r == s) for s in range(d)] for r in range(d)]
            expected = d + 1
            argv = ["--chi", matrix_text(_congruent(rng, base))]
        else:
            diag = [rng.randint(1, 4) for _ in range(d)]
            base = [[diag[r] * (r == s) for s in range(d)] for r in range(d)]
            expected = math.factorial(d) * math.prod(diag)
            argv = ["--mixed", f"{matrix_text(_congruent(rng, base))}:{d}"]
        commands.append(
            {
                "kind": "intersection",
                "cfg": -1,
                "label": f"intersection {argv[0]} {argv[1]!r}",
                "argv": argv,
                "expect": {"value": expected},
            }
        )
    return commands


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's command list for this seed; `tiny` shrinks it for the smoke test."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    commands: list[dict] = []

    def add_cover(construction, d, n, q0, tau, samples, construct=True, verifies=1):
        cfg = len({c["cfg"] for c in commands if c["cfg"] >= 0})
        seeds = [rng.randrange(10**6) for _ in range(verifies)]
        commands.extend(
            _cover_commands(cfg, construction, d, n, q0, tau, samples, seeds, construct)
        )

    if workload == "verify_small":
        # Stratified so that every seed draws the same mix of sizes: per
        # construction, configs at d=1 (|Q0| 3..5) and at d=2 (|Q0| = 2).
        # Sample counts make verification at least as long as startup.
        per_stratum = 1 if tiny else 2
        for construction in ("A", "B"):
            for d in (1, 2):
                for _ in range(per_stratum):
                    n = rng.choice((3, 4, 5)) if d == 1 else 2
                    samples = (250 if d == 1 else 60) if not tiny else 5
                    add_cover(
                        construction, d, n, _cyclic_generator(rng, n), _draw_tau(rng), samples
                    )
    elif workload == "verify_large":
        shapes = [("A", 2), ("B", 2), ("B", 3)]
        d = 3
        if tiny:
            shapes, d = [("A", 2)], 2
        # Two one-sample verifies per config rather than one of two samples:
        # the same samples, but a sample that fails the fiber match costs
        # one command in twelve, not one in nine, so that one config failing
        # on every seed stands out from the sporadic failure (NOTES.md).
        for construction, n in shapes:
            add_cover(construction, d, n, f"1/{n},0", DEFAULT_TAU, 1, verifies=2)
    else:
        shapes = [("A", 2), ("B", 2), ("B", 3)]
        d = 4
        if tiny:
            shapes, d = [("B", 2)], 2
        intersections = _intersection_commands(rng, 6 * len(shapes), 3 if tiny else 6)
        # Small fixed verifies, mostly interpreter and import startup, so
        # that verify_s and the sample counts exist on this workload too.
        # Nine of them: a median over three single-pass commands spread by
        # as much as 0.25 over ten seeds.
        probes = ["A", "B", "A"] * len(shapes)
        # Short commands are spread between the long constructs, so that
        # their medians do not all come from one stretch of the run.
        for i, (construction, n) in enumerate(shapes):
            add_cover(construction, d, n, f"1/{n},0", DEFAULT_TAU, 0)
            commands.extend(intersections[6 * i : 6 * i + 6])
            for probe in probes[3 * i : 3 * i + 3]:
                add_cover(probe, 1, 3, "1/3,0", DEFAULT_TAU, 20, construct=False)
    return commands


def _summary_json(stdout: str) -> dict:
    """The JSON object `construct` prints after its four summary lines."""
    lines = stdout.splitlines()
    return json.loads("\n".join(lines[lines.index("{"):]))


def check(cmd: dict, rc: int, stdout: str, stderr: str, report: bytes | None) -> dict:
    """Judge one command's output.

    status is "ok", "verdict" (an honest non-PASS verification), "wrong"
    (an exact value differs from its closed form) or "crash" (raw exception,
    unexpected exit code or unreadable output).
    """
    out = {"status": "ok", "detail": "", "samples": 0, "generic": 0, "sha256": None}
    expect = cmd["expect"]

    def fail(status: str, detail: str) -> dict:
        out["status"] = status
        out["detail"] = detail
        return out

    if "Traceback (most recent call last)" in stderr:
        return fail("crash", stderr.strip().splitlines()[-1])
    try:
        if cmd["kind"] == "construct":
            if rc != 0:
                return fail("crash", f"exit code {rc}: {stderr.strip()}")
            summary = _summary_json(stdout)
            order = summary["group_order"]
            if order != expect["group_order"]:
                return fail("wrong", f"group order {order} != {expect['group_order']}")
            if summary["theoretical_degree"] != order:
                return fail(
                    "wrong",
                    f"theoretical degree {summary['theoretical_degree']} != |G| {order}",
                )
            if summary["polarization"] != expect["polarization"]:
                return fail("wrong", f"polarization {summary['polarization']}")
            return out
        if cmd["kind"] == "intersection":
            if rc != 0:
                return fail("crash", f"exit code {rc}: {stderr.strip()}")
            value = int(stdout.strip())
            if value != expect["value"]:
                return fail("wrong", f"value {value} != {expect['value']}")
            return out
        if rc not in (0, 1) or report is None:
            return fail("crash", f"exit code {rc}: {stderr.strip()}")
        out["sha256"] = hashlib.sha256(report).hexdigest()
        payload = json.loads(report)
        out["samples"] = len(payload["samples"])
        out["generic"] = sum(1 for s in payload["samples"] if s["generic"])
        if payload["group_order"] != expect["group_order"]:
            return fail(
                "wrong", f"group order {payload['group_order']} != {expect['group_order']}"
            )
        if out["samples"] != expect["samples"]:
            return fail("crash", f"{out['samples']} samples, asked for {expect['samples']}")
        if (rc == 0) != bool(payload["pass"]):
            return fail("crash", f"exit code {rc} disagrees with pass={payload['pass']}")
        if not payload["pass"]:
            return fail("verdict", f"pass=false, criterion {payload['criterion']}")
        return out
    except (ValueError, KeyError, TypeError) as exc:
        return fail("crash", f"unreadable output: {exc!r}")
