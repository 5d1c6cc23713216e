"""In-memory spans around the public functions and methods of each ellcover layer.

`Tracer.install` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, config id).  A function
is replaced under every name any `ellcover` module bound it to, so calls
are counted whichever module makes them.  Very hot, tiny methods
(`TorusPoint.close_to`, `AffineAutomorphism.apply`) get a bare call counter
instead of a span.  Nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from ellcover import covers, elliptic, groups, polarization, symfun
from ellcover.errors import EllcoverError, NoConvergence

#: (span name, module, attribute path, exceptions counted as `<name>.fail`)
SPANS = [
    ("elliptic.quotient_lattice", elliptic, "quotient_lattice", ()),
    ("elliptic.wp", elliptic, "wp", ()),
    ("elliptic.wp_inverse", elliptic, "wp_inverse", (NoConvergence,)),
    ("symfun.projective_spread", symfun, "projective_spread", ()),
    ("symfun.divisor_to_coords", symfun, "divisor_to_coords", (EllcoverError,)),
    ("symfun.section_zeros", symfun, "section_zeros", ()),
    ("symfun.sym_product", symfun, "sym_product", ()),
    ("symfun.sym_fiber", symfun, "sym_fiber", ()),
    ("groups.build", groups, "build_group_A", ()),
    ("groups.build", groups, "build_group_B", ()),
    ("groups.orbit", groups, "FiniteActionGroup.orbit", ()),
    ("groups.stabilizer", groups, "FiniteActionGroup.stabilizer", ()),
    ("covers.build_cover", covers, "build_cover", ()),
    ("covers.map", covers, "CoverSpec.map", ()),
    ("covers.fiber_A", covers, "fiber_A", ()),
    ("covers.galois_verify", covers, "galois_verify", ()),
    ("covers.criterion_check", covers, "criterion_check", ()),
    ("polarization.chi", polarization, "chi", ()),
    ("polarization.mixed_intersection", polarization, "mixed_intersection", ()),
]

#: (counter name, module, attribute path) for call counts without spans
COUNTERS = [
    ("elliptic.close_to", elliptic, "TorusPoint.close_to"),
    ("groups.apply", groups, "AffineAutomorphism.apply"),
]


def _replace(module, path: str, make_wrapper) -> None:
    """Swap the object at module.path for its wrapper, under every bound name."""
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, attr, make_wrapper(owner.__dict__[attr]))
        return
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "ellcover":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class Tracer:
    """Spans and counters of one process, kept in memory until `write`."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.config = -1
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def span(self, name: str, fn, fail_types: tuple = ()):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            nested = tracer._depth[name] > 0
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except fail_types:
                tracer.counts[f"{name}.fail"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._depth[name] -= 1
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.config, nested)
            if name == "symfun.projective_spread":
                n = len(args[0])
                tracer.counts[f"{name}.pairs"] += n * (n - 1) // 2
            elif name == "groups.build":
                tracer.counts[f"{name}.order"] += result.order
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, module, path, fail_types in SPANS:
            _replace(module, path, lambda fn, n=name, f=fail_types: self.span(n, fn, f))
        for name, module, path in COUNTERS:
            _replace(module, path, lambda fn, n=name: self.counter(n, fn))

    def summary(self) -> dict:
        """Per span name: calls, busy time `.s` and self time `.self_s`; plus counters.

        Busy time sums the outermost span of each name, so recursion is not
        counted twice; self time subtracts the direct children's durations.
        """
        child_time: defaultdict = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = dict(self.counts)
        for name in {s[0] for s in self.spans}:
            for suffix in ("calls", "s", "self_s"):
                out.setdefault(f"{name}.{suffix}", 0)
        for index, (name, start, end, _, _, nested) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            if not nested:
                out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[index]
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, config id."""
        with open(path, "w") as fh:
            for name, start, end, parent, config, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, config]) + "\n")
