"""Construction and verification of 3-AP-free integer sets.

Two strategies are provided. `digit-base3` keeps every integer whose base-3
digits are all 0/1: two such digit vectors can only average to a third when
they are equal, so the whole family is progression-free and doubles in size
with each power of three. `behrend-sphere` scans digit spaces: integers are
read as digit vectors x in {0..q-1}^dim over base d with q = ceil(d/2), so
that adding two set members never carries. A fixed squared radius then pins
the vectors to a sphere, and a sphere has no midpoints; the scan keeps the
best (dimension, base, radius) class found. For the degenerate alphabet
{0,1} the carry-free argument alone forbids progressions, so the scan also
admits those full digit cubes as candidates (at base 3 this is exactly the
digit-base3 set, which keeps the sphere strategy from losing to it at small
universe sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .common import Report, fail_report, ok_report

STRATEGIES = ("behrend-sphere", "digit-base3")

_BASE_CAP = 64
_DIM_FLOOR = 2


@dataclass(frozen=True)
class BehrendSet:
    """A 3-AP-free subset of [1..m] with the provenance of its construction."""

    m: int
    elements: tuple[int, ...]
    construction: str
    params: dict = field(default_factory=dict, compare=False)

    @property
    def size(self) -> int:
        return len(self.elements)


def verify_no_3ap(s: BehrendSet | tuple | list) -> Report:
    """Midpoint scan over all pairs; first violating triple is reported.

    Independent of every construction above: it never looks at provenance.
    """
    elems = s.elements if isinstance(s, BehrendSet) else tuple(s)
    m = s.m if isinstance(s, BehrendSet) else (max(elems) if elems else 1)
    for prev, cur in zip(elems, elems[1:]):
        if cur <= prev:
            return fail_report("elements not strictly increasing", at=(prev, cur))
    if elems and (elems[0] < 1 or elems[-1] > m):
        return fail_report("element outside [1, m]", m=m)
    members = set(elems)
    for i, a in enumerate(elems):
        for c in elems[i + 1 :]:
            if (a + c) % 2 == 0:
                b = (a + c) // 2
                if b != a and b in members:
                    return fail_report("3-term progression", triple=(a, b, c))
    return ok_report(checked_pairs=len(elems) * (len(elems) - 1) // 2)


def construct_ap_free(m: int, strategy: str = "behrend-sphere") -> BehrendSet:
    """Build a verified 3-AP-free subset of [1..m] using the given strategy."""
    if m < 1:
        raise ValueError(f"universe size must be >= 1, got {m}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    out = _construct_cached(m, strategy)
    report = verify_no_3ap(out)
    if not report:
        raise AssertionError(f"construction produced an invalid set: {report.reason}")
    return out


@lru_cache(maxsize=256)
def _construct_cached(m: int, strategy: str) -> BehrendSet:
    if strategy == "digit-base3":
        return BehrendSet(m, tuple(_digit_cube_values(m, 3, _needed_digits(m, 3))), "digit-base3")
    elements, params = _sphere_scan(m)
    return BehrendSet(m, tuple(elements), "behrend-sphere", params)


def _needed_digits(m: int, d: int) -> int:
    k = 1
    while d**k <= m:
        k += 1
    return k


def _digit_cube_values(m: int, d: int, dim: int) -> list[int]:
    """All nonzero integers <= m whose base-d expansion uses digits {0,1}."""
    vals = [0]
    power = 1
    for _ in range(dim):
        vals += [v + power for v in vals if v + power <= m]
        power *= d
    return sorted(v for v in vals if v >= 1)


def dimension_cap(m: int) -> int:
    return max(_DIM_FLOOR, math.ceil(math.sqrt(math.log2(max(m, 2)))) * 4)


def _sphere_scan(m: int):
    """Exhaustive scan over (dimension, base, radius class); returns the best.

    The (dim, base) grid is m-independent apart from the lossless prune
    d^(dim-1) > m (every admissible point then has a zero top digit and is
    already covered one dimension down), which keeps |result| monotone in m.
    """
    # the dimension-1 degenerate class: any singleton is progression-free
    best: list[int] = [1]
    best_params: dict = {"dimension": 1, "base": m + 1, "radius_sq": 1}
    for dim in range(_DIM_FLOOR, dimension_cap(m) + 1):
        for d in range(3, _BASE_CAP + 1):
            if d ** (dim - 1) > m:
                break
            q = (d + 1) // 2
            classes: dict[int, list[int]] = {}
            _enumerate_digit_points(m, d, q, dim, classes)
            for radius, values in classes.items():
                if len(values) > len(best):
                    best = values
                    best_params = {"dimension": dim, "base": d, "radius_sq": radius}
            if q == 2:
                cube = _digit_cube_values(m, d, dim)
                if len(cube) > len(best):
                    best = cube
                    best_params = {"dimension": dim, "base": d, "radius_sq": None}
    return sorted(best), best_params


def _enumerate_digit_points(m, d, q, dim, classes):
    # digits placed from the most significant position down so the value
    # bound prunes whole subtrees
    powers = [d**i for i in range(dim - 1, -1, -1)]

    def rec(pos, val, r2):
        if pos == dim:
            if val >= 1:
                classes.setdefault(r2, []).append(val)
            return
        p = powers[pos]
        for x in range(q):
            v = val + x * p
            if v > m:
                break
            rec(pos + 1, v, r2 + x * x)

    rec(0, 0, 0)


def random_ap_free(m: int, rng) -> BehrendSet:
    """Greedy 3-AP-free subset of [1..m] built over a shuffled element order."""
    order = list(rng.permutation(m) + 1)
    chosen: set[int] = set()
    for x in order:
        x = int(x)
        if any((2 * y - x) in chosen or (2 * x - y) in chosen for y in chosen):
            continue
        chosen.add(x)
    return BehrendSet(m, tuple(sorted(chosen)), "explicit", {"sampler": "greedy-shuffle"})


def trim_to_multiple(s: BehrendSet, k: int) -> BehrendSet:
    """Drop largest elements until |s| is a multiple of k (subsets stay AP-free)."""
    keep = len(s.elements) - (len(s.elements) % k)
    return BehrendSet(s.m, s.elements[:keep], s.construction, dict(s.params))
