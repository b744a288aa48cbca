"""Grid enumeration and 1-D searches for the exponent routines.

Four pieces live here:

* the grid rules: integral counts, mixed-radix digits, the largest
  resolution within a budget, and the contingency tables with given
  margins, which are the outer grid of couplings;
* the 2x2 swap directions that move a coupling without changing its
  margins, used by the continuous polish of the outer objective;
* 1-D golden-section search, including the concave search over the
  tilting parameter rho;
* a chunked map whose reduction order does not depend on the worker
  count.

Everything is deterministic: grid points are visited in a fixed
lexicographic order, ties in value are broken by the lowest index, and
parallel evaluation reduces over fixed chunk boundaries so the result
is independent of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .measures import Distribution, DistributionError, compositions

#: Slack applied to the information constraint at grid points.
INFO_SLACK = 1e-9

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_GOLDEN_MAX_ITERS = 200  # step cap; 0.618**200 < 1e-41, so tol binds first


class InfeasibleGridError(ValueError):
    """The requested grid cannot represent the constraints.

    Carries a human-readable diagnostic; when a marginal is not exactly
    representable at the resolution, ``suggestion`` holds the nearest
    integer composition (counts summing to the resolution).
    """

    def __init__(self, message: str, suggestion: np.ndarray | None = None):
        super().__init__(message)
        self.suggestion = suggestion


@dataclass(frozen=True)
class GridSpec:
    """Resolution, refinement switch and worker count of a grid search.

    ``resolution`` is the denominator k: grid distributions have all
    entries in {0, 1/k, ..., 1}.  ``refine`` adds continuous descent
    after the certified grid scan.  ``workers`` is the thread count of
    the chunked scans; chunk boundaries are fixed, so results do not
    depend on it.
    """

    resolution: int
    refine: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise DistributionError("workers must be >= 1")
        if self.resolution < 2:
            raise DistributionError(f"grid resolution must be >= 2, got {self.resolution}")


def integral_counts(p: np.ndarray, k: int) -> np.ndarray | None:
    """k*p as exact integers, or None when some entry is not within 1e-9 of one."""
    target = np.asarray(p, dtype=np.float64) * k
    counts = np.rint(target)
    if np.max(np.abs(target - counts)) > 1e-9:
        return None
    return counts.astype(np.int64)


def margin_counts(margin: Distribution, k: int) -> np.ndarray:
    """k times the margin as exact integers; reject non-grid margins.

    The error carries the nearest representable composition (largest
    remainder rounding) so callers can retry with a valid composition.
    """
    counts = integral_counts(margin.p, k)
    if counts is None:
        near = nearest_grid_composition(margin.p, k)
        raise InfeasibleGridError(
            f"margin times resolution {k} is not integral; "
            f"nearest representable counts: {near.tolist()}",
            suggestion=near,
        )
    return counts


def nearest_grid_composition(margin: np.ndarray, k: int) -> np.ndarray:
    """Largest-remainder rounding of k*margin to integer counts summing to k."""
    target = np.asarray(margin, dtype=np.float64) * k
    base = np.floor(target).astype(np.int64)
    short = k - int(base.sum())
    if short > 0:
        order = np.argsort(-(target - base), kind="stable")
        base[order[:short]] += 1
    return base


def largest_resolution(limit: int, parts: int, power: int, budget: int) -> int:
    """Largest k in [2, limit] with C(k + parts - 1, parts - 1)**power <= budget, else 1."""
    k = 1
    for cand in range(2, limit + 1):
        if math.comb(cand + parts - 1, parts - 1) ** power > budget:
            break
        k = cand
    return k


def digits(idx, base: int, width: int) -> np.ndarray:
    """The ``width`` base-``base`` digits of ``idx``, most significant first, on a new last axis."""
    idx = np.asarray(idx, dtype=np.int64)
    out = np.empty(idx.shape + (width,), dtype=np.int64)
    for t in range(width):
        out[..., t] = (idx // base ** (width - 1 - t)) % base
    return out


def enumerate_margin_tables(row_counts: np.ndarray, col_counts: np.ndarray) -> Iterator[np.ndarray]:
    """Integer contingency tables with the given margins, in lex order.

    Lex order means the first row varies slowest; each row runs through
    the compositions of its margin that fit under the column margins
    left, and the final row is what they leave.
    """
    r = len(row_counts)
    col0 = np.asarray(col_counts, dtype=np.int64)

    def rec(i: int, rows: list[np.ndarray], col_left: np.ndarray) -> Iterator[np.ndarray]:
        if i == r - 1:
            yield np.array(rows + [col_left], dtype=np.int64)
            return
        comps = compositions(int(row_counts[i]), len(col_left))
        for comp in comps[np.all(comps <= col_left, axis=1)]:
            yield from rec(i + 1, rows + [comp], col_left - comp)

    if int(row_counts.sum()) != int(col0.sum()):
        return iter(())
    return rec(0, [], col0.copy())


def move_directions(size: int) -> list[np.ndarray]:
    """2x2 minor swaps of a size-by-size joint, in lexicographic order.

    Each move adds 1 at (i1, j1) and (i2, j2) and subtracts 1 at
    (i1, j2) and (i2, j1), for i1 < i2 and j1 < j2, so both margins are
    preserved; together the moves span that subspace.
    """
    dirs: list[np.ndarray] = []
    for i1 in range(size):
        for i2 in range(i1 + 1, size):
            for j1 in range(size):
                for j2 in range(j1 + 1, size):
                    d = np.zeros((size, size))
                    d[i1, j1] = d[i2, j2] = 1.0
                    d[i1, j2] = d[i2, j1] = -1.0
                    dirs.append(d)
    return dirs


def golden_section_minimize(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [lo, hi].

    Endpoints are evaluated too, so boundary minima are exact; among
    ties the leftmost probed point wins.  Returns (argmin, value).
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    flo = f(lo)
    if hi == lo:
        return lo, flo
    fhi = f(hi)
    best_x, best_f = (lo, flo) if flo <= fhi else (hi, fhi)
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_MAX_ITERS):
        if h <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def concave_search_rho(
    inner: Callable[[float], float], lo: float = 1.0, hi: float = 64.0, tol: float = 1e-9
) -> tuple[float, float, bool]:
    """Maximum of a concave function of rho on [lo, hi].

    The inner function is typically a pointwise minimum of affine
    functions of rho, hence concave.  Returns (rho_star, value,
    boundary_flag) with boundary_flag set when the maximum sits against
    the upper cap, signaling the true supremum may be beyond it.
    """
    if not (lo >= 1.0 and hi >= lo):
        raise ValueError(f"rho interval must satisfy 1 <= lo <= hi, got [{lo}, {hi}]")
    x, neg = golden_section_minimize(lambda r: -inner(r), lo, hi, tol)
    return x, -neg, (hi - x) < max(tol, 1e-9)


def ordered_chunk_map(
    fn: Callable[[int, int], object], n_items: int, chunk_size: int, workers: int
) -> list[object]:
    """Apply fn(start, stop) over fixed chunks; results in chunk order.

    Chunk boundaries depend only on chunk_size, never on the worker
    count, so any downstream reduction done in list order is bit-stable
    across worker counts.  ``workers`` must be at least 1.
    """
    if workers < 1:
        raise DistributionError(f"workers must be >= 1, got {workers}")
    spans = [(s, min(s + chunk_size, n_items)) for s in range(0, n_items, chunk_size)]
    if not spans:
        return []
    if workers <= 1 or len(spans) == 1:
        return [fn(s, e) for s, e in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda se: fn(se[0], se[1]), spans))
