"""Finite-alphabet probability objects and information measures.

Every information quantity in this package is expressed in nats.  The
usual conventions for zero mass apply throughout: 0*ln(0) = 0, and
x*ln(x/0) = +inf for x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Absolute tolerance used when validating that probabilities sum to one.
SUM_TOL = 1e-12


class DistributionError(ValueError):
    """Raised when a probability object fails validation."""


def is_number(v, integer: bool = False) -> bool:
    """The JSON number rule: never a boolean or a string, always a finite float (not NaN,
    Infinity or 10**400); an integer is an integral number (16.0 counts)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v) and (not integer or v % 1 == 0)
    except OverflowError:  # an int too large for a float
        return False


def number_array(v, integer: bool = False) -> np.ndarray | None:
    """A JSON number or nested list as a float array; None if an entry breaks ``is_number``."""
    a = np.asarray(v, dtype=object)
    return a.astype(np.float64) if all(is_number(x, integer) for x in a.flat) else None


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _as_prob_vector(values) -> np.ndarray:
    """Validate and normalize a probability vector.

    Entries must be nonnegative up to roundoff and sum to one within
    ``SUM_TOL``.  Residue within the tolerance is normalized away; anything
    beyond is rejected.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise DistributionError(f"expected a nonempty 1-D vector, got shape {a.shape}")
    if np.any(np.isnan(a)):
        raise DistributionError("probability vector contains NaN")
    if np.any(a < -SUM_TOL):
        raise DistributionError(f"negative probability entry: min={a.min():.3e}")
    a = np.maximum(a, 0.0)
    s = float(a.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise DistributionError(f"probabilities sum to {s!r}, expected 1 within {SUM_TOL:g}")
    if s != 1.0 and s > 0.0:
        a = a / s
    return a


@dataclass(frozen=True)
class Distribution:
    """A probability vector over a finite alphabet."""

    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _freeze(_as_prob_vector(self.p)))

    @property
    def size(self) -> int:
        return self.p.size

    @staticmethod
    def uniform(size: int) -> "Distribution":
        return Distribution(np.full(size, 1.0 / size))


@dataclass(frozen=True)
class JointDistribution:
    """A joint probability matrix; rows index the first coordinate."""

    p: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.p, dtype=np.float64)
        if a.ndim != 2 or a.size == 0:
            raise DistributionError(f"expected a 2-D matrix, got shape {a.shape}")
        flat = _as_prob_vector(a.reshape(-1))
        object.__setattr__(self, "p", _freeze(flat.reshape(a.shape)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape


@dataclass(frozen=True)
class Channel:
    """A discrete memoryless channel: one output distribution per input.

    ``matrix`` is row-stochastic; each row is validated and normalized
    like a Distribution.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=np.float64)
        if a.ndim != 2 or a.size == 0:
            raise DistributionError(f"expected a 2-D matrix, got shape {a.shape}")
        object.__setattr__(self, "matrix", _freeze(np.vstack([_as_prob_vector(r) for r in a])))

    @property
    def input_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def output_size(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def from_matrix(matrix) -> "Channel":
        return Channel(np.asarray(matrix, dtype=np.float64))

    @staticmethod
    def from_json(obj: dict) -> "Channel":
        """Build a channel from ``{"input_size", "output_size", "matrix"}``.

        Sizes are integers and entries numbers (``is_number``); rows must sum
        to one within 1e-9, else the offending row and its sum are reported.
        """
        try:
            k, l, m = obj["input_size"], obj["output_size"], number_array(obj["matrix"])
        except (KeyError, TypeError) as exc:
            raise DistributionError(f"malformed channel object: {exc}") from exc
        if not (is_number(k, integer=True) and is_number(l, integer=True)):
            raise DistributionError(f"channel input_size and output_size must be integers, got {k!r} and {l!r}")
        if m is None:
            raise DistributionError("channel matrix entries must be numbers")
        if m.shape != (k, l):
            raise DistributionError(
                f"channel matrix shape {m.shape} does not match sizes ({k}, {l})"
            )
        if np.any(m < -1e-9):
            raise DistributionError("channel matrix entries must be nonnegative")
        sums = m.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > 1e-9)[0]
        if bad.size:
            i = int(bad[0])
            raise DistributionError(
                f"channel row {i} sums to {sums[i]!r}, expected 1 within 1e-9"
            )
        m = np.maximum(m, 0.0)
        m = m / m.sum(axis=1, keepdims=True)
        return Channel.from_matrix(m)


# ---------------------------------------------------------------------------
# Information measures.


def entropy_rows(a: np.ndarray) -> np.ndarray:
    """Entropy along the last axis, one value per row; not clamped.  The one entropy kernel."""
    safe = np.where(a > 0, a, 1.0)
    return -np.sum(a * np.log(safe), axis=-1)


def entropy(dist: Distribution) -> float:
    """Shannon entropy in nats; lies in [0, ln(size)]."""
    return max(0.0, float(entropy_rows(dist.p)))


def mutual_information_stack(j: np.ndarray) -> np.ndarray:
    """I(row; col) of each joint in a (B, rows, cols) stack; clamped at zero.

    The one mutual-information kernel: H(row) + H(col) - H(joint) per
    joint, with tiny negative rounding residue clamped away because the
    quantity is nonnegative.  The caller guarantees each joint is valid
    (nonnegative, sums to one).
    """
    hx = entropy_rows(j.sum(axis=2))
    hy = entropy_rows(j.sum(axis=1))
    hxy = entropy_rows(j.reshape(j.shape[0], -1))
    return np.maximum(hx + hy - hxy, 0.0)


def mutual_information(joint: JointDistribution) -> float:
    """I(row; col) of a joint matrix, in nats; clamped at zero."""
    return float(mutual_information_stack(joint.p[None])[0])


@lru_cache(maxsize=None)
def _compositions_cached(total: int, parts: int) -> np.ndarray:
    """All length-``parts`` nonnegative integer vectors summing to ``total``.

    Rows are in ascending lexicographic order; the array is read-only so it
    can be shared safely across callers.
    """
    if parts == 1:
        out = np.array([[total]], dtype=np.int64)
    else:
        blocks = []
        for first in range(total + 1):
            rest = _compositions_cached(total - first, parts - 1)
            col = np.full((rest.shape[0], 1), first, dtype=np.int64)
            blocks.append(np.hstack([col, rest]))
        out = np.vstack(blocks)
    out.flags.writeable = False
    return out


def compositions(total: int, parts: int) -> np.ndarray:
    """Read-only int array of all compositions of ``total`` into ``parts``."""
    if total < 0 or parts < 1:
        raise DistributionError("compositions: need total >= 0 and parts >= 1")
    return _compositions_cached(total, parts)

