"""Decoding metrics: score functions over joint input/output types.

A decoder of the family treated here ranks candidate codewords by a
score attached to the empirical joint type of (codeword, received
sequence).  Two shapes of metric are supported:

* affine metrics, fully described by a cell table c[x, y] (entries may
  be -inf to forbid cells); the score of a joint Q is sum Q[x,y]*c[x,y];
* the empirical-mutual-information metric, whose score is the mutual
  information of the joint type itself (not affine).

Scores live on the extended real line.  An affine score is -inf exactly
when the joint puts positive mass on a forbidden cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import Channel, DistributionError, JointDistribution, is_number, mutual_information


class MetricError(ValueError):
    """Raised when a metric description is invalid."""


@dataclass(frozen=True)
class AffineMetric:
    """A metric linear in the joint type, given by a cell table.

    ``cells`` has shape (x_size, y_size); entries are finite or -inf.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.cells, dtype=np.float64)
        if a.ndim != 2 or a.size == 0:
            raise MetricError(f"cell table must be 2-D and nonempty, got shape {a.shape}")
        if np.any(np.isnan(a)) or np.any(np.isposinf(a)):
            raise MetricError("cell table entries must be finite or -inf")
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        object.__setattr__(self, "cells", a)

    @property
    def is_affine(self) -> bool:
        return True

    @property
    def x_size(self) -> int:
        return self.cells.shape[0]

    @property
    def y_size(self) -> int:
        return self.cells.shape[1]

    def score_array(self, joint: np.ndarray) -> float:
        """Score of a joint type given as a plain (x_size, y_size) array."""
        mask = joint > 0
        if np.any(mask & np.isneginf(self.cells)):
            return -math.inf
        if not np.any(mask):
            return 0.0
        return float(np.dot(joint[mask], self.cells[mask]))

    def score(self, joint: JointDistribution) -> float:
        if joint.shape != self.cells.shape:
            raise MetricError(
                f"joint shape {joint.shape} does not match metric shape {self.cells.shape}"
            )
        return self.score_array(joint.p)


@dataclass(frozen=True)
class EmpiricalMutualInformationMetric:
    """Scores a joint type by its own mutual information.

    Not affine; optimization routines handle it by evaluating the score
    on candidate joints directly.
    """

    x_size: int
    y_size: int

    def __post_init__(self) -> None:
        if self.x_size < 1 or self.y_size < 1:
            raise MetricError("alphabet sizes must be positive")

    @property
    def is_affine(self) -> bool:
        return False

    def score_array(self, joint: np.ndarray) -> float:
        return mutual_information(JointDistribution(joint))

    def score(self, joint: JointDistribution) -> float:
        if joint.shape != (self.x_size, self.y_size):
            raise MetricError(
                f"joint shape {joint.shape} does not match metric shape "
                f"({self.x_size}, {self.y_size})"
            )
        return mutual_information(joint)


Metric = AffineMetric | EmpiricalMutualInformationMetric


def _log_cells(matrix: np.ndarray, beta: float) -> np.ndarray:
    # beta * ln(w) with ln(0) = -inf; beta > 0 keeps the sign convention.
    out = np.full(matrix.shape, -math.inf)
    pos = matrix > 0
    out[pos] = beta * np.log(matrix[pos])
    return out


def matched_metric(channel: Channel, beta: float = 1.0) -> AffineMetric:
    """Cell table beta*ln W(y|x) built from the channel itself."""
    if not (beta > 0):
        raise MetricError(f"beta must be positive, got {beta!r}")
    return AffineMetric(_log_cells(channel.matrix, beta))


def mismatched_metric(kernel, beta: float = 1.0) -> AffineMetric:
    """Cell table beta*ln V(y|x) for a decoding kernel V, not the channel.

    ``kernel`` may be a Channel or a row-stochastic matrix.
    """
    if not (beta > 0):
        raise MetricError(f"beta must be positive, got {beta!r}")
    if isinstance(kernel, Channel):
        m = kernel.matrix
    else:
        m = np.asarray(kernel, dtype=np.float64)
        if m.ndim != 2 or np.any(m < 0) or np.any(np.isnan(m)):
            raise MetricError("decoding kernel must be a nonnegative 2-D matrix")
    return AffineMetric(_log_cells(m, beta))


def constant_metric(x_size: int, y_size: int, value: float = 0.0) -> AffineMetric:
    """A metric that scores every joint identically (blind decoding)."""
    if not math.isfinite(value):
        raise MetricError("constant metric value must be finite")
    return AffineMetric(np.full((x_size, y_size), float(value)))


def emi_metric(x_size: int, y_size: int) -> EmpiricalMutualInformationMetric:
    return EmpiricalMutualInformationMetric(x_size, y_size)


# The fields each metric kind reads.
_FIELDS = {
    "matched": ("kind", "beta"),
    "mismatched": ("kind", "beta", "kernel"),
    "constant": ("kind", "value"),
    "emi": ("kind",),
}


def _number(obj: dict, field: str, default: float) -> float:
    v = obj.get(field, default)
    if not is_number(v):
        raise MetricError(f"metric field {field!r} must be a number, got {v!r}")
    return float(v)


def metric_from_json(obj: dict, channel: Channel | None = None) -> Metric:
    """Build a metric from a JSON-style dict.

    Recognized kinds: ``matched``, ``mismatched`` (needs a ``kernel``
    row-stochastic matrix), ``constant`` (optional ``value``), ``emi``;
    all but ``mismatched`` need the channel.  ``beta`` defaults to 1
    where it applies.  A field the kind does not read, or a ``beta`` or
    ``value`` that is not a number, is a ``MetricError``.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MetricError("metric object must be a dict with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise MetricError(f"unknown metric kind {kind!r}")
    unread = sorted(set(obj) - set(_FIELDS[kind]))
    if unread:
        raise MetricError(f"{kind} metric does not read the field {', '.join(map(repr, unread))}")
    beta = _number(obj, "beta", 1.0)
    if channel is None and kind != "mismatched":
        raise MetricError(f"{kind} metric requires a channel")
    if kind == "matched":
        return matched_metric(channel, beta)
    if kind == "mismatched":
        if "kernel" not in obj:
            raise MetricError("mismatched metric requires a 'kernel' matrix")
        kern = np.asarray(obj["kernel"], dtype=object)  # for its shape; from_json checks the entries
        try:
            kern_channel = Channel.from_json(
                {
                    "input_size": kern.shape[0] if kern.ndim == 2 else -1,
                    "output_size": kern.shape[1] if kern.ndim == 2 else -1,
                    "matrix": obj["kernel"],
                }
            )
        except DistributionError as exc:
            raise MetricError(f"bad decoding kernel: {exc}") from exc
        if channel is not None and kern_channel.matrix.shape != channel.matrix.shape:
            raise MetricError("decoding kernel shape does not match the channel")
        return mismatched_metric(kern_channel, beta)
    if kind == "constant":
        return constant_metric(channel.input_size, channel.output_size, _number(obj, "value", 0.0))
    return emi_metric(channel.input_size, channel.output_size)
