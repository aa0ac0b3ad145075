"""Exact feasibility test for candidate color degree sequences.

A nondecreasing sequence d_1 <= ... <= d_n (with the sentinel d_0 = 0) is
the sorted color degree sequence of some Gallai coloring of K_n if and only
if every suffix inequality

    sum_{i=k}^{n} 2^{-(d_i - d_{k-1})} >= 1        for k = 1..n

holds.  To keep the verdict exact for large degrees, each inequality is
scaled by 2^(d_n - d_{k-1}) so both sides are plain integers:

    slack_k = sum_{i=k}^{n} 2^(d_n - d_i)  -  2^(d_n - d_{k-1})

has the same sign as the dyadic expression, and the sequence is feasible
iff every slack is nonnegative.  No floating point is used anywhere.

The slacks are built in one pass from the right, k = n down to 1, each
from the next.  Write S_k for the sum and B_k = 2^(d_n - d_{k-1}) for the
bound of the k-th inequality, e = d_n - d_k and r = d_k - d_{k-1}:

    S_k = S_{k+1} + 2^e,    B_{k+1} = 2^e,    B_k = 2^(e+r),    so
    slack_k = S_k - B_k = slack_{k+1} + 2^(e+1) - 2^(e+r),
    starting from slack_{n+1} = 0 - 2^0 = -1.

The step is 0 when r = 1, 2^e when r = 0 and negative when r >= 2, so a
chain sequence (every rise 1) builds no big integer at all.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import MalformedSequenceError, preview, require_count


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-k exact slacks for a candidate sequence, plus the verdict.

    ``slacks[k-1]`` is the integer slack of the k-th suffix inequality.
    ``first_violation`` is the least k with negative slack, or None.
    """

    values: tuple[int, ...]
    slacks: tuple[int, ...]
    feasible: bool
    first_violation: int | None

    @property
    def n(self) -> int:
        return len(self.values)


def validate_sequence(values: Sequence[int]) -> tuple[int, ...]:
    """Check shape constraints on a candidate sequence and return it as a tuple.

    Requires a nonempty nondecreasing sequence of nonnegative integers; the
    value 0 is allowed only for the single-vertex sequence [0], since any
    vertex of K_n with n >= 2 has at least one incident edge.
    """
    seq = tuple(values)
    if not seq:
        raise MalformedSequenceError("sequence must be nonempty")
    if set(map(type, seq)) != {int} or min(seq) < 0:  # name the first bad entry
        for d in seq:
            if not isinstance(d, int) or isinstance(d, bool):
                raise MalformedSequenceError(f"entries must be integers, got {d!r}")
            if d < 0:
                raise MalformedSequenceError(f"entries must be nonnegative, got {d}")
    if any(map(operator.gt, seq, seq[1:])):
        raise MalformedSequenceError(f"sequence must be nondecreasing: {preview(seq)}")
    if len(seq) >= 2 and seq[0] == 0:
        raise MalformedSequenceError(
            "degree 0 is impossible with more than one vertex"
        )
    return seq


def check_sequence(values: Sequence[int]) -> FeasibilityReport:
    """Evaluate all n suffix inequalities exactly.

    Returns the full slack profile; the sequence is realizable as the sorted
    color degree sequence of a Gallai coloring of K_n exactly when it is
    feasible here.
    """
    seq = validate_sequence(values)
    top = seq[-1]
    slacks = []
    slack = -1  # slack_{n+1}
    for d, prev in zip(reversed(seq), (*seq[-2::-1], 0)):  # k = n down to 1
        rise = d - prev
        if rise != 1:
            e = top - d
            slack += (2 << e) - (1 << (e + rise))
        slacks.append(slack)
    slacks.reverse()
    # the least k with a negative slack: the first negative value, then its first index
    negative = next(filter((0).__gt__, slacks), None)
    first_violation = None if negative is None else slacks.index(negative) + 1
    return FeasibilityReport(
        values=seq,
        slacks=tuple(slacks),
        feasible=first_violation is None,
        first_violation=first_violation,
    )


def min_degree_upper_bound(n: int) -> int:
    """floor(log2 n): every Gallai coloring of K_n has a vertex of color
    degree at most this."""
    require_count(n, 1, "n")
    return n.bit_length() - 1
