r"""Exact combinatorics of the logarithmic word refinement.

Words are strings over the alphabet {1, 2}.  A word of block length is
*controlled* when its fraction of 1-digits strictly exceeds a threshold
alpha; long words of eight blocks are *uncontrolled* exactly when every block
is uncontrolled, so their count is the eighth power of a binomial tail.  All
counting runs in exact integer and rational arithmetic; floating point only
enters when forming the log-ratio diagnostics of the counting bound
|uncontrolled words| <= C h^{-4 sqrt(alpha)}.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

__all__ = [
    "t_ladder",
    "count_uncontrolled",
    "bound_check",
    "split_XY",
]

BLOCKS = 8      # a long word is eight blocks of length T0 (2*T1 = 8*T0)
SLACK = 0.1     # a row is within the counting bound when its ratio <= 4 sqrt(alpha) + SLACK


def _snap_ceil(x: float) -> int:
    """Ceiling that forgives float noise of up to 1e-9 at integer boundaries."""
    r = round(x)
    if abs(x - r) <= 1e-9:
        return int(r)
    return int(math.ceil(x))


def t_ladder(h: float, rho: float) -> tuple[int, int]:
    """(T0, T1) with T0 = ceil((rho/4) log(1/h)) and T1 = 4 T0."""
    if not 0.0 < h < 1.0:
        raise ValueError("need 0 < h < 1")
    if not 0.75 < rho < 1.0:
        raise ValueError("need 3/4 < rho < 1")
    t0 = _snap_ceil((rho / 4.0) * math.log(1.0 / h))
    t0 = max(t0, 1)
    return t0, 4 * t0


def count_uncontrolled(t0: int, alpha) -> int:
    """Number of length-t0 words with 1-fraction at most alpha (exact).

    The controlled set uses a strict inequality, so words sitting exactly on
    the boundary count as uncontrolled.  The tail sum of C(t0, k) over
    k <= floor(alpha t0) runs one exact term: C(t0, k+1) = C(t0, k)(t0-k)/(k+1),
    and the division leaves no remainder.
    """
    if t0 < 1:
        raise ValueError("block length must be positive")
    t0 = operator.index(t0)         # a Python int: a numpy integer would overflow below
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator     # q > 0
    if not 0 < 2 * p < q:
        raise ValueError("alpha must lie in (0, 1/2)")
    kmax = p * t0 // q              # floor(alpha t0), exactly
    term = total = 1                # C(t0, 0)
    for k in range(kmax):
        term = term * (t0 - k) // (k + 1)
        total += term
    return total


def bound_check(rho: float, alpha, h_ladder):
    """Exponent-ratio table for the counting bound along an h-ladder.

    For each h the row carries the exact count of uncontrolled long words
    (the eighth power of the single-block count, since blocks are
    independent), the ratio log(count)/log(1/h), the bound
    4 sqrt(alpha) + SLACK it is compared against, and the implied-constant
    diagnostic log C = log(count) - 4 sqrt(alpha) log(1/h).  A ladder with an
    h so small that 1/h overflows a float (h = 2^-j for j >= 1024) is refused
    before any row is computed.
    """
    h_ladder = list(h_ladder)
    for h in h_ladder:
        if 0 <= h and (h == 0 or math.isinf(1.0 / h)):
            raise ValueError(f"h = {float(h):.17g} underflows: 1/h overflows a float")
    alpha = Fraction(alpha)
    rows = []
    target = 4.0 * math.sqrt(float(alpha))
    for h in h_ladder:
        t0, _ = t_ladder(h, rho)
        cnt = count_uncontrolled(t0, alpha) ** BLOCKS
        log_count = math.log(cnt) if cnt > 1 else 0.0
        log_inv_h = math.log(1.0 / h)
        ratio = log_count / log_inv_h
        rows.append(dict(alpha=float(alpha), rho=rho, h=h, T0=t0,
                         count=cnt, ratio=ratio,
                         logC=log_count - target * log_inv_h,
                         within=ratio <= target + SLACK))
    return rows


def split_XY(t0: int, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Partition all words of length 8*T0 into uncontrolled/controlled sets.

    Words come back as integer codes (vectorized bit arithmetic): a set bit
    is the letter 1, and the lowest bit is the last letter.  Feasible for
    t0 <= 3, where the full population is at most 2^24.
    """
    if t0 > 3:
        raise ValueError("full enumeration supported for t0 <= 3 only")
    alpha = Fraction(alpha)
    block_bits = t0
    total_bits = BLOCKS * t0
    block_uncontrolled = np.zeros(1 << block_bits, dtype=bool)
    for b in range(1 << block_bits):
        ones = bin(b).count("1")
        block_uncontrolled[b] = Fraction(ones, t0) <= alpha
    codes = np.arange(1 << total_bits, dtype=np.uint32)
    in_x = np.ones(codes.shape, dtype=bool)
    mask = (1 << block_bits) - 1
    for blk in range(BLOCKS):
        shift = blk * block_bits
        in_x &= block_uncontrolled[(codes >> shift) & mask]
    return codes[in_x], codes[~in_x]
