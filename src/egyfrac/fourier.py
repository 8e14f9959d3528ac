"""Orthogonality-sum subset counting and frequency-arc diagnostics.

The count of subsets S of A with k * recip_sum(S) integral equals

    (1/L) * sum over h in (-L/2, L/2] of prod over n in A of (1 + e(k h / n))

with L = lcm(A) and e(x) = exp(2 pi i x).  This module evaluates that sum
in floating point (the exact residue DP in the solver module is the
correctness anchor), classifies frequencies h into major and minor arcs
by their distance to multiples of L/k, and reports the damping weights
C(A; h) = prod |cos(pi k h / n)| that control the minor-arc mass.

Factors and weights depend on h only through (k h) mod n, so each element
n gets one table of its n values, gathered per h: sum(A) exp/cos calls in
place of |A| * L.  A count is refused before any product is formed when its
a-priori error bound 18 m 2^m u (u = 2^-53, m = |A|) reaches 1/4: m >= 42.
A table entry 1 + e(j/n) is within 23u of exact (three roundings in the phase,
< 2 pi 3u; 1 ulp in cos and in sin; one in adding 1.0), a complex product adds
relative error sqrt(5)u, so m factors of modulus <= 2 are off by < 13.8 m 2^m u,
and the exactly rounded sums and the division by L add 3 2^m u: 18 covers the
resulting 17 m 2^m u with its second-order terms.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import DomainError, NumericalInstabilityError, ResourceLimitError
from .rational import IntSet, SetLike, as_intset, lcm_set
from .sieve import FactorTable
from .decomposition import ppowers_in_set, subset_aq

DEFAULT_LCM_BOUND = 10**6
_CHUNK = 1 << 17
_ERROR_C = 18  # the constant of the a-priori error bound, derived in the docstring


@dataclass(frozen=True)
class ArcDiagnostics:
    """Full frequency classification for one (A, k, K) instance.

    Frequencies run over J = (-L/2, L/2] excluding 0; h is major when
    |h - t*L/k| <= K/(2k) for some integer t, otherwise minor.  weights
    maps every h in J to C(A; h).
    """

    L: int
    k: int
    K: float
    major_hs: tuple[int, ...]
    minor_hs: tuple[int, ...]
    weights: Mapping[int, float]
    fourier_value: float
    rounded: int
    minor_weight_sum: float

    def to_json_dict(self, *, weight_cap: int = 10_000) -> dict:
        d = {
            "L": self.L,
            "k": self.k,
            "K": self.K,
            "major_hs": list(self.major_hs),
            "minor_hs": list(self.minor_hs),
            "fourier_value": self.fourier_value,
            "rounded": self.rounded,
            "minor_weight_sum": self.minor_weight_sum,
        }
        if len(self.weights) <= weight_cap:
            d["weights"] = {str(h): w for h, w in self.weights.items()}
        else:
            ws = np.fromiter(self.weights.values(), dtype=float)
            d["weights_summary"] = {
                "count": len(ws),
                "max": float(ws.max()),
                "mean": float(ws.mean()),
                "sum": float(ws.sum()),
            }
        return d


@dataclass(frozen=True)
class IntervalReport:
    """Divisibility coverage of one integer interval by a set A."""

    interval: tuple[int, int]
    nondividing_count: int
    D_I: IntSet
    common_x: Optional[int]


def _h_values(L: int) -> np.ndarray:
    return np.arange(-((L - 1) // 2), L // 2 + 1, dtype=np.int64)


def _cos_table(n: int) -> np.ndarray:
    """|cos(pi j / n)| at j = min(i, n - i) for i < n, and 0 where 2j = n."""
    j = np.minimum(np.arange(n), n - np.arange(n))
    return np.where(2 * j == n, 0.0, np.abs(np.cos(np.pi * j / n)))


def _gathered_product(tables: list[np.ndarray], kh: np.ndarray, dtype) -> np.ndarray:
    """Product over the tables t of t[kh mod len(t)], elementwise in kh."""
    prod = np.ones(len(kh), dtype=dtype)
    for table in tables:
        prod *= table[kh % len(table)]
    return prod


def orthogonality_sum(
    A: SetLike,
    k: int,
    *,
    lcm_bound: int = DEFAULT_LCM_BOUND,
    threads: int = 1,
) -> tuple[float, float, int]:
    """Evaluate the orthogonality sum; returns (real part, imag part, L).

    The h-range is processed in fixed-size chunks, each summed with
    math.fsum; per-chunk results are combined in chunk order, so the
    value does not depend on the number of worker threads.
    """
    A = as_intset(A)
    if k < 1:
        raise DomainError("k must be a positive integer")
    L = lcm_set(A)
    if L > lcm_bound:
        raise ResourceLimitError(f"lcm {L} exceeds the configured bound {lcm_bound}")
    if k * L > 2**62:
        raise ResourceLimitError("k * lcm too large for exact 64-bit phase reduction")
    roots = [1.0 + np.exp((2j * np.pi) * (np.arange(n) / n)) for n in A]  # 1 + e(j/n), j < n
    hs = _h_values(L)
    chunks = [hs[i : i + _CHUNK] for i in range(0, len(hs), _CHUNK)]

    def chunk_sums(chunk: np.ndarray) -> tuple[float, float]:
        prod = _gathered_product(roots, k * chunk, np.complex128)
        return math.fsum(prod.real.tolist()), math.fsum(prod.imag.tolist())

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(chunk_sums, chunks))
    else:
        partials = [chunk_sums(c) for c in chunks]
    return math.fsum(p[0] for p in partials), math.fsum(p[1] for p in partials), L


def fourier_count(
    A: SetLike,
    k: int,
    *,
    lcm_bound: int = DEFAULT_LCM_BOUND,
    threads: int = 1,
) -> tuple[float, int]:
    """Count subsets with integral k * recip_sum via the orthogonality sum.

    Returns (value, rounded).  Raises NumericalInstabilityError before summing
    when the a-priori error bound reaches 1/4 (|A| >= 42), and after it unless
    the value is within 0.25 of an integer and the imaginary part of 0.
    """
    A = as_intset(A)
    m = len(A)
    if _ERROR_C * m * 2**m >= 2**51:  # the bound reaches 1/4 = 2^51 u
        raise NumericalInstabilityError(f"{m} elements: float error bound {_ERROR_C}*{m}*2^({m}-53) >= 1/4")
    re, im, L = orthogonality_sum(A, k, lcm_bound=lcm_bound, threads=threads)
    value = re / L
    rounded = round(value)
    if abs(value - rounded) > 0.25 or abs(im / L) > 0.25:
        raise NumericalInstabilityError(f"orthogonality sum {value!r} (imag {im / L!r}) is not an integer")
    return value, rounded


def cosine_weight(B: SetLike, k: int, h: int) -> float:
    """The damping weight C(B; h) = prod over n in B of |cos(pi k h / n)|."""
    B = as_intset(B)
    prod = 1.0
    for n in B:
        r = (k * h) % n
        r = min(r, n - r)
        if 2 * r == n:
            return 0.0
        prod *= abs(math.cos(math.pi * r / n))
    return prod


def arc_classify(
    A: SetLike,
    k: int,
    K: float,
    *,
    lcm_bound: int = DEFAULT_LCM_BOUND,
    threads: int = 1,
) -> ArcDiagnostics:
    """Classify every nonzero frequency as major or minor and weigh it."""
    A = as_intset(A)
    if K < 0:
        raise DomainError("arc radius K must be >= 0")
    value, rounded = fourier_count(A, k, lcm_bound=lcm_bound, threads=threads)
    L = lcm_set(A)
    hs = _h_values(L)
    hs = hs[hs != 0]
    kh = k * hs
    # distance from k*h to the nearest multiple of L, exactly in integers
    r = kh % L
    major_mask = 2 * np.minimum(r, L - r) <= K
    weights_arr = _gathered_product([_cos_table(n) for n in A], kh, np.float64)
    return ArcDiagnostics(
        L=L,
        k=k,
        K=K,
        major_hs=tuple(hs[major_mask].tolist()),
        minor_hs=tuple(hs[~major_mask].tolist()),
        weights=dict(zip(hs.tolist(), weights_arr.tolist())),
        fourier_value=value,
        rounded=rounded,
        minor_weight_sum=math.fsum(weights_arr[~major_mask].tolist()),
    )


def interval_coverage(
    A: SetLike,
    I: tuple[int, int],
    eta,
    M,
    t: FactorTable,
) -> IntervalReport:
    """Measure how well multiples of A cover the interval I = (start, length).

    nondividing_count is the number of n in A dividing no element of I.
    D_I collects the prime powers q whose class is almost fully dividing
    (fewer than eta*M/q members fail), and common_x is the smallest
    element of I divisible by every q in D_I, if one exists.
    """
    A = as_intset(A)
    start, length = I
    if length < 1:
        raise DomainError("interval must be nonempty")
    if start < 1:
        raise DomainError("interval must start at a positive integer")
    end = start + length - 1

    def divides_some(n: int) -> bool:
        return (end // n) * n >= start

    nondividing = sum(1 for n in A if not divides_some(n))
    qs = ppowers_in_set(A, t)
    D = []
    for q in qs:
        misses = sum(1 for n in subset_aq(A, q, t) if not divides_some(n))
        if misses * q < eta * M:
            D.append(q)
    X = math.lcm(*D) if D else 1
    x0 = ((start + X - 1) // X) * X
    common_x = x0 if x0 <= end else None
    return IntervalReport(
        interval=(start, length),
        nondividing_count=nondividing,
        D_I=IntSet(D),
        common_x=common_x,
    )
