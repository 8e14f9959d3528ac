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
and the sums and the division by L add 3 2^m u: 18 covers the resulting
17 m 2^m u with its second-order terms.  That 3 2^m u term needs every sum
exactly rounded, and ``_exact_sum`` returns exactly what math.fsum does.

The arc diagnostics hold every frequency in arrays, tuples and a dict, about
_ARC_BYTES_PER_FREQ bytes each; arc_classify refuses an lcm whose estimate
passes _ARC_BYTE_BUDGET before it allocates anything.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, NumericalInstabilityError, ResourceLimitError
from .rational import SetLike, as_intset, lcm_set

DEFAULT_LCM_BOUND = 10**6
_CHUNK = 1 << 17
_ERROR_C = 18  # the constant of the a-priori error bound, derived in the docstring
_ARC_BYTES_PER_FREQ = 240  # peak tracemalloc bytes per frequency: 232 at L = 720720
_ARC_BYTE_BUDGET = 2**30  # admits L up to 4.4 million, past DEFAULT_LCM_BOUND
_WEIGHT_CAP = 10_000  # to_json_dict lists weights up to this many frequencies, summarizes past it


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

    def to_json_dict(self) -> dict:
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
        if len(self.weights) <= _WEIGHT_CAP:
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


def _h_range(L: int) -> range:
    """The frequencies h in (-L/2, L/2]."""
    return range(-((L - 1) // 2), L // 2 + 1)


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()), the correctly rounded sum of a float64 array, in numpy.

    x is scaled below 2^w by its max binade 2^e and split into three limbs of
    w bits with trunc, which leaves each residual exact (floor does not, on
    tiny negative values); w = 63 - bit_length(len(x)) keeps each limb's sum
    inside int64.  The exact limb total, in units of 2^(e - 3w), misses the
    true sum by less than one unit per element, so it is rounded once and
    returned when total - n and total + n round to the same double.  Undecided
    and zero totals, non-finite values, and max |x| >= 2^1000 or sums that
    could pass 2^1023, where fsum can raise OverflowError, go to math.fsum.
    """
    n = len(x)
    m = float(np.abs(x).max()) if n else 0.0
    e = math.frexp(m)[1]  # m < 2^e
    if not 0.0 < m < 2.0**1000 or e + n.bit_length() > 1023:
        return math.fsum(x.tolist())
    w = 63 - n.bit_length()
    s = np.ldexp(x, w - e)
    total = 0
    for _ in range(2):
        t = np.trunc(s)
        total = (total << w) + int(t.astype(np.int64).sum())
        s -= t
        s *= 2.0**w
    total = (total << w) + int(s.astype(np.int64).sum())  # the cast truncates
    sh = e - 3 * w

    def rounded(units: int) -> float:
        return float(units << sh) if sh >= 0 else units / (1 << -sh)

    value = rounded(total)
    if value != 0.0 and rounded(total - n) == value == rounded(total + n):
        return value
    return math.fsum(x.tolist())


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

    The h-range is processed in fixed-size chunks, each exactly rounded by
    _exact_sum; per-chunk results are combined in chunk order, so the
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
    h = _h_range(L)
    starts = h[::_CHUNK]

    def chunk_sums(start: int) -> tuple[float, float]:
        hs = np.arange(start, min(start + _CHUNK, h.stop), dtype=np.int64)
        prod = _gathered_product(roots, k * hs, np.complex128)
        return _exact_sum(prod.real), _exact_sum(prod.imag)

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(chunk_sums, starts))
    else:
        partials = [chunk_sums(s) for s in starts]
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
    """Classify every nonzero frequency as major or minor and weigh it.

    Raises ResourceLimitError before any work when the lcm's estimated
    memory passes the module's byte budget.
    """
    A = as_intset(A)
    if K < 0:
        raise DomainError("arc radius K must be >= 0")
    L = lcm_set(A)
    if _ARC_BYTES_PER_FREQ * L > _ARC_BYTE_BUDGET:
        raise ResourceLimitError(
            f"arc diagnostics at lcm {L} need about {_ARC_BYTES_PER_FREQ * L} bytes, "
            f"over the {_ARC_BYTE_BUDGET}-byte budget"
        )
    value, rounded = fourier_count(A, k, lcm_bound=lcm_bound, threads=threads)
    h = _h_range(L)
    hs = np.arange(h.start, h.stop, dtype=np.int64)
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
        minor_weight_sum=_exact_sum(weights_arr[~major_mask]),
    )
