"""Orthogonality-sum subset counting and frequency-arc diagnostics.

The count of subsets S of A with k * recip_sum(S) integral equals

    (1/L) * sum over h in (-L/2, L/2] of prod over n in A of (1 + e(k h / n))

with L = lcm(A) and e(x) = exp(2 pi i x).  This module evaluates that sum
in floating point (the exact residue DP in the solver module is the
correctness anchor), classifies frequencies h into major and minor arcs
by their distance to multiples of L/k, and reports the damping weights
C(A; h) = prod |cos(pi k h / n)| that control the minor-arc mass.

Factors and weights depend on h only through (k h) mod n, so each element
n gets one table of its n values, all built in one vectorized pass: sum(A)
exp/cos calls in place of |A| * L.  Every n divides L, so k is read mod L,
and any k >= 1 is answered.  The product of the first j tables is
periodic in h with period lcm(n_1..n_j), so _gathered_product forms it over
min(lcm(n_1..n_j), chunk) entries of one chunk-length buffer, copied forward
in place as the period grows, and multiplies each table in as one rotated row,
all rows taken by one gather: sum over j of min(lcm(n_1..n_j), chunk)
multiplies per chunk, and no modulo over h.  One walk, _walk, forms the chunks'
products in order on the calling thread: the count walks the root tables, and
arc_classify's weights walk the cosine tables on the same phases.
A count is refused before any product is formed when its
a-priori error bound 18 m 2^m u (u = 2^-53, m = |A|) reaches 1/4: m >= 42.
A table entry 1 + e(j/n) is within 23u of exact (three roundings in the phase,
< 2 pi 3u; 1 ulp in cos and in sin; one in adding 1.0), a complex product adds
relative error sqrt(5)u, so m factors of modulus <= 2 are off by < 13.8 m 2^m u,
and the sums and the division by L add 3 2^m u: 18 covers the resulting
17 m 2^m u with its second-order terms.  That 3 2^m u term needs every sum
exactly rounded, and ``_exact_sum`` returns exactly what math.fsum does.
The count sums only the real part of each chunk.  The exact sum is L times a
count, so its imaginary part is 0, and the same bound holds for each
product's imaginary part and for the imaginary sum: the computed imaginary
part over L is below 17 m 2^m u < 1/4 wherever the count is admitted, and a
test of it could never refuse.

The arc diagnostics hold the major-arc mask and the weights as two numpy
arrays, 9 bytes a frequency; their accessors rebuild the frequencies from L
and build their tuples and dict only when read, and their JSON lists each arc
as an inclusive run [lo, hi] of h.  Memory grows with sum(A) as well as with
L: a call peaks (tracemalloc) at about 57 bytes a table entry (the phase
tables, the root table and one gather's indices and rows) plus 33 bytes a
frequency (arc_classify's mask, weights and the minor weights' scaled copy).
The 41 largest divisors of 720720 (sum 2,946,340) peak at 159.4 MiB, 56.7
bytes an entry, and small divisors of 27720 to 720720 at 33.0 to 33.3 bytes a
frequency.  _LCM_BOUND = 10^6, which every entry point checks before it
builds any table or array, holds the frequency term near 33 MB.  The check
folds the lcm 64 elements at a time and stops once it passes max(2^64,
_LCM_BOUND), so a set whose lcm runs to thousands of digits is refused at the
cost of a few folds, with a message that gives its bit length so far.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DomainError, NumericalInstabilityError, ResourceLimitError
from .rational import IntSet, SetLike, as_intset, positive_k

_LCM_BOUND = 10**6
_CHUNK = 1 << 17
_ERROR_C = 18  # the constant of the a-priori error bound, derived in the docstring
_WEIGHT_CAP = 10_000  # to_json_dict lists weights up to this many frequencies, summarizes past it


@dataclass(frozen=True)
class ArcDiagnostics:
    """Full frequency classification for one (A, k, K) instance.

    Frequencies run over J = (-L/2, L/2] excluding 0; h is major when
    |h - t*L/k| <= K/(2k) for some integer t, otherwise minor.  Over J in
    ascending order, major_mask marks the major frequencies and weight_array
    holds C(A; h) for each; the two arrays are read-only.  major_hs,
    minor_hs and weights give them as Python tuples and a dict, with J
    rebuilt from L, on first access.  Equality compares the arrays with
    np.array_equal; the hash leaves them out.
    """

    L: int
    k: int
    K: float
    fourier_value: float
    rounded: int
    minor_weight_sum: float
    major_mask: np.ndarray = field(repr=False, hash=False)
    weight_array: np.ndarray = field(repr=False, hash=False)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @cached_property
    def major_hs(self) -> tuple[int, ...]:
        return tuple(_frequencies(self.L)[self.major_mask].tolist())

    @cached_property
    def minor_hs(self) -> tuple[int, ...]:
        return tuple(_frequencies(self.L)[~self.major_mask].tolist())

    @cached_property
    def weights(self) -> dict[int, float]:
        """C(A; h) for every h in J."""
        return dict(zip(_frequencies(self.L).tolist(), self.weight_array.tolist()))

    def to_json_dict(self) -> dict:
        start = _h_range(self.L).start
        d = {
            "L": self.L,
            "k": self.k,
            "K": self.K,
            "major_arcs": _runs(self.major_mask, start),
            "minor_arcs": _runs(~self.major_mask, start),
            "fourier_value": self.fourier_value,
            "rounded": self.rounded,
            "minor_weight_sum": self.minor_weight_sum,
        }
        ws = self.weight_array
        if len(ws) <= _WEIGHT_CAP:
            d["weights"] = {str(h): w for h, w in self.weights.items()}
        else:
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


def _frequencies(L: int) -> np.ndarray:
    """J, the h in (-L/2, L/2] without 0, ascending, as int64."""
    h = _h_range(L)
    hs = np.arange(h.start, h.stop - 1, dtype=np.int64)
    hs[-h.start :] += 1
    return hs


def _runs(mask: np.ndarray, start: int) -> list[list[int]]:
    """The maximal runs [lo, hi] of consecutive h in J where mask is set, ascending.

    mask runs over J = start .. L/2 without 0.  A False put in 0's place splits
    a run that would hold 0, and np.diff then marks every run's two edges."""
    full = np.insert(mask, -start, False)  # over h = start .. L/2, 0 included
    edges = np.flatnonzero(np.diff(full, prepend=False, append=False)) + start
    return np.column_stack((edges[0::2], edges[1::2] - 1)).tolist()


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()), the correctly rounded sum of a float64 array, in numpy.

    x is scaled below 2^w by its max binade 2^e and split into up to three
    limbs of w bits with trunc, which leaves each residual exact (floor does
    not, on tiny negative values) and below one unit of its limb; w = 63 -
    bit_length(len(x)) keeps each limb's sum inside int64.  After limb i the
    exact limb total, in units of 2^(e - i w), thus misses the true sum by
    less than one unit per element: it is rounded once and returned as soon
    as total - n and total + n round to the same double, and the next limb is
    split off only when they do not.  Totals still undecided or zero after the
    third limb, non-finite values, and max |x| >= 2^1000 or sums that could
    pass 2^1023, where fsum can raise OverflowError, go to math.fsum.
    """
    n = len(x)
    m = float(np.abs(x).max()) if n else 0.0
    e = math.frexp(m)[1]  # m < 2^e
    if not 0.0 < m < 2.0**1000 or e + n.bit_length() > 1023:
        return math.fsum(x.tolist())
    w = 63 - n.bit_length()
    s = np.ldexp(x, w - e)
    total = 0
    for limb in (1, 2, 3):
        total = (total << w) + int(s.astype(np.int64).sum())  # the cast truncates
        sh = e - limb * w
        value = _scaled_int(total, sh)
        if value != 0.0 and _scaled_int(total - n, sh) == value == _scaled_int(total + n, sh):
            return value
        s -= np.trunc(s)
        s *= 2.0**w
    return math.fsum(x.tolist())


def _scaled_int(units: int, sh: int) -> float:
    """units * 2^sh, correctly rounded."""
    return float(units << sh) if sh >= 0 else units / (1 << -sh)


def _checked_lcm(A: IntSet) -> int:
    """lcm(A), refused past _LCM_BOUND before any table or array is built.
    Folding stops past max(2^64, _LCM_BOUND), and the message then gives the size."""
    elems, cap = A.elements, max(2**64, _LCM_BOUND)
    L = math.lcm(*elems[:64])
    for i in range(64, len(elems), 64):
        if L > cap:
            break
        L = math.lcm(L, *elems[i : i + 64])
    if L > _LCM_BOUND:
        size = L if L <= cap else f"of at least {L.bit_length()} bits"
        raise ResourceLimitError(f"lcm {size} exceeds bound {_LCM_BOUND}")
    return L


def _phase_tables(A: IntSet) -> tuple[np.ndarray, np.ndarray]:
    """j and n of every table entry: j = 0 .. n - 1 for each n in A, stacked in A's order."""
    ns = np.fromiter(A, dtype=np.int64, count=len(A))
    n = np.repeat(ns, ns)
    return np.arange(len(n)) - np.repeat(np.cumsum(ns) - ns, ns), n


def _gathered_product(
    tables: np.ndarray, phases: tuple[np.ndarray, np.ndarray], A: IntSet, k: int, start: int, length: int
) -> np.ndarray:
    """Product over n in A of t_n[(k h) mod n] at h = start .. start + length - 1.

    t_n is n's table, the next n entries of tables in A's order, phases is
    _phase_tables(A), and length is at most lcm(A), so the last product spans
    all length entries.  One gather takes every table's rotated row
    t_n[(k (start + j)) mod n], j < n.  The product of the first i tables has
    period m = lcm(n_1..n_i) in h, so it is held over the first min(m, length)
    entries of one length-entry buffer, and copied forward in place as m
    grows.  Each row is multiplied into a (q, n) view of the product plus an
    r-entry tail.  Every entry gets the same factors in the same order as a
    product formed per h.
    """
    j, ns = phases
    rows = tables[(k * (start + j)) % ns + (np.arange(len(j)) - j)]
    buf = np.empty(length, dtype=tables.dtype)
    buf[0] = 1
    m, size, offset = 1, 1, 0
    for n in A:
        m = math.lcm(m, n)
        grown = min(m, length)
        while size < grown:  # doubling: until the last copy, size is a whole number of periods
            step = min(size, grown - size)
            buf[size : size + step] = buf[:step]
            size += step
        row = rows[offset : offset + n]
        q, r = divmod(size, n)
        if q:
            block = buf[: q * n].reshape(q, n)  # a view: buf is contiguous
            block *= row
        if r:
            buf[q * n : size] *= row[:r]
        offset += n
    return buf[:size]


def _walk(tables: np.ndarray, phases: tuple[np.ndarray, np.ndarray], A: IntSet, k: int, L: int) -> Iterator[np.ndarray]:
    """_gathered_product over h in (-L/2, L/2], one _CHUNK-long piece at a time, in order."""
    h = _h_range(L)
    for start in h[::_CHUNK]:
        yield _gathered_product(tables, phases, A, k, start, min(_CHUNK, h.stop - start))


def _admit(A: IntSet, k) -> tuple[int, int]:
    """k and lcm(A).  Both entry points refuse in this one order, before any table
    is built: k, then the lcm, then a count whose a-priori error bound reaches 1/4."""
    k = positive_k(k)
    L = _checked_lcm(A)
    m = len(A)
    if _ERROR_C * m * 2**m >= 2**51:  # the bound reaches 1/4 = 2^51 u
        raise NumericalInstabilityError(f"{m} elements: float error bound {_ERROR_C}*{m}*2^({m}-53) >= 1/4")
    return k, L


def _count(A: IntSet, k: int, L: int) -> tuple[int, tuple[np.ndarray, np.ndarray], float, int]:
    """k mod L (k enters only through (k h) mod n, and n divides L = lcm(A)), the
    phase tables, and the count: the real parts' sum over L and its nearest integer."""
    kr = k % L
    if kr * L > 2**62:
        raise ResourceLimitError("k * lcm too large for exact 64-bit phase reduction")
    phases = num, den = _phase_tables(A)
    roots = 1.0 + np.exp((2j * np.pi) * (num / den))  # 1 + e(j/n)
    value = math.fsum(_exact_sum(prod.real) for prod in _walk(roots, phases, A, kr, L)) / L
    rounded = round(value)
    if abs(value - rounded) > 0.25:
        raise NumericalInstabilityError(f"orthogonality sum {value!r} is not an integer")
    return kr, phases, value, rounded


def fourier_count(A: SetLike, k: int) -> tuple[float, int]:
    """Count subsets with integral k * recip_sum via the orthogonality sum.

    Returns (value, rounded).  Refuses k, then the lcm, then a set too large
    to certify, before summing: NumericalInstabilityError when the a-priori
    error bound reaches 1/4 (|A| >= 42), and after summing unless the value
    is within 0.25 of an integer.  Only the real part is summed: the module
    docstring shows the imaginary part's bound.
    """
    A = as_intset(A)
    _, _, value, rounded = _count(A, *_admit(A, k))
    return value, rounded


def arc_classify(A: SetLike, k: int, K: float) -> ArcDiagnostics:
    """Classify every nonzero frequency as major or minor and weigh it.

    Checks K, then refuses as fourier_count does and in its order (k, the
    lcm, then a set too large to certify), before any work.  The mask and
    the weights read k mod L, as the count does; the result keeps k.
    """
    A = as_intset(A)
    if not 0 <= K < math.inf:  # NaN would make every frequency minor, inf every one major and K non-JSON
        raise DomainError(f"arc radius K must be finite and >= 0, got {K!r}")
    k, L = _admit(A, k)
    kr, phases, value, rounded = _count(A, k, L)
    # k*h mod L over J, exactly in integers; 2 min(r, L - r) <= K iff min(r, L - r) <= floor(K) // 2
    r = _frequencies(L)
    r *= kr
    r %= L
    reach = min(math.floor(K) // 2, L)
    major_mask = r <= reach
    major_mask |= r >= L - reach
    del r
    num, den = phases
    fold = np.minimum(num, den - num)
    cosines = np.where(2 * fold == den, 0.0, np.abs(np.cos(np.pi * fold / den)))  # |cos(pi j / n)|, 0 where 2j = n
    chunks = _walk(cosines, phases, A, kr, L)
    weight_array = np.delete(np.concatenate(list(chunks)), -_h_range(L).start)  # h = 0 left out
    for a in (major_mask, weight_array):
        a.flags.writeable = False
    return ArcDiagnostics(
        L=L,
        k=k,
        K=K,
        fourier_value=value,
        rounded=rounded,
        minor_weight_sum=_exact_sum(weight_array[~major_mask]),
        major_mask=major_mask,
        weight_array=weight_array,
    )
