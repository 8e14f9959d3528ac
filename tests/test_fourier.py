import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import egyfrac.fourier
from egyfrac import (
    DomainError,
    IntSet,
    NumericalInstabilityError,
    ResourceLimitError,
    arc_classify,
    cosine_weight,
    count_integral,
    fourier_count,
    lcm_set,
    orthogonality_sum,
    recip_sum,
)
from helpers import divisors_above_one, random_lcm_capped_set


def test_fourier_count_examples():
    value, rounded = fourier_count([2, 3, 6], 1)
    assert rounded == 2 == count_integral([2, 3, 6], 1)
    assert value == pytest.approx(2, abs=1e-9)
    _, rounded = fourier_count([2, 3], 1)
    assert rounded == 1
    _, rounded = fourier_count([], 1)
    assert rounded == 1


def test_fourier_count_matches_dp_oracle():
    rng = random.Random(41)
    for _ in range(30):
        A = random_lcm_capped_set(rng, 2, 60, 16, 10**5)
        k = rng.choice([1, 2, 3])
        value, rounded = fourier_count(A, k)
        assert rounded == count_integral(A, k), (A, k, value)
        _, imag, _ = orthogonality_sum(A, k)
        assert abs(imag) <= 1e-6 * 2 ** len(A), (A, k, imag)


def test_fourier_threads_deterministic():
    A = random_lcm_capped_set(random.Random(42), 2, 60, 16, 10**6)
    r1 = orthogonality_sum(A, 2, threads=1)
    r4 = orthogonality_sum(A, 2, threads=4)
    assert r1 == r4


def test_fourier_refuses_counts_beyond_float_precision():
    # the 70 smallest divisors of 55440 have 21295621930005136 subsets with an
    # integral reciprocal sum, beyond 2^53: summed in floats it rounds to ...132
    with pytest.raises(NumericalInstabilityError):
        fourier_count(divisors_above_one(55440)[:70], 1)
    with pytest.raises(NumericalInstabilityError):
        arc_classify(divisors_above_one(55440)[:70], 1, 1.0)


def test_fourier_refuses_before_forming_products(monkeypatch):
    def kernel_called(*args, **kwargs):
        raise AssertionError("the product kernel ran on a set the error bound refuses")

    monkeypatch.setattr(egyfrac.fourier, "_gathered_product", kernel_called)
    with pytest.raises(NumericalInstabilityError):
        fourier_count(divisors_above_one(720720)[:80], 1)
    with pytest.raises(NumericalInstabilityError):
        arc_classify(divisors_above_one(720720)[:80], 1, 1.0)


def test_arc_classify_refuses_over_byte_budget_before_forming_products(monkeypatch):
    def kernel_called(*args, **kwargs):
        raise AssertionError("the product kernel ran on an lcm over the byte budget")

    monkeypatch.setattr(egyfrac.fourier, "_gathered_product", kernel_called)
    # lcm 9699690: its diagnostics would take some 2.3 GB, so no product may be formed
    with pytest.raises(ResourceLimitError, match="byte budget"):
        arc_classify([2, 3, 5, 7, 11, 13, 17, 19], 1, 1.0, lcm_bound=10**7)
    f = egyfrac.fourier
    assert f._ARC_BYTES_PER_FREQ * f.DEFAULT_LCM_BOUND <= f._ARC_BYTE_BUDGET


def _sum_outcome(sum_fn, x):
    """float.hex of the sum, or the class of the error it raised."""
    try:
        return sum_fn(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_sums_like_fsum(x):
    want = _sum_outcome(lambda a: math.fsum(a.tolist()), x)
    assert _sum_outcome(egyfrac.fourier._exact_sum, x) == want, x


def _scaled_floats(lo, hi):
    """Floats m * 2^e with m in [-1, 1] and e in [lo, hi]; below e = -1021 they go subnormal."""
    return st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(lo, hi))


@pytest.mark.parametrize(
    "lo,hi",
    [(-150, 100), (-1100, -1000), (950, 1023), (-1100, 1023)],
    ids=["250-binades", "subnormal", "near-overflow", "full-range"],
)
@given(data=st.data())
def test_exact_sum_matches_fsum_bitwise(lo, hi, data):
    x = data.draw(hnp.arrays(np.float64, st.integers(0, 40), elements=_scaled_floats(lo, hi)))
    _assert_sums_like_fsum(x)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, egyfrac.fourier._CHUNK]))
def test_exact_sum_matches_fsum_at_chunk_lengths(seed, n):
    rng = np.random.default_rng(seed)
    _assert_sums_like_fsum(np.ldexp(rng.standard_normal(n), rng.integers(-150, 100, n)))


@given(hnp.arrays(np.float64, st.integers(0, 40), elements=_scaled_floats(-60, 60)), _scaled_floats(-1100, -60))
def test_exact_sum_cancellation(a, residue):
    x = np.concatenate([a, [residue], -a[::-1]])
    _assert_sums_like_fsum(x)
    assert egyfrac.fourier._exact_sum(x) == residue
    assert egyfrac.fourier._exact_sum(np.full(len(a), -0.0)).hex() == "0x0.0p+0"


@given(hnp.arrays(np.float64, st.integers(1, 8),
                  elements=st.sampled_from([math.inf, -math.inf, math.nan, 1.0, -2.5, 2.0**1000, 2.0**1023])))
def test_exact_sum_non_finite_and_overflow(x):
    _assert_sums_like_fsum(x)


def test_exact_sum_falls_back_only_when_rounding_is_undecided(monkeypatch):
    fsum = math.fsum
    calls = []
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    x = np.random.default_rng(0).standard_normal(1000)
    assert egyfrac.fourier._exact_sum(x) == fsum(x.tolist()) and not calls
    # 1 + 2^-53 is a tie, and the limb total's one-unit tail bound straddles it
    assert egyfrac.fourier._exact_sum(np.array([1.0, 2.0**-53])) == 1.0 and calls


def _reference_sum(A, k):
    """The orthogonality sum with one complex exp per element and frequency."""
    L = lcm_set(A)
    hs = np.arange(-((L - 1) // 2), L // 2 + 1, dtype=np.int64)
    partials = []
    for i in range(0, len(hs), egyfrac.fourier._CHUNK):
        chunk = hs[i : i + egyfrac.fourier._CHUNK]
        prod = np.ones(len(chunk), dtype=np.complex128)
        for n in A:
            prod *= 1.0 + np.exp((2j * np.pi) * (((k * chunk) % n) / n))
        partials.append((math.fsum(prod.real), math.fsum(prod.imag)))
    return math.fsum(p[0] for p in partials), math.fsum(p[1] for p in partials), L


def _reference_weights(A, k):
    """C(A; h) for every nonzero frequency, one cosine per element and frequency."""
    L = lcm_set(A)
    hs = np.arange(-((L - 1) // 2), L // 2 + 1, dtype=np.int64)
    hs = hs[hs != 0]
    weights = np.ones(len(hs))
    for n in A:
        rn = (k * hs) % n
        rn = np.minimum(rn, n - rn)
        factor = np.abs(np.cos(np.pi * rn / n))
        factor[2 * rn == n] = 0.0
        weights *= factor
    return {int(h): float(w) for h, w in zip(hs, weights)}


def test_table_kernel_matches_per_frequency_formula_bitwise():
    rng = random.Random(47)
    for i in range(20):
        # two sets span several chunks, so the threaded path is pinned too
        cap = 4 * 10**5 if i < 2 else 2 * 10**4
        A = random_lcm_capped_set(rng, 2, 80, 16, cap)
        k = rng.choice([1, 2, 3])
        want = _reference_sum(A, k)
        assert orthogonality_sum(A, k, threads=1) == want, (A, k)
        assert orthogonality_sum(A, k, threads=2) == want, (A, k)
        if want[2] <= 2 * 10**4:
            assert arc_classify(A, k, 2.0).weights == _reference_weights(A, k), (A, k)


def test_fourier_resource_error():
    primes = [101, 103, 107, 109, 113, 127]
    with pytest.raises(ResourceLimitError):
        fourier_count(primes, 1)
    with pytest.raises(DomainError):
        fourier_count([2, 3], 0)


def test_cosine_weight_examples():
    assert cosine_weight([5, 7, 9], 3, 0) == 1.0
    assert cosine_weight([2], 1, 1) == 0.0
    assert cosine_weight([3], 1, 1) == pytest.approx(0.5, abs=1e-12)


def test_cosine_weight_in_unit_interval_and_symmetric():
    rng = random.Random(43)
    for _ in range(200):
        B = IntSet(rng.sample(range(2, 300), rng.randint(1, 10)))
        k = rng.randint(1, 5)
        h = rng.randint(-1000, 1000)
        w = cosine_weight(B, k, h)
        assert 0.0 <= w <= 1.0
        assert w == cosine_weight(B, k, -h)


def test_cosine_weight_exponential_bound():
    rng = random.Random(44)
    for _ in range(500):
        B = IntSet(rng.sample(range(2, 300), rng.randint(1, 10)))
        k = rng.randint(1, 5)
        h = rng.randint(-1000, 1000)
        exponent = 0.0
        for n in B:
            hn = (k * h) % n
            hn = min(hn, n - hn)
            exponent += (hn / n) ** 2
        assert cosine_weight(B, k, h) <= math.exp(-exponent) + 1e-12


def test_arc_classify_examples():
    d = arc_classify([2, 3, 6], 1, 2)
    assert d.L == 6 and d.k == 1
    assert set(d.major_hs) == {-1, 1}
    assert set(d.minor_hs) == {-2, 2, 3}
    assert set(d.weights) == {-2, -1, 1, 2, 3}
    assert d.rounded == 2
    d = arc_classify([2], 1, 2)
    assert set(d.major_hs) == {1} and not d.minor_hs
    d = arc_classify([2, 3, 6], 1, 0)
    assert not d.major_hs
    assert set(d.minor_hs) == {-2, -1, 1, 2, 3}


def test_arc_cover_and_weights():
    rng = random.Random(45)
    for _ in range(20):
        A = random_lcm_capped_set(rng, 2, 40, 8, 2000)
        k = rng.choice([1, 2, 3])
        K = rng.choice([0.0, 1.0, 2.0, 5.0])
        d = arc_classify(A, k, K)
        L = lcm_set(A)
        J = {h for h in range(-(L // 2) + (1 if L % 2 == 0 else 0), L // 2 + 1)} - {0}
        assert set(d.major_hs) | set(d.minor_hs) == J
        assert not set(d.major_hs) & set(d.minor_hs)
        for h in d.major_hs:
            dist = min((k * h) % L, L - (k * h) % L)
            assert 2 * dist <= K
        for h, w in d.weights.items():
            assert 0.0 <= w <= 1.0
            assert w == pytest.approx(cosine_weight(A, k, h), abs=1e-12)
        assert d.minor_weight_sum == pytest.approx(
            sum(d.weights[h] for h in d.minor_hs), abs=1e-9
        )


def test_major_arc_contribution_nonnegative():
    # instances satisfying the positivity hypotheses: recip_sum(A) just
    # below 2/k, k divides lcm(A), arc radius at most min(A)/2
    cases = [
        (IntSet([2, 3, 7]), 2),       # 41/42 in [1 - 1/2, 1)
        (IntSet([3, 4, 5, 6]), 2),    # 19/20 in [1 - 1/3, 1)
        (IntSet([2, 3, 7, 43]), 2),   # 1805/1806 in [1 - 1/2, 1)
        (IntSet([5, 6, 8]), 3),       # 59/120 in [2/3 - 1/5, 2/3)
    ]
    for A, k in cases:
        M = min(A)
        assert Fraction(2, k) - Fraction(1, M) <= recip_sum(A) < Fraction(2, k)
        assert lcm_set(A) % k == 0
        d = arc_classify(A, k, M / 2)
        total = 0.0
        L = d.L
        for h in d.major_hs:
            prod = complex(1, 0)
            for n in A:
                theta = ((k * h) % n) / n
                prod *= 1 + complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
            total += prod.real
        assert total >= -1e-9 * (2 ** len(A)), (A, k, total)
