import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import egyfrac.fourier
import egyfrac.solver
from egyfrac import (
    DomainError,
    IntSet,
    NumericalInstabilityError,
    ResourceLimitError,
    arc_classify,
    count_integral,
    fourier_count,
    recip_sum,
)
from helpers import cosine_weight, divisors_above_one, random_lcm_capped_set


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
    # the error bound's edge: 41 elements are admitted
    A = divisors_above_one(720720)[:41]
    assert math.lcm(*A) == 720720
    _, rounded = fourier_count(A, 1)
    assert rounded == count_integral(A, 1)


def test_fourier_refuses_counts_beyond_float_precision():
    # the 70 smallest divisors of 55440 have 21295621930005136 subsets with an
    # integral reciprocal sum, beyond 2^53: summed in floats it rounds to ...132
    with pytest.raises(NumericalInstabilityError):
        fourier_count(divisors_above_one(55440)[:70], 1)
    with pytest.raises(NumericalInstabilityError):
        arc_classify(divisors_above_one(55440)[:70], 1, 1.0)


def _forbid_kernel(monkeypatch):
    def kernel_called(*args, **kwargs):
        raise AssertionError("the product kernel ran on a set that must be refused")

    monkeypatch.setattr(egyfrac.fourier, "_gathered_product", kernel_called)


def test_fourier_refuses_before_forming_products(monkeypatch):
    _forbid_kernel(monkeypatch)
    with pytest.raises(NumericalInstabilityError):
        fourier_count(divisors_above_one(720720)[:80], 1)
    with pytest.raises(NumericalInstabilityError):
        arc_classify(divisors_above_one(720720)[:80], 1, 1.0)


def test_arc_classify_refuses_over_byte_budget_before_forming_products(monkeypatch):
    _forbid_kernel(monkeypatch)
    # lcm 9699690, past the lcm bound: its diagnostics would take some 320 MB, so no product may be formed
    with pytest.raises(ResourceLimitError, match="exceeds bound"):
        arc_classify([2, 3, 5, 7, 11, 13, 17, 19], 1, 1.0)


def test_every_entry_point_refuses_past_the_lcm_bound_before_forming_products(monkeypatch):
    # the bound is read at call time; set below lcm(2, 3, 6) = 6, it refuses both entry points
    _forbid_kernel(monkeypatch)
    monkeypatch.setattr(egyfrac.fourier, "_LCM_BOUND", 5)
    for call in (fourier_count, lambda A, k: arc_classify(A, k, 1.0)):
        with pytest.raises(ResourceLimitError, match="^lcm 6 exceeds bound 5$"):
            call([2, 3, 6], 1)
    # arc_classify checks the lcm before the float error bound refuses 80 elements
    monkeypatch.setattr(egyfrac.fourier, "_LCM_BOUND", 10**5)
    with pytest.raises(ResourceLimitError, match="^lcm 720720 exceeds bound 100000$"):
        arc_classify(divisors_above_one(720720)[:80], 1, 1.0)


def test_both_entry_points_refuse_k_then_the_lcm_then_the_error_bound(monkeypatch):
    # 2..99 fails all three checks, the 80 smallest divisors of 720720 only the error bound
    _forbid_kernel(monkeypatch)
    big, wide = range(2, 100), divisors_above_one(720720)[:80]
    for call in (fourier_count, lambda A, k: arc_classify(A, k, 1.0)):
        with pytest.raises(DomainError, match="^k must be a positive integer$"):
            call(big, 0)
        with pytest.raises(ResourceLimitError, match="exceeds bound"):
            call(big, 1)
        with pytest.raises(NumericalInstabilityError, match="float error bound"):
            call(wide, 1)


def test_lcm_check_stops_past_its_cap(monkeypatch):
    # the check folds 64 elements at a time and gives up past max(2^64, bound): the first
    # block of 2..12000 already has lcm(2..65), 90 bits, and no later block is folded;
    # arc_classify checks the lcm before the float error bound, which refuses these sets too
    _forbid_kernel(monkeypatch)
    with pytest.raises(ResourceLimitError, match="^lcm of at least 90 bits exceeds bound 1000000$"):
        arc_classify(range(2, 12001), 1, 1.0)
    # a bound above 2^64 raises the cap with it: lcm(2..65) is below it, lcm(2..129) above
    monkeypatch.setattr(egyfrac.fourier, "_LCM_BOUND", 10**30)
    with pytest.raises(ResourceLimitError, match=f"^lcm of at least {math.lcm(*range(2, 130)).bit_length()} bits"):
        arc_classify(range(2, 200), 1, 1.0)
    # the primes to 29 pass both the lcm check (L = 6469693230) and the error bound, and
    # k = L - 1, read mod L, is refused by the phase reduction: (L - 1) * L > 2^62
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    L = math.lcm(*primes)
    for call in (fourier_count, lambda A, k: arc_classify(A, k, 1.0)):
        with pytest.raises(ResourceLimitError, match="64-bit phase reduction"):
            call(primes, L - 1)


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
    # each input is decided after its limb: the shift of each limb's units is recorded
    scaled_int = egyfrac.fourier._scaled_int
    shifts = []
    monkeypatch.setattr(egyfrac.fourier, "_scaled_int", lambda units, sh: shifts.append(sh) or scaled_int(units, sh))
    for limbs, x in [(1, [1.0, 2.0, 3.0]), (2, [1.0, -(1.0 - 2.0**-53)]), (3, [1.0, -1.0, 2.0**-100])]:
        shifts.clear()
        x = np.array(x)
        assert egyfrac.fourier._exact_sum(x).hex() == fsum(x.tolist()).hex() and not calls, x
        assert len(set(shifts)) == limbs, (x, shifts)
    # 1 + 2^-53 is a tie, and the limb total's one-unit tail bound straddles it
    assert egyfrac.fourier._exact_sum(np.array([1.0, 2.0**-53])) == 1.0 and calls


def _reference_sum(A, k):
    """The orthogonality sum with one complex exp per element and frequency."""
    L = math.lcm(*A)
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
    L = math.lcm(*A)
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
        # two sets span several chunks
        cap = 4 * 10**5 if i < 2 else 2 * 10**4
        A = random_lcm_capped_set(rng, 2, 80, 16, cap)
        k = rng.choice([1, 2, 3])
        want = _reference_sum(A, k)
        assert fourier_count(A, k)[0] == want[0] / want[2], (A, k)
        if want[2] <= 2 * 10**4:
            assert arc_classify(A, k, 2.0).weights == _reference_weights(A, k), (A, k)


def _assert_kernel_matches_reference(A, k):
    want = _reference_sum(A, k)
    assert fourier_count(A, k)[0] == want[0] / want[2], (A, k)
    assert arc_classify(A, k, 2.0).weights == _reference_weights(A, k), (A, k)


def test_kernel_on_the_empty_set():
    for k in (1, 2, 3):
        _assert_kernel_matches_reference([], k)
        assert fourier_count([], k) == (1.0, 1)


def test_kernel_on_a_set_containing_one():
    for A in ([1], [1, 2], [1, 3, 4, 6], [1, 2, 5, 7, 10, 14]):
        for k in (1, 2, 3):
            _assert_kernel_matches_reference(A, k)


def test_kernel_where_rotated_rows_repeat():
    # k shares a factor with the elements, so each row repeats within its n entries
    for A, k in [([2, 4, 6, 8, 12], 2), ([4, 6, 10, 16, 30], 2), ([3, 6, 9, 12, 18], 3),
                 ([6, 9, 15, 21, 27, 30], 3), ([2, 3, 4, 6, 9, 12, 36], 2), ([2, 3, 4, 6, 9, 12, 36], 3)]:
        _assert_kernel_matches_reference(A, k)


@pytest.mark.parametrize("k", [1, 2])
def test_kernel_across_three_chunks(k):
    # L = 360360 spans three chunks, and the chunk length 2^17 is a multiple of no odd element
    A = divisors_above_one(360360)[:16]
    assert math.lcm(*A) == 360360 and 2 * egyfrac.fourier._CHUNK < 360360 < 3 * egyfrac.fourier._CHUNK
    _assert_kernel_matches_reference(A, k)


def test_count_sums_one_part_per_chunk(monkeypatch):
    calls = []
    exact_sum = egyfrac.fourier._exact_sum
    monkeypatch.setattr(egyfrac.fourier, "_exact_sum", lambda x: calls.append(len(x)) or exact_sum(x))
    for A, chunks in [([2, 3, 6], 1), (divisors_above_one(27720)[:13], 1), (divisors_above_one(360360)[:16], 3)]:
        calls.clear()
        fourier_count(A, 1)
        assert len(calls) == chunks and sum(calls) == math.lcm(*A), (A, calls)


def test_arc_classify_walks_each_table_in_chunks(monkeypatch):
    # L = 360360 spans three chunks: the count walks the root tables and the weights the
    # cosine tables, each one chunk at a time, where the weights took one product over all of L
    lengths = []
    gathered_product = egyfrac.fourier._gathered_product
    monkeypatch.setattr(egyfrac.fourier, "_gathered_product",
                        lambda *args: lengths.append(args[-1]) or gathered_product(*args))
    arc_classify(divisors_above_one(360360)[:16], 1, 1.0)
    assert len(lengths) == 6 and max(lengths) <= egyfrac.fourier._CHUNK, lengths
    assert sum(lengths) == 2 * 360360


def test_arc_classify_folds_the_lcm_once(monkeypatch):
    calls = []
    checked_lcm = egyfrac.fourier._checked_lcm
    monkeypatch.setattr(egyfrac.fourier, "_checked_lcm", lambda A: calls.append(A) or checked_lcm(A))
    assert arc_classify([2, 3, 6], 1, 2.0).rounded == 2 and len(calls) == 1


@pytest.mark.parametrize("length", [1, 5, 44])
def test_gathered_product_shorter_than_the_largest_element(length):
    # 45 is the largest element: a length of 1 or below 45 cuts every row or some rows short
    A = IntSet([7, 12, 30, 45])
    num, den = egyfrac.fourier._phase_tables(A)
    offsets = np.cumsum([0] + list(A.elements))
    roots = 1.0 + np.exp((2j * np.pi) * (num / den))
    cosines = np.abs(np.cos(np.pi * num / den))
    for k in (1, 2, 3):
        for start in (-629, -3, 0, 17):
            hs = np.arange(start, start + length, dtype=np.int64)
            for tables in (roots, cosines):
                want = np.ones(length, dtype=tables.dtype)
                for n, off in zip(A, offsets):
                    want *= tables[off + (k * hs) % n]  # per h, in A's order
                got = egyfrac.fourier._gathered_product(tables, (num, den), A, k, start, length)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (k, start, length)


# arc_classify's tracemalloc peak, 33.3 and 33.1 bytes a frequency at L = 27720 and
# 55440 (33.0 at 360360 and 720720), with numpy 2.4; the lcm bound keeps it near 36 MB
_ARC_PEAK_BYTES_PER_FREQ = 36
# the peak of either entry point on the 41 largest divisors of 720720, whose 2,946,340
# table entries outweigh its frequencies: 56.7 bytes an entry, with numpy 2.4
_PEAK_BYTES_PER_ENTRY = 60


@pytest.mark.parametrize("N,m", [(27720, 13), (55440, 14)])
def test_arc_byte_budget_covers_the_tracemalloc_peak(N, m):
    A = divisors_above_one(N)[:m]
    assert math.lcm(*A) == N
    tracemalloc.start()
    try:
        arc_classify(A, 1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _ARC_PEAK_BYTES_PER_FREQ * N, peak / N


@pytest.mark.parametrize("call", [fourier_count, lambda A, k: arc_classify(A, k, 1.0)], ids=["count", "arc"])
def test_fourier_peak_grows_with_the_table_entries(call):
    # 41 elements pass the error bound and lcm 720720 the lcm bound, yet the tables hold
    # sum(A) entries, four times L: the peak is bounded per entry plus per frequency
    A = divisors_above_one(720720)[-41:]
    assert math.lcm(*A) == 720720 and sum(A) == 2946340
    tracemalloc.start()
    try:
        call(A, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_BYTES_PER_ENTRY * sum(A) + _ARC_PEAK_BYTES_PER_FREQ * 720720, peak / sum(A)


@pytest.mark.parametrize("k", [1.0, 2.5, True, False, 0, -1, "1", Fraction(2)], ids=repr)
def test_k_that_is_not_a_positive_integer_is_refused_before_any_table(k, monkeypatch):
    # a float k used to escape as IndexError or UFuncTypeError, and True was read as k = 1
    _forbid_kernel(monkeypatch)
    monkeypatch.setattr(egyfrac.fourier, "_phase_tables", None)
    monkeypatch.setattr(egyfrac.solver, "_count_sums", None)
    for call in (fourier_count, count_integral, lambda A, k: arc_classify(A, k, 1.0)):
        with pytest.raises(DomainError, match="^k must be a positive integer$"):
            call([2, 3, 6], k)


def test_fourier_resource_error():
    primes = [101, 103, 107, 109, 113, 127]
    with pytest.raises(ResourceLimitError):
        fourier_count(primes, 1)
    with pytest.raises(DomainError):
        fourier_count([2, 3], 0)


def test_any_k_is_answered_through_k_mod_lcm():
    # k used to be refused once k * lcm passed 2^62; it enters only through k h mod n, n | L
    assert fourier_count([2, 3, 6], 10**19)[1] == 4 == count_integral([2, 3, 6], 10**19)
    A = divisors_above_one(360)[:9]
    L = math.lcm(*A)
    for k in (1, 2, 5):
        for big in (k + L, k + 5 * L, k + 10**20 * L):
            assert fourier_count(A, big) == fourier_count(A, k), (k, big)
            want, got = arc_classify(A, k, 3.0), arc_classify(A, big, 3.0)
            assert got.k == big and dataclasses.replace(got, k=k) == want, (k, big)
    # a multiple of L makes every k * recip_sum(S) integral: all 2^|A| subsets count
    assert fourier_count(A, 7 * L)[1] == 2 ** len(A)


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


def test_arc_classify_rejects_a_nan_radius():
    # every comparison with NaN is false, so it used to make every frequency minor
    with pytest.raises(DomainError):
        arc_classify([2, 3, 6], 1, float("nan"))
    with pytest.raises(DomainError):
        arc_classify([2, 3, 6], 1, -1.0)


def test_arc_classify_rejects_an_infinite_radius():
    # an infinite radius made every frequency major and its diagnostics non-JSON ("K": Infinity)
    with pytest.raises(DomainError):
        arc_classify([2, 3, 6], 1, math.inf)


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
        L = math.lcm(*A)
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
        assert math.lcm(*A) % k == 0
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


def _assert_arc_runs(d):
    """The JSON runs expand to major_hs and minor_hs, are maximal and never hold 0."""
    payload = d.to_json_dict()
    for key, hs in (("major_arcs", d.major_hs), ("minor_arcs", d.minor_hs)):
        runs = payload[key]
        assert tuple(h for lo, hi in runs for h in range(lo, hi + 1)) == hs, (key, runs)
        assert all(lo <= hi and not lo <= 0 <= hi for lo, hi in runs), (key, runs)
        for (_, hi), (lo, _) in zip(runs, runs[1:]):
            assert hi + 1 < lo or hi == -1 and lo == 1, (key, runs)  # disjoint, ascending, apart or split at 0
    assert "major_hs" not in payload and "minor_hs" not in payload
    return payload["major_arcs"], payload["minor_arcs"]


def test_arc_runs_examples():
    assert _assert_arc_runs(arc_classify([], 1, 1.0)) == ([], [])
    assert _assert_arc_runs(arc_classify([2], 1, 2)) == ([[1, 1]], [])
    assert _assert_arc_runs(arc_classify([2], 1, 0)) == ([], [[1, 1]])
    # K = 0: no major arc
    assert _assert_arc_runs(arc_classify([2, 3, 6], 1, 0)) == ([], [[-2, -1], [1, 3]])
    # K = 6 at L = 12: the major arc |h| <= 3 around 0 is split at 0
    assert _assert_arc_runs(arc_classify([3, 4, 6, 12], 1, 6)) == ([[-3, -1], [1, 3]], [[-5, -4], [4, 6]])
    # K past L: every frequency major
    assert _assert_arc_runs(arc_classify([3, 4, 6, 12], 1, 100.0)) == ([[-5, -1], [1, 6]], [])
    # k = 2 at L = 12: the arc around L/2 = 6 spans both edges of J
    assert _assert_arc_runs(arc_classify([3, 4, 6, 12], 2, 4)) == (
        [[-5, -5], [-1, -1], [1, 1], [5, 6]], [[-4, -2], [2, 4]])
    # k = 3 at L = 12: arcs around 0, +-4, and none at the edge 6, where 3h = 18 is 6 from 12 and 24
    assert _assert_arc_runs(arc_classify([3, 4, 6, 12], 3, 6)) == (
        [[-5, -3], [-1, -1], [1, 1], [3, 5]], [[-2, -2], [2, 2], [6, 6]])


def test_arc_runs_on_random_sets():
    rng = random.Random(48)
    for _ in range(30):
        A = random_lcm_capped_set(rng, 2, 40, 8, 5000)
        d = arc_classify(A, rng.choice([1, 2, 3]), rng.choice([0.0, 1.0, 2.5, 7.0, 1e6]))
        major, minor = _assert_arc_runs(d)
        assert sum(hi - lo + 1 for lo, hi in major + minor) == d.L - 1


def test_arc_diagnostics_hold_arrays_and_build_accessors_on_demand():
    # the frequencies are not stored: the accessors rebuild J = (-L/2, L/2] without 0 from L
    d = arc_classify([2, 3, 6], 1, 2)
    assert isinstance(d.major_mask, np.ndarray) and isinstance(d.weight_array, np.ndarray)
    assert not hasattr(d, "hs")
    assert "major_hs" not in vars(d) and "weights" not in vars(d)
    assert d.major_hs == (-1, 1) and d.minor_hs == (-2, 2, 3)
    assert all(type(h) is int for h in d.major_hs + d.minor_hs)
    assert d.weights == dict(zip([-2, -1, 1, 2, 3], d.weight_array.tolist()))
    assert d.major_hs is d.major_hs and d.weights is d.weights  # built once
    assert "major_mask=" not in repr(d) and "weight_array=" not in repr(d)


def test_arc_diagnostics_arrays_are_read_only_and_compared():
    d = arc_classify([2, 3, 6], 1, 2)
    for a in (d.major_mask, d.weight_array):
        with pytest.raises(ValueError):
            a[0] = a[1]
    same = arc_classify([2, 3, 6], 1, 2)
    assert d == same and hash(d) == hash(same)
    other_arcs = dataclasses.replace(d, major_mask=~d.major_mask)
    other_weights = dataclasses.replace(d, weight_array=d.weight_array * 0.5)
    assert d != other_arcs and d != other_weights and d != other_arcs.to_json_dict()
