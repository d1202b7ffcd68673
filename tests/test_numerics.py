import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import avprune
from avprune import (
    ConvergenceFailure,
    DegenerateInput,
    InvalidInput,
    Rng,
    pca2,
    splitmix64,
)
from avprune import numerics
from avprune.numerics import _BOX_MULLER_BLOCK, _LANE, _jump_table


class TestSplitmix:
    def test_known_vector_seed_zero(self):
        # Published splitmix64 outputs for seed 0.
        state, out = splitmix64(0)
        assert out == 0xE220A8397B1DCDAF
        _, out2 = splitmix64(state)
        assert out2 == 0x6E789E6AA1B965F4

    def test_wraps_at_64_bits(self):
        _, out = splitmix64((1 << 64) - 1)
        assert 0 <= out < (1 << 64)


class TestRng:
    def test_stream_frozen_seed_zero(self):
        r = Rng(0)
        assert [r.next_u64() for _ in range(4)] == [
            0x99EC5F36CB75F2B4,
            0xBF6E1F784956452A,
            0x1A5F849D4933E6E0,
            0x6AA594F1262D2D2C,
        ]

    def test_same_seed_same_stream(self):
        a, b = Rng(1234), Rng(1234)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_different_seeds_differ(self):
        assert Rng(1).next_u64() != Rng(2).next_u64()

    def test_uniform_in_half_open_unit(self):
        r = Rng(5)
        draws = [r.uniform() for _ in range(10_000)]
        assert all(0.0 < u <= 1.0 for u in draws)

    def test_below_range_and_determinism(self):
        r = Rng(7)
        assert [r.below(10) for _ in range(8)] == [4, 4, 8, 4, 4, 1, 6, 6]
        r2 = Rng(99)
        assert all(0 <= r2.below(3) < 3 for _ in range(1000))

    def test_below_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            Rng(0).below(0)


class TestGaussian:
    def test_first_draws_reproduce(self):
        r = Rng(0)
        first_two = [r.gaussian(), r.gaussian()]
        r2 = Rng(0)
        assert first_two == [r2.gaussian(), r2.gaussian()]
        assert first_two == pytest.approx([-0.014106797381248284, -1.0085864725210538])

    def test_moments_over_one_million_draws(self):
        draws = Rng(2024).gaussians(1_000_000)
        assert -0.005 <= float(draws.mean()) <= 0.005
        assert 0.99 <= float(draws.var()) <= 1.01


# Counts at the seams of the lane-parallel kernel: none, one, odd, around one
# lane and over several lanes with a partial tail.
BULK_COUNTS = st.sampled_from([0, 1, 2, 7, _LANE - 1, _LANE, _LANE + 1, 2 * _LANE, 5 * _LANE + 3])


class TestBulkDraws:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), n=BULK_COUNTS, spare=st.booleans())
    def test_bulk_draws_continue_the_scalar_stream(self, seed, n, spare):
        bulk, scalar = Rng(seed), Rng(seed)
        if spare:  # leave a pending Box-Muller spare on both
            assert bulk.gaussian() == scalar.gaussian()
        expected = np.array([scalar.gaussian() for _ in range(n)], dtype=np.float64)
        assert bulk.gaussians(n).tobytes() == expected.tobytes()
        assert bulk.gaussian() == scalar.gaussian()
        assert bulk.next_u64() == scalar.next_u64()

        expected = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
        assert bulk.uniforms(n).tobytes() == expected.tobytes()
        assert bulk.next_u64() == scalar.next_u64()
        assert bulk.gaussian() == scalar.gaussian()

    def test_decoder_sized_draws_are_pinned(self):
        # sha256 of the scalar stream's 368,832 draws (one default simulate).
        draws = Rng(1).gaussians(368_832)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "35107271acf58093228692919762c46bd3095d02c9c3c8deb16db860a42934cc"
        )

    @pytest.mark.parametrize("spare", [False, True])
    @pytest.mark.parametrize("count", [2 * 2 * _BOX_MULLER_BLOCK - 1, 2 * 2 * _BOX_MULLER_BLOCK + 1])
    def test_bulk_gaussians_match_the_scalar_stream_across_box_muller_blocks(self, count, spare):
        # Box-Muller runs 2 * _BOX_MULLER_BLOCK draws per block; these counts
        # end one draw short of the second block's end or one draw into a third.
        bulk, scalar = Rng(count), Rng(count)
        if spare:
            assert bulk.gaussian() == scalar.gaussian()
        expected = np.array([scalar.gaussian() for _ in range(count)])
        assert bulk.gaussians(count).tobytes() == expected.tobytes()
        assert (bulk._s, bulk._gauss_spare) == (scalar._s, scalar._gauss_spare)

    def test_numpy_cos_and_sin_are_libm_bit_for_bit(self):
        # gaussians() takes cos and sin of a block from numpy, gaussian() one
        # at a time from math, so the two streams agree only while numpy's
        # float64 loops return what libm returns. Angles are formed as there,
        # u * 2pi, plus 0 and the neighbours of each quarter turn.
        edges = [0.0]
        for turn in (math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi):
            below = above = turn
            edges.append(turn)
            for _ in range(4):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                edges += [below, above]
        theta = np.concatenate((Rng(9).uniforms(1 << 20) * (2.0 * math.pi), edges))
        out = np.empty((len(theta), 2))  # strided, as gaussians() writes its pairs
        for column, (bulk, scalar) in enumerate([(np.cos, math.cos), (np.sin, math.sin)]):
            expected = np.fromiter(map(scalar, theta.tolist()), np.float64, len(theta))
            bulk(theta, out=out[:, column])
            assert out[:, column].tobytes() == expected.tobytes()

    def test_jump_table_is_built_on_first_use_not_at_import(self):
        src = str(Path(avprune.__file__).parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r});"
            "import avprune.numerics as n; import avprune.cli as cli;"
            "print(n._jump_table.cache_info().currsize, cli.build_parser.cache_info().currsize)"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0"]

    @pytest.mark.parametrize("lanes", [1, 2, 3, 4, 5, 63, 64, 65, 129])
    def test_lane_starts_match_the_scalar_stream_at_the_doubling_seams(self, lanes):
        # Lane starts are filled in rounds of 1, 2, 4, ... lanes; these counts
        # end a round exactly, one lane short of it or one past it.
        n = lanes * _LANE + 37
        bulk, scalar = Rng(lanes), Rng(lanes)
        expected = np.array([scalar.uniform() for _ in range(n)])
        assert bulk.uniforms(n).tobytes() == expected.tobytes()
        assert bulk._s == scalar._s
        expected = np.array([scalar.gaussian() for _ in range(n)])
        assert bulk.gaussians(n).tobytes() == expected.tobytes()
        assert (bulk._s, bulk._gauss_spare) == (scalar._s, scalar._gauss_spare)
        ns = np.random.default_rng(lanes).integers(1, 2**63, size=n, dtype=np.int64)
        assert bulk.belows(ns).tolist() == [scalar.below(int(b)) for b in ns]
        assert bulk._s == scalar._s

    def test_jump_tables_stay_small(self):
        _jump_table.cache_clear()
        Rng(1).gaussians(368_832)
        levels = _jump_table.cache_info().currsize
        assert levels == (368_832 // _LANE).bit_length()  # jumps of 1, 2, 4, ... lanes
        assert sum(_jump_table(m).nbytes for m in range(levels)) <= 512 * 2**10

    @pytest.mark.parametrize("method", ["gaussians", "uniforms"])
    def test_negative_count_rejected(self, method):
        with pytest.raises(InvalidInput):
            getattr(Rng(3), method)(-2)


# The decoder's draw count (28 layers at d=32), none, one pair, and one pair
# either side of the end of the second Box-Muller block.
F32_COUNTS = [0, 2, 2 * 2 * _BOX_MULLER_BLOCK - 2, 2 * 2 * _BOX_MULLER_BLOCK + 2, 344_064]
# Scales 1/sqrt(d) of decoder widths 1, 9 and 32.
F32_SCALES = [1.0 / math.sqrt(d) for d in (1, 9, 32)]


def exact_f32(rng: Rng, count: int, scale: float) -> np.ndarray:
    """What gaussians_f32 must equal: the float64 stream, scaled, then rounded."""
    return (rng.gaussians(count) * scale).astype(np.float32)


class TestGaussiansF32:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.sampled_from(F32_COUNTS),
        scale=st.sampled_from(F32_SCALES),
    )
    def test_matches_the_rounded_float64_stream(self, seed, count, scale):
        fast, exact = Rng(seed), Rng(seed)
        got = fast.gaussians_f32(count, scale)
        assert got.dtype == np.float32
        assert got.tobytes() == exact_f32(exact, count, scale).tobytes()
        assert (fast._s, fast._gauss_spare) == (exact._s, exact._gauss_spare)

    @pytest.mark.parametrize(
        "count, spare",
        [(1, False), (7, False), (2 * 2 * _BOX_MULLER_BLOCK + 1, False), (0, True), (2, True), (344_064, True)],
    )
    def test_odd_counts_and_a_pending_spare_take_the_exact_path(self, count, spare):
        fast, exact = Rng(count), Rng(count)
        if spare:
            assert fast.gaussian() == exact.gaussian()
        got = fast.gaussians_f32(count, F32_SCALES[2])
        assert got.tobytes() == exact_f32(exact, count, F32_SCALES[2]).tobytes()
        assert (fast._s, fast._gauss_spare) == (exact._s, exact._gauss_spare)

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInput):
            Rng(3).gaussians_f32(-2, 1.0)

    def test_a_skewed_fast_log_changes_no_weight(self, monkeypatch):
        # A fast log off by a relative 2**-38, far more than any libm or SIMD
        # kernel, must stay inside the tie band. With the band at 0 the same
        # skew must flip some weights, so these draws do reach the guard.
        monkeypatch.setattr(numerics, "_fast_log", lambda u: np.log(u) * (1.0 + 2.0**-38))
        scale = F32_SCALES[2]
        expected = {seed: exact_f32(Rng(seed), 344_064, scale) for seed in range(3)}
        for seed, want in expected.items():
            assert Rng(seed).gaussians_f32(344_064, scale).tobytes() == want.tobytes()
        monkeypatch.setattr(numerics, "_TIE_BAND", 0.0)
        flipped = sum(
            int(np.count_nonzero(Rng(seed).gaussians_f32(344_064, scale) != want)) for seed, want in expected.items()
        )
        assert flipped >= 1


# Bounds that never reject in practice, bounds in [2**62, 2**63) that reject
# up to half of all draws, and bounds spread over the whole range.
BELOW_RANGES = st.sampled_from([(1, 1000), (2**62, 2**63), (1, 2**63)])


def rng_starting_with(x0: int) -> Rng:
    """An ``Rng`` whose first next_u64() is ``x0``: the scrambler rotl(s1 * 5, 7) * 9 inverted."""
    rng = Rng(0)
    m = x0 * pow(9, -1, 1 << 64) % (1 << 64)
    s1 = ((m >> 7) | (m << 57)) % (1 << 64) * pow(5, -1, 1 << 64) % (1 << 64)
    rng._s[1] = s1
    return rng


class TestBelows:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=BULK_COUNTS | st.sampled_from([3 * _LANE - 5, 700]),
        bounds=BELOW_RANGES,
        sub_seed=st.integers(0, 2**32 - 1),
    )
    def test_bulk_bounded_draws_continue_the_scalar_stream(self, seed, n, bounds, sub_seed):
        ns = np.random.default_rng(sub_seed).integers(*bounds, size=n, dtype=np.int64)
        bulk, scalar = Rng(seed), Rng(seed)
        got = bulk.belows(ns)
        assert got.dtype == np.int64
        assert got.tolist() == [scalar.below(int(b)) for b in ns]
        assert bulk._s == scalar._s
        assert bulk.below(7) == scalar.below(7)

    @pytest.mark.parametrize("ns", [[0], [-1], [5, 0, 3], [2**63], [2**64], [1.0]])
    def test_bounds_outside_the_range_rejected(self, ns):
        with pytest.raises(InvalidInput):
            Rng(3).belows(ns)

    def test_a_sampler_block_of_bounds(self):
        # One draw block of the analyze benchmark's 100k-pair VV sample.
        ns = np.arange(612_977, 662_977)
        bulk, scalar = Rng(11), Rng(11)
        assert bulk.belows(ns).tolist() == [scalar.below(int(b)) for b in ns]
        assert bulk._s == scalar._s

    @pytest.mark.parametrize("x0", [2**64 - 616, 2**64 - 617, 2**64 - 1, 2**64 - 1000])
    @pytest.mark.parametrize("ns", [[1000] * (2 * _LANE + 5), [1000, 3] * (_LANE + 2)])
    def test_a_first_draw_at_the_rejection_edge(self, x0, ns):
        # 2**64 mod 1000 = 616, so below(1000) rejects 2**64 - 616 and up.
        assert rng_starting_with(x0).next_u64() == x0
        bulk, scalar = rng_starting_with(x0), rng_starting_with(x0)
        assert bulk.belows(ns).tolist() == [scalar.below(b) for b in ns]
        assert bulk._s == scalar._s

    def test_empty(self):
        rng = Rng(3)
        assert rng.belows([]).tolist() == []
        assert rng.next_u64() == Rng(3).next_u64()


class TestPca2:
    def test_diagonal_covariance(self):
        # Four points whose sample covariance is exactly diag(4, 1).
        s6, s15 = math.sqrt(6.0), math.sqrt(1.5)
        data = np.array([[s6, 0.0], [-s6, 0.0], [0.0, s15], [0.0, -s15]])
        proj, (ev1, ev2) = pca2(data)
        assert ev1 == pytest.approx(4.0, abs=1e-6)
        assert ev2 == pytest.approx(1.0, abs=1e-6)
        # Axes align with coordinate axes (up to canonical sign): the
        # projection just reproduces the centered data.
        assert np.allclose(np.abs(proj), np.abs(data), atol=1e-9)

    def test_duplicate_rows_same_projection(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(50, 5))
        proj_once, _ = pca2(data)
        proj_twice, _ = pca2(np.vstack([data, data]))
        assert np.allclose(proj_twice[:50], proj_once, atol=1e-6)
        assert np.allclose(proj_twice[50:], proj_once, atol=1e-6)

    def test_isotropic_cloud_matches_eigh_oracle(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(10_000, 6))
        proj, (ev1, ev2) = pca2(data)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (data.shape[0] - 1)
        exact = np.linalg.eigvalsh(cov)[::-1]
        assert ev1 == pytest.approx(exact[0], rel=1e-4)
        assert ev2 == pytest.approx(exact[1], rel=1e-4)
        assert ev2 / ev1 > 0.9  # isotropic: ratio near 1

    def test_axis_variance_ordering(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(200, 4)) * np.array([3.0, 1.0, 0.5, 0.1])
        proj, (ev1, ev2) = pca2(data)
        assert ev1 >= ev2 >= 0.0
        assert proj[:, 0].var() >= proj[:, 1].var()

    def test_rejects_tiny_input(self):
        with pytest.raises(InvalidInput):
            pca2(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_row_is_named(self, bad):
        data = np.random.default_rng(4).normal(size=(20, 3))
        data[6, 1] = bad
        data[11, 0] = bad
        with pytest.raises(DegenerateInput, match="row 6 is not finite"):
            pca2(data)

    def test_convergence_failure_carries_residual(self):
        # A rotation-like matrix defeats plain power iteration.
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        from avprune.numerics import _dominant_eigenpair

        with pytest.raises(ConvergenceFailure) as err:
            _dominant_eigenpair(rot, tol=1e-14, max_iter=50)
        assert err.value.residual > 0.0
