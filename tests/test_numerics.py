import hashlib
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import avprune
from avprune import (
    DegenerateInput,
    InvalidInput,
    Rng,
    pca2,
    splitmix64,
)
from avprune import numerics
from avprune.numerics import _LANE, _MIN_LANES, _exact_log, _jump_table, _lane_outputs


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


def reference_gaussians(rng: Rng, count: int) -> np.ndarray:
    """What ``gaussians`` must equal: Box-Muller with ``math`` over ``uniform()`` pairs, cut to ``count``."""
    draws = []
    for _ in range((count + 1) // 2):
        radius = math.sqrt(-2.0 * math.log(rng.uniform()))
        theta = 2.0 * math.pi * rng.uniform()
        draws += [radius * math.cos(theta), radius * math.sin(theta)]
    return np.array(draws[:count], dtype=np.float64)


def rng_starting_with(x0: int) -> Rng:
    """An ``Rng`` whose first next_u64() is ``x0``: the scrambler rotl(s1 * 5, 7) * 9 inverted."""
    rng = Rng(0)
    m = x0 * pow(9, -1, 1 << 64) % (1 << 64)
    s1 = ((m >> 7) | (m << 57)) % (1 << 64) * pow(5, -1, 1 << 64) % (1 << 64)
    rng._s[1] = s1
    return rng


def libm_log(u: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, u.tolist()), np.float64, len(u))


def simd_log_misses() -> np.ndarray:
    """Uniforms on which numpy's contiguous float64 ``log`` is not libm's ``log``."""
    u = Rng(9).uniforms(200_000)
    return u[np.log(u) != libm_log(u)]


class TestGaussian:
    def test_first_draws_reproduce(self):
        first_two = Rng(0).gaussians(2)
        assert first_two.tobytes() == reference_gaussians(Rng(0), 2).tobytes()
        assert first_two.tolist() == pytest.approx([-0.014106797381248284, -1.0085864725210538])

    def test_a_first_pair_whose_log_numpy_rounds_otherwise(self):
        # gaussians(2) takes the log of one uniform, the case where numpy's SIMD
        # kernel runs whatever the output's stride.
        for u in simd_log_misses()[:50].tolist():
            x0 = (round(u * 2**53) - 1) << 11
            assert rng_starting_with(x0).uniform() == u
            got = rng_starting_with(x0).gaussians(2)
            assert got.tobytes() == reference_gaussians(rng_starting_with(x0), 2).tobytes()

    def test_moments_over_one_million_draws(self):
        draws = Rng(2024).gaussians(1_000_000)
        assert -0.005 <= float(draws.mean()) <= 0.005
        assert 0.99 <= float(draws.var()) <= 1.01


# Counts at the seams of the lane-parallel kernel: none, one, odd, around one
# lane and over several lanes with a partial tail.
BULK_COUNTS = st.sampled_from([0, 1, 2, 7, _LANE - 1, _LANE, _LANE + 1, 2 * _LANE, 5 * _LANE + 3])


class TestBulkDraws:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), n=BULK_COUNTS)
    def test_bulk_draws_continue_the_scalar_stream(self, seed, n):
        bulk, scalar = Rng(seed), Rng(seed)
        assert bulk.gaussians(n).tobytes() == reference_gaussians(scalar, n).tobytes()
        assert bulk.gaussians(1).tobytes() == reference_gaussians(scalar, 1).tobytes()
        assert bulk.next_u64() == scalar.next_u64()

        expected = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
        assert bulk.uniforms(n).tobytes() == expected.tobytes()
        assert bulk.next_u64() == scalar.next_u64()
        assert bulk.gaussians(1).tobytes() == reference_gaussians(scalar, 1).tobytes()

    def test_decoder_sized_draws_are_pinned(self):
        # sha256 of the 368,832 draws of one default simulate.
        draws = Rng(1).gaussians(368_832)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "35107271acf58093228692919762c46bd3095d02c9c3c8deb16db860a42934cc"
        )

    @pytest.mark.parametrize("count", [32_767, 32_769])
    def test_bulk_gaussians_match_the_scalar_stream_at_odd_counts(self, count):
        # Odd counts drop their last sin; these end one draw either side of 2**15.
        bulk, scalar = Rng(count), Rng(count)
        assert bulk.gaussians(count).tobytes() == reference_gaussians(scalar, count).tobytes()
        assert bulk._s == scalar._s

    def test_numpy_cos_and_sin_are_libm_bit_for_bit(self):
        # gaussians() takes cos and sin of a whole draw from numpy, the reference one
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

    def test_exact_log_is_libm_bit_for_bit(self):
        # gaussians() takes the log of a whole draw from numpy, the reference
        # one at a time from math. numpy's contiguous float64 log misses libm's
        # in the last bit on these inputs; _exact_log must not, at the short
        # lengths a small draw makes, and down the strided column of uniform
        # pairs that Box-Muller passes, at the decoder's 172,032 pairs.
        misses = simd_log_misses()
        assert misses.size >= 500
        for n in (1, 2, 3):
            for lo in range(0, misses.size - n + 1, n):
                assert _exact_log(misses[lo : lo + n]).tobytes() == libm_log(misses[lo : lo + n]).tobytes()
        draw = np.resize(misses, 172_032)
        assert _exact_log(draw).tobytes() == libm_log(draw).tobytes()
        column = np.stack((draw, draw[::-1]), axis=1)[:, 0]
        assert _exact_log(column).tobytes() == libm_log(draw).tobytes()
        assert _exact_log(column[:1]).tobytes() == libm_log(draw[:1]).tobytes()

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
        # end a round exactly, one lane short of it or one past it. The kernel
        # is called directly, as draws under _MIN_LANES lanes never reach it.
        scalar = Rng(lanes)
        x, after = _lane_outputs(list(scalar._s), lanes)
        assert x.tolist() == [scalar.next_u64() for _ in range(lanes * _LANE)]
        assert after == scalar._s
        n = lanes * _LANE + 37
        bulk, scalar = Rng(lanes), Rng(lanes)
        expected = np.array([scalar.uniform() for _ in range(n)])
        assert bulk.uniforms(n).tobytes() == expected.tobytes()
        assert bulk._s == scalar._s
        assert bulk.gaussians(n).tobytes() == reference_gaussians(scalar, n).tobytes()
        assert bulk._s == scalar._s
        ns = np.random.default_rng(lanes).integers(1, 2**63, size=n, dtype=np.int64)
        assert bulk.belows(ns).tolist() == [scalar.below(int(b)) for b in ns]
        assert bulk._s == scalar._s

    @pytest.mark.parametrize("count", [_MIN_LANES * _LANE + d for d in (-2, -1, 0, 1)])
    def test_draws_match_the_scalar_stream_at_the_lane_threshold(self, count):
        # gaussians() draws whole pairs, so only its first count stays under
        # the threshold; each belows() call rejects its first draw.
        bulk, scalar = Rng(count), Rng(count)
        expected = np.array([scalar.uniform() for _ in range(count)])
        assert bulk.uniforms(count).tobytes() == expected.tobytes()
        assert bulk._s == scalar._s
        assert bulk.gaussians(count).tobytes() == reference_gaussians(scalar, count).tobytes()
        assert bulk._s == scalar._s
        bulk, scalar = rng_starting_with(2**64 - 1), rng_starting_with(2**64 - 1)
        ns = [1000] * count
        assert bulk.belows(ns).tolist() == [scalar.below(b) for b in ns]
        assert bulk._s == scalar._s

    def test_draws_under_the_lane_threshold_skip_the_lane_kernel(self, monkeypatch):
        def fail(state, lanes):
            raise AssertionError(f"lane kernel called for {lanes} lanes")

        monkeypatch.setattr(numerics, "_lane_outputs", fail)
        rng = Rng(5)
        rng.uniforms(_MIN_LANES * _LANE - 1)
        rng.belows([7] * (_MIN_LANES * _LANE - 1))
        rng.gaussians(_MIN_LANES * _LANE - 2)
        with pytest.raises(AssertionError, match=f"for {_MIN_LANES} lanes"):
            rng.uniforms(_MIN_LANES * _LANE)

    def test_jump_tables_stay_small(self):
        _jump_table.cache_clear()
        Rng(1).gaussians(368_832)
        levels = _jump_table.cache_info().currsize
        assert levels == (368_832 // _LANE).bit_length()  # jumps of 1, 2, 4, ... lanes
        assert sum(_jump_table(m).nbytes for m in range(levels)) <= 512 * 2**10

    @pytest.mark.parametrize("method", ["gaussians", "uniforms"])
    def test_negative_count_rejected(self, method):
        with pytest.raises(InvalidInput, match=rf"^{method}\(\) requires count >= 0, got -2$"):
            getattr(Rng(3), method)(-2)

    def test_each_call_starts_on_a_fresh_pair(self):
        r, scalar = Rng(4), Rng(4)
        expected = reference_gaussians(scalar, 4)
        assert np.concatenate((r.gaussians(1), r.gaussians(2))).tobytes() == expected[[0, 2, 3]].tobytes()
        assert r._s == scalar._s


class TestGaussiansPeak:
    # The decoder's draw count. Box-Muller writes each pair's normals over its
    # own uniforms, so the draw of the uniforms sets the peak: measured 2.03 x
    # 8 x count bytes.
    def test_peak_stays_near_two_float64_arrays(self):
        count = 344_064
        Rng(0).gaussians(count)  # builds the jump tables this count needs
        tracemalloc.start()
        try:
            Rng(1).gaussians(count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * count


# Bounds that never reject in practice, bounds in [2**62, 2**63) that reject
# up to half of all draws, and bounds spread over the whole range.
BELOW_RANGES = st.sampled_from([(1, 1000), (2**62, 2**63), (1, 2**63)])


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

    def test_a_sampler_draw_of_bounds(self):
        # The one draw of the analyze benchmark's 100k-pair VV sample.
        ns = np.arange(562_977, 662_977)
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

    def test_out_of_steps_takes_both_pairs_from_eigh(self, monkeypatch):
        data = np.random.default_rng(9).normal(size=(40, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.2])
        monkeypatch.setattr(numerics, "_PCA_MAX_ITER", 1)
        proj, (ev1, ev2) = pca2(data)
        centered = data - data.mean(axis=0)
        evs, vecs = np.linalg.eigh(centered.T @ centered / (data.shape[0] - 1))
        axes = np.stack([numerics._canonical_sign(vecs[:, -1]), numerics._canonical_sign(vecs[:, -2])], axis=1)
        assert (ev1, ev2) == (evs[-1], evs[-2])
        assert np.array_equal(proj, centered @ axes)
        assert all(axis[np.argmax(np.abs(axis))] > 0 for axis in axes.T)

    def test_rejects_tiny_input(self):
        with pytest.raises(InvalidInput):
            pca2(np.zeros((2, 3)))

    def test_rejects_a_single_column(self):
        with pytest.raises(InvalidInput, match="at least 3 rows and 2 columns"):
            pca2(np.arange(5.0)[:, None])

    def test_constant_rows_project_to_zero(self):
        # Zero covariance: the first start vector vanishes, and eigh takes both pairs.
        proj, (ev1, ev2) = pca2(np.full((6, 3), 2.5))
        assert (ev1, ev2) == (0.0, 0.0)
        assert proj.shape == (6, 2) and not proj.any()

    def test_points_on_a_line_match_the_eigh_oracle(self):
        # Rank-1 covariance: the first pair converges, the deflated start
        # vector vanishes, and eigh takes both pairs.
        data = np.arange(-4.0, 5.0)[:, None] * np.array([1.0, 2.0])
        proj, (ev1, ev2) = pca2(data)
        centered = data - data.mean(axis=0)
        evs, vecs = np.linalg.eigh(centered.T @ centered / (data.shape[0] - 1))
        axes = np.stack([numerics._canonical_sign(vecs[:, -1]), numerics._canonical_sign(vecs[:, -2])], axis=1)
        assert (ev1, ev2) == (evs[-1], 0.0)
        assert np.array_equal(proj, centered @ axes)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_points_on_a_line_take_the_eigh_path_at_every_scale(self, monkeypatch, scale):
        # Rank-1 at any scale: the rounding the deflation leaves must count as
        # vanished relative to the covariance, or at 1e3 it came back as a
        # noise axis with ev2 = 0.0.
        data = scale * Rng(5).gaussians(30)[:, None] * np.array([0.3, -0.7, 0.2, 0.5])
        proj, evs = pca2(data)
        monkeypatch.setattr(numerics, "_PCA_MAX_ITER", 0)  # no step settles: eigh takes both pairs
        eigh_proj, eigh_evs = pca2(data)
        assert evs == eigh_evs and evs[1] > 0.0
        assert proj.tobytes() == eigh_proj.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_row_is_named(self, bad):
        data = np.random.default_rng(4).normal(size=(20, 3))
        data[6, 1] = bad
        data[11, 0] = bad
        with pytest.raises(DegenerateInput, match="row 6 is not finite"):
            pca2(data)
