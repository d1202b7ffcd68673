import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avprune import (
    InvalidInput,
    Modality,
    Rng,
    TdsConfig,
    TokenTable,
    plain_select,
    prune_count,
    query_importance,
    random_select,
    tds_select,
)


def make_map(values):
    # Query-text rows of a float32 attention map.
    return np.asarray(values, dtype=np.float32)


def make_scores(scores, chunks=None):
    # (columns, scores): video tokens with ids 0..n-1, one per score, in the given chunks.
    n = len(scores)
    columns = TokenTable(
        id=np.arange(n),
        modality=np.full(n, Modality.VIDEO.code),
        chunk=chunks if chunks is not None else np.zeros(n, dtype=int),
    )
    return columns, np.asarray(scores, dtype=np.float64)


def picked(ids) -> list[int]:
    """A selection's ids as a list, after checking it is an ascending int64 array."""
    assert isinstance(ids, np.ndarray) and ids.dtype == np.int64 and ids.ndim == 1
    assert np.all(ids[:-1] < ids[1:])
    return ids.tolist()


class TestQueryImportance:
    def test_uniform_attention(self):
        out = query_importance(make_map(np.full((3, 5), 0.2)))
        assert out.dtype == np.float64 and out.shape == (5,)
        assert np.allclose(out, 0.2)

    def test_column_mean_oracle(self):
        out = query_importance(make_map([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]]))
        assert out == pytest.approx([0.3, 0.45, 0.25])

    def test_duplicated_rows_leave_scores_unchanged(self):
        rows = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]], dtype=np.float32)
        once = query_importance(make_map(rows))
        twice = query_importance(make_map(np.vstack([rows, rows])))
        assert np.allclose(once, twice)

    def test_zero_rows_rejected(self):
        with pytest.raises(InvalidInput):
            query_importance(make_map(np.zeros((0, 4), dtype=np.float32)))


class TestPruneCount:
    @pytest.mark.parametrize(
        "n_a,n_v,p,expected",
        [(100, 0, 0.0, 0), (35, 115, 0.1, 15), (3, 4, 0.5, 3), (0, 0, 0.9, 0)],
    )
    def test_floor_of_pooled_budget(self, n_a, n_v, p, expected):
        assert prune_count(n_a, n_v, p) == expected

    def test_rejects_p_out_of_range(self):
        with pytest.raises(InvalidInput):
            prune_count(1, 1, 1.0)
        with pytest.raises(InvalidInput):
            prune_count(1, 1, -0.1)


class TestPlainSelect:
    def test_empty_budget(self):
        assert picked(plain_select(*make_scores([0.5, 0.2]), 0)) == []

    def test_lowest_scores_pruned(self):
        scores = make_scores([0.9, 0.1, 0.2, 0.15, 0.05, 0.3])
        assert picked(plain_select(*scores, 2)) == [1, 4]

    def test_tie_break_prunes_lower_id(self):
        assert picked(plain_select(*make_scores([0.5, 0.5, 0.5, 0.5]), 2)) == [0, 1]

    def test_oversized_budget_clamps(self):
        assert picked(plain_select(*make_scores([0.1, 0.2]), 5)) == [0, 1]

    @given(st.floats(min_value=-10, max_value=10))
    def test_constant_shift_invariance(self, shift):
        base = [0.9, 0.1, 0.2, 0.15, 0.05, 0.3]
        assert picked(plain_select(*make_scores(base), 3)) == picked(
            plain_select(*make_scores([s + shift for s in base]), 3)
        )


class TestTdsSelect:
    CFG = TdsConfig(lambda_div=0.2, start_layer=0)

    def test_hand_traced_instance(self):
        # c_max = chunk 0; candidates {4,1,3,2}; the distance bonus rescues
        # the temporally distant token 4, and the 0.25 tie prunes id 3.
        scores = make_scores([0.9, 0.1, 0.2, 0.15, 0.05, 0.3], chunks=[0, 0, 1, 1, 2, 2])
        assert picked(tds_select(*scores, 2, self.CFG, max_chunk=2)) == [1, 3]

    def test_lambda_zero_equals_plain(self):
        scores = make_scores([0.9, 0.1, 0.2, 0.15, 0.05, 0.3], chunks=[0, 0, 1, 1, 2, 2])
        cfg = TdsConfig(lambda_div=0.0, start_layer=0)
        assert picked(tds_select(*scores, 2, cfg, max_chunk=2)) == picked(plain_select(*scores, 2))

    def test_zero_budget(self):
        assert picked(tds_select(*make_scores([0.1]), 0, self.CFG, max_chunk=0)) == []

    def test_single_chunk_degenerates_to_plain(self):
        scores = make_scores([0.4, 0.1, 0.3, 0.2])
        assert picked(tds_select(*scores, 2, self.CFG, max_chunk=0)) == picked(plain_select(*scores, 2))

    def test_output_within_candidate_buffer(self):
        columns, scores = make_scores([0.9, 0.1, 0.2, 0.15, 0.05, 0.3], chunks=[0, 1, 2, 3, 4, 5])
        pruned = tds_select(columns, scores, 2, self.CFG, max_chunk=5)
        buffer_ids = {columns.id[i] for i in np.argsort(scores, kind="stable")[:4]}
        assert set(picked(pruned)) <= buffer_ids and len(pruned) == 2

    def test_large_lambda_orders_by_distance(self):
        # With lambda far above the score spread, survivors inside the
        # buffer are exactly the most temporally distant candidates.
        scores = make_scores(
            [1.0, 0.01, 0.02, 0.03, 0.04], chunks=[0, 1, 2, 3, 4]
        )
        cfg = TdsConfig(lambda_div=100.0, start_layer=0)
        pruned = tds_select(*scores, 2, cfg, max_chunk=4)
        # candidates are ids 1..4 (chunks 1..4); the two nearest to c_max=0 go
        assert picked(pruned) == [1, 2]

    def test_budget_clamped_to_survivors(self):
        scores = make_scores([0.3, 0.1], chunks=[0, 1])
        assert picked(tds_select(*scores, 10, self.CFG, max_chunk=1)) == [0, 1]

    @given(st.floats(min_value=-5, max_value=5))
    def test_constant_shift_invariance(self, shift):
        # Tie-free instance: exact S_TDS ties are knife-edge cases that a
        # float shift can legitimately re-split, so gaps here are wide.
        base = [0.9, 0.1, 0.22, 0.16, 0.05, 0.3]
        chunks = [0, 0, 1, 1, 2, 2]
        first = tds_select(*make_scores(base, chunks), 2, self.CFG, max_chunk=2)
        second = tds_select(*make_scores([s + shift for s in base], chunks), 2, self.CFG, max_chunk=2)
        assert picked(first) == picked(second)


def brute_force_tds(scores, chunks, ids, k, lam, max_chunk):
    """Independent re-derivation of the diversity selection, step by step."""
    n = len(scores)
    k = min(k, n)
    if k == 0:
        return set()
    # Step 1: key chunk from the argmax score (lower id on ties).
    best = None
    for i in range(n):
        if best is None or scores[i] > scores[best] or (scores[i] == scores[best] and ids[i] < ids[best]):
            best = i
    c_max = chunks[best]
    # Step 2: candidate buffer of the 2k lowest scores (lower id on ties).
    order = sorted(range(n), key=lambda i: (scores[i], ids[i]))
    buffer = order[: min(2 * k, n)]
    # Steps 3-4: distance factor and augmented score.
    rescored = []
    for i in buffer:
        d = abs(c_max - chunks[i]) / max_chunk if max_chunk > 0 else 0.0
        rescored.append((scores[i] + lam * d, ids[i]))
    rescored.sort()
    return {tid for _, tid in rescored[:k]}


class TestTdsAgainstBruteForce:
    def test_thousand_random_instances(self):
        self.check_thousand_instances(Rng.uniform)

    def test_thousand_instances_with_ties(self):
        # Scores in quarter steps tie often, so the tie rules of the key chunk and the buffer decide.
        self.check_thousand_instances(lambda rng: rng.below(4) / 4)

    @staticmethod
    def check_thousand_instances(draw_score):
        rng = Rng(99)
        for _ in range(1000):
            n = 1 + rng.below(64)
            n_chunks = 1 + rng.below(8)
            scores = [draw_score(rng) for _ in range(n)]
            chunks = [rng.below(n_chunks) for _ in range(n)]
            ids = list(range(n))
            k = rng.below(n + 1)
            lam = rng.uniform() * 0.5
            max_chunk = n_chunks - 1
            got = tds_select(
                *make_scores(scores, chunks), k, TdsConfig(lambda_div=lam, start_layer=0), max_chunk
            )
            expected = brute_force_tds(scores, chunks, ids, k, lam, max_chunk)
            assert picked(got) == sorted(expected)


class TestScoreLength:
    @pytest.mark.parametrize("n_scores", [0, 3, 5])
    @pytest.mark.parametrize("select", [
        lambda columns, scores, k: plain_select(columns, scores, k),
        lambda columns, scores, k: tds_select(columns, scores, k, TdsConfig(0.2, 0), max_chunk=1),
    ], ids=["plain", "tds"])
    @pytest.mark.parametrize("k", [0, 2])
    def test_one_score_per_token_or_invalid_input(self, select, n_scores, k):
        columns, _ = make_scores([0.1, 0.2, 0.3, 0.4], chunks=[0, 0, 1, 1])
        with pytest.raises(InvalidInput, match="one score per token"):
            select(columns, np.linspace(0.0, 1.0, n_scores), k)

    def test_a_score_matrix_is_invalid_input(self):
        columns, scores = make_scores([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(InvalidInput, match="one score per token"):
            plain_select(columns, scores[None, :], 1)


class TestRandomSelect:
    def test_zero_budget(self):
        assert picked(random_select([1, 2, 3], 0, Rng(0))) == []

    def test_full_budget_returns_everything(self):
        assert picked(random_select([7, 5, 6], 3, Rng(0))) == [5, 6, 7]

    def test_deterministic_per_seed(self):
        ids = list(range(10))
        assert picked(random_select(ids, 3, Rng(7))) == picked(random_select(ids, 3, Rng(7)))
        assert len(random_select(ids, 3, Rng(7))) == 3

    def test_oversized_budget_clamps(self):
        assert picked(random_select([2, 1], 10, Rng(0))) == [1, 2]

    def test_roughly_uniform(self):
        counts = {i: 0 for i in range(10)}
        rng = Rng(123)
        for _ in range(2000):
            for i in picked(random_select(list(range(10)), 3, rng)):
                counts[i] += 1
        freqs = np.array(list(counts.values())) / 2000.0
        assert np.all(np.abs(freqs - 0.3) < 0.05)


def scalar_random_select(ids, k, rng):
    """Fisher-Yates swaps on Python ints over the ids as given: the picks random_select must make."""
    pool = [int(i) for i in ids]
    k = min(max(k, 0), len(pool))
    for i, t in enumerate(rng.belows(len(pool) - np.arange(k)).tolist()):
        pool[i], pool[i + t] = pool[i + t], pool[i]
    return set(pool[:k])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    ids=st.lists(st.integers(0, 2**63 - 1), unique=True, max_size=40),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_random_select_matches_the_scalar_swaps(ids, seed, data):
    # Unsorted, non-dense ids; budgets below 0 and above n clamp. Several
    # calls per example show the two leave the Rng in the same state.
    array_rng, scalar_rng = Rng(seed), Rng(seed)
    for k in data.draw(st.lists(st.integers(-2, len(ids) + 3), min_size=1, max_size=3)):
        got = random_select(np.array(ids, dtype=np.int64), k, array_rng)
        assert picked(got) == sorted(scalar_random_select(ids, k, scalar_rng))
        assert array_rng._s == scalar_rng._s
