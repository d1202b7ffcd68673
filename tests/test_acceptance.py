"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from avprune import (
    AttentionRecord,
    ChunkSpec,
    IntraPlan,
    Modality,
    PruneScheduleConfig,
    Rng,
    Selector,
    TdsConfig,
    TokenTable,
    ToyDecoder,
    apply_intra,
    build_sequence,
    cost_model,
    derive_seed,
    make_intra_plan,
    plain_select,
    run_with_injected_attention,
    run_with_pruning,
    synth_embeddings,
    tds_select,
    tensorio,
    top20_recall,
    video_ttm,
)
from avprune.cli import main
from tests.test_harness import oracle_maps
from tests.test_metrics import constant_retention_trace


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


def test_criterion_1_calibration_reproduction(capsys):
    with criterion(1, "calibration closed form 0.1452 +/- 0.0005, bisection mean within 1e-4"):
        start = time.perf_counter()
        code = main(["calibrate", "--target", "0.30", "--r0", "0.45", "--layers", "28"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert abs(float(values["closed_form_p_final"]) - 0.1452) <= 0.0005
        assert abs(float(values["achieved_mean"]) - 0.30) < 1e-4
        assert elapsed < 1.0


def test_criterion_2_schedule_budget():
    with criterion(2, "sigmoid (0, 0.2, 0.5, 20, L=28) from r0=0.45 keeps mean in [0.27, 0.31]"):
        start = time.perf_counter()
        cfg = PruneScheduleConfig(p_init=0.0, p_final=0.2, t_mid=0.5, beta=20.0, layers=28)
        # Independent recurrence oracle, written out in full.
        r = [0.45]
        for l in range(27):
            sig = 1.0 / (1.0 + math.exp(-20.0 * (l / 26.0 - 0.5)))
            r.append(r[-1] * (1.0 - 0.2 * sig))
        oracle_mean = sum(r) / len(r)
        from avprune import mean_retention, retention_trace

        assert 0.27 <= oracle_mean <= 0.31
        assert mean_retention(cfg, 0.45) == pytest.approx(oracle_mean, abs=1e-12)
        assert list(retention_trace(cfg, 0.45)) == pytest.approx(r, abs=1e-12)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_intra_pruning_arithmetic():
    with criterion(3, "intra defaults give 0.444 +/- 0.002 combined and exactly 0.40 video"):
        seq = build_sequence(2, [ChunkSpec(288, 50)], 3, 16, seed=21)
        rng = Rng(derive_seed(21, 0xACC3))
        plan = IntraPlan(
            audio_keep=0.7, video_prune_rate=0.8, frames_per_chunk=4, saliency=rng.uniforms(50)
        )
        _, report = apply_intra(seq, plan)
        kept = report.audio_retained + report.video_retained
        assert abs(kept / (report.audio_total + report.video_total) - 0.444) <= 0.002

        one_window = rng.gaussians(40 * 6).reshape(4, 10, 6)
        retained = video_ttm(one_window, prune_rate=0.8)
        assert np.count_nonzero(retained) / 40 == 0.40


def _brute_force_tds(scores, chunks, ids, k, lam, max_chunk):
    n = len(scores)
    k = min(k, n)
    if k == 0:
        return set(), set()
    best = 0
    for i in range(1, n):
        if scores[i] > scores[best] or (scores[i] == scores[best] and ids[i] < ids[best]):
            best = i
    c_max = chunks[best]
    order = sorted(range(n), key=lambda i: (scores[i], ids[i]))
    buffer = order[: min(2 * k, n)]
    rescored = sorted(
        (scores[i] + lam * (abs(c_max - chunks[i]) / max_chunk if max_chunk > 0 else 0.0), ids[i])
        for i in buffer
    )
    return {tid for _, tid in rescored[:k]}, {ids[i] for i in buffer}


def test_criterion_4_tds_matches_brute_force():
    with criterion(4, "tds_select equals the brute-force oracle on 1000 random instances"):
        start = time.perf_counter()
        rng = Rng(4242)
        for trial in range(1000):
            n = 1 + rng.below(64)
            n_chunks = 1 + rng.below(8)
            scores = [rng.uniform() for _ in range(n)]
            chunks = [rng.below(n_chunks) for _ in range(n)]
            ids = list(range(n))
            k = rng.below(n + 1)
            lam = rng.uniform() * 0.5
            max_chunk = n_chunks - 1
            columns = TokenTable(id=ids, modality=[Modality.VIDEO.code] * n, chunk=chunks)
            values = np.array(scores)
            got = tds_select(columns, values, k, TdsConfig(lambda_div=lam, start_layer=0), max_chunk)
            expected, buffer = _brute_force_tds(scores, chunks, ids, k, lam, max_chunk)
            assert got.dtype == np.int64 and got.tolist() == sorted(expected)
            assert len(got) == min(k, n)
            assert set(got.tolist()) <= buffer or k == 0
            with_zero = tds_select(columns, values, k, TdsConfig(lambda_div=0.0, start_layer=0), max_chunk)
            assert with_zero.tolist() == plain_select(columns, values, k).tolist()
        assert time.perf_counter() - start < 10.0


def _random_harness_config(rng: Rng):
    heads = (1, 2, 4)[rng.below(3)]
    d = heads * (4 + rng.below(5))  # divisible by heads, 4..32ish
    layers = 3 + rng.below(6)  # 3..8
    sys_len = rng.below(4)
    query_len = 1 + rng.below(4)
    m = 1 + rng.below(3)
    budget = 190 - sys_len - query_len
    per_chunk = max(2, budget // m)
    frames = (1, 2, 4)[rng.below(3)]
    tokens_per_frame = 1 + rng.below(max(1, per_chunk // (2 * frames)))
    n_v = frames * tokens_per_frame
    n_a = max(1, min(per_chunk - n_v, 1 + rng.below(per_chunk)))
    chunks = [ChunkSpec(n_v, n_a)] * m
    selector = (Selector.PLAIN, Selector.TDS, Selector.RANDOM)[rng.below(3)]
    sched = PruneScheduleConfig(
        p_init=0.0,
        p_final=rng.uniform() * 0.5,
        t_mid=0.5,
        beta=20.0,
        layers=layers,
    )
    tds = TdsConfig(lambda_div=0.2, start_layer=rng.below(layers + 1))
    use_intra = rng.below(3) == 0
    return dict(
        sys_len=sys_len, chunks=chunks, query_len=query_len, d=d,
        seq_seed=rng.below(1 << 32), model_seed=rng.below(1 << 32),
        heads=heads, layers=layers, sched=sched, tds=tds, selector=selector,
        frames=frames, use_intra=use_intra,
    )


def test_criterion_5_harness_structural_invariants(tmp_path):
    with criterion(5, "100 random harness configs satisfy all structural invariants"):
        start = time.perf_counter()
        rng = Rng(555)
        for case in range(100):
            cfg = _random_harness_config(rng)
            seq = build_sequence(
                cfg["sys_len"], cfg["chunks"], cfg["query_len"], cfg["d"], cfg["seq_seed"]
            )
            assert seq.n <= 200
            model = ToyDecoder(cfg["layers"], cfg["heads"], cfg["d"], cfg["model_seed"])
            intra = (
                make_intra_plan(seq, 0.7, 0.8, cfg["frames"], cfg["seq_seed"])
                if cfg["use_intra"]
                else None
            )
            dumped: list[AttentionRecord] = []
            trace = run_with_pruning(
                seq, model, cfg["sched"], cfg["tds"], cfg["selector"], intra,
                observer=dumped.append,
            )
            full_maps = oracle_maps(seq, model, trace, dumped, intra)

            # Text tokens survive every layer.
            text_ids = set(seq.tokens.id[seq.tokens.is_text].tolist())
            for rec in trace.layers:
                assert not (set(rec.pruned_ids) & text_ids)
                assert rec.n_text == len(text_ids)

            # Survivor counts strictly follow k_l.
            for prev, cur in zip(trace.layers, trace.layers[1:]):
                assert cur.n_audio + cur.n_video == prev.n_audio + prev.n_video - prev.k_l

            # Attention rows sum to one before restriction; causal zeros exact.
            for avg in full_maps:
                sums = np.sum(avg, axis=1, dtype=np.float64)
                assert np.all(np.abs(sums - 1.0) < 1e-5)
                assert np.all(avg[np.triu_indices(avg.shape[0], k=1)] == 0.0)

            # Repeat run: identical digest.
            again = run_with_pruning(seq, model, cfg["sched"], cfg["tds"], cfg["selector"], intra)
            assert again.digest == trace.digest

            # Dump -> inject round trip: identical digest.
            if case % 10 == 0:
                # Push every tenth case through the binary tensor files.
                att_dir = tmp_path / f"case_{case}"
                att_dir.mkdir()
                reloaded = []
                for rec in dumped:
                    tensorio.write_tensor(att_dir / f"l{rec.layer}.omtn", rec.values)
                    tensorio.write_ids(att_dir / f"l{rec.layer}.ids", rec.col_ids)
                    reloaded.append(
                        AttentionRecord(
                            layer=rec.layer,
                            col_ids=tensorio.read_ids(att_dir / f"l{rec.layer}.ids"),
                            values=tensorio.read_tensor(att_dir / f"l{rec.layer}.omtn"),
                        )
                    )
            else:
                reloaded = dumped
            replayed = run_with_injected_attention(
                seq, reloaded, cfg["sched"], cfg["tds"], cfg["selector"], intra,
                replay_seed=model.seed,
            )
            assert replayed.digest == trace.digest
        assert time.perf_counter() - start < 60.0


def test_criterion_6_metric_sanity():
    with criterion(6, "recall identities exact; attention-term cost ratio is r^2 within 1e-9"):
        for rows, cols in ((2, 5), (1, 6), (4, 5), (3, 7)):
            entries = rows * cols
            expected = math.ceil(0.2 * entries) / entries
            assert top20_recall(np.ones((rows, cols))) == expected

        one_hot = np.zeros((3, 4))
        one_hot[1, 2] = 1.0
        assert top20_recall(one_hot) == 1.0

        trace = constant_retention_trace(layers=8, n0_av=100, later_av=50)
        report = cost_model(trace, d=64, bytes_per_element=2)
        for row in report["per_layer"][1:]:
            assert abs(row["attention_flops"] / row["baseline_attention_flops"] - 0.5**2) < 1e-9


def test_criterion_7_cosine_separation():
    with criterion(7, "synthetic embeddings reproduce the modality-separation diagnostic"):
        tokens = TokenTable.from_runs(
            [(Modality.VIDEO, 450, 0), (Modality.AUDIO, 450, 0), (Modality.QUERY_TEXT, 100, None)]
        )
        emb = synth_embeddings(tokens, d=64, subspace_dim=8, noise_scale=0.3, seed=2026)
        video, audio = emb[:450], emb[450:900]
        cross = (video @ audio.T).ravel()
        intra_pairs = np.concatenate(
            [
                (video @ video.T)[np.triu_indices(450, k=1)],
                (audio @ audio.T)[np.triu_indices(450, k=1)],
            ]
        )
        assert np.quantile(cross, 0.95) < 0.3
        assert intra_pairs.mean() > cross.mean()


def test_criterion_8_out_of_scope_statement():
    with criterion(8, "benchmark accuracy and measured latency are out of scope by design"):
        # Desk-scale stand-ins only: no benchmark datasets, no real model
        # weights, no wall-clock measurement anywhere in the package. The
        # analytic cost report is the only efficiency quantity produced.
        import avprune

        assert not hasattr(avprune, "benchmark")
        assert not hasattr(avprune, "measure_latency")
        report = cost_model(constant_retention_trace(4, 10, 4), d=8, bytes_per_element=2)
        assert "analytic" not in report  # plain numbers, no timers
        assert report["note"].startswith("mul-add counted")
