import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import avprune
from avprune import LayerRecord, PruneTrace, cli, tensorio
from avprune.cli import main
from avprune.config import ExperimentConfig, load_config_file
from avprune.schedule import _BISECTION_TOL
from avprune.sequence import read_token_modalities
from tests.test_metrics import constant_retention_trace, zero_schedule_trace
from tests.test_schedule import SOLVED_WITHOUT_A_CLOSED_FORM

SMALL_CONFIG = {
    "sequence": {"sys_len": 1, "chunks": 2, "n_v": 8, "n_a": 4, "query_len": 2, "d": 16, "seed": 0},
    "model": {"layers": 4, "heads": 2, "d": 16, "seed": 1},
    "schedule": {"p_final": 0.5},
    "tds": {"start_layer": 2},
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCalibrate:
    def test_canonical_target_values(self, capsys):
        code, out = run_cli(capsys, "calibrate", "--target", "0.30", "--r0", "0.45", "--layers", "28")
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert abs(float(values["closed_form_p_final"]) - 0.1452) <= 0.0005
        assert abs(float(values["achieved_mean"]) - 0.30) < 1e-4

    def test_target_equal_r0_rejected(self, capsys):
        code, _ = run_cli(capsys, "calibrate", "--target", "0.45", "--r0", "0.45", "--layers", "28")
        assert code == 1

    def test_tiny_gap_target(self, capsys):
        code, out = run_cli(capsys, "calibrate", "--target", "0.44", "--r0", "0.45", "--layers", "28")
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert abs(float(values["achieved_mean"]) - 0.44) < 1e-4

    def test_infeasible_exits_2(self, capsys):
        code, _ = run_cli(capsys, "calibrate", "--target", "0.001", "--r0", "0.45", "--layers", "28")
        assert code == 2

    @pytest.mark.parametrize("target, r0, layers, beta", SOLVED_WITHOUT_A_CLOSED_FORM)
    def test_undefined_closed_form_is_reported_not_refused(self, capsys, target, r0, layers, beta):
        argv = ["--target", str(target), "--r0", str(r0), "--layers", str(layers), "--beta", str(beta)]
        code, out = run_cli(capsys, "calibrate", *argv)
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert values["closed_form_p_final"] == "undefined"
        # Within the bisection's tolerance, plus the rounding of six printed decimals.
        assert abs(float(values["achieved_mean"]) - target) <= _BISECTION_TOL + 5e-7

    def test_exit_2_means_the_bisection_cannot_reach_the_target(self, capsys):
        assert main(["calibrate", "--target", "0.2", "--r0", "1.0", "--layers", "28"]) == 2
        assert "error: mean at p_final=0.999 still above target 0.2" in capsys.readouterr().err

    def test_infinite_beta_exits_1(self, capsys):
        argv = ["calibrate", "--target", "0.3", "--r0", "0.45", "--layers", "28", "--beta", "inf"]
        assert main(argv) == 1
        assert "beta" in capsys.readouterr().err

    def test_t_mid_is_not_a_calibrate_flag(self, capsys):
        argv = ["calibrate", "--target", "0.3", "--r0", "0.45", "--layers", "28", "--t-mid", "0.5"]
        assert main(argv) == 1
        assert "unrecognized arguments: --t-mid 0.5" in capsys.readouterr().err


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate"], "required: --out"),
            (["simulate", "--out", "x", "--runs", "abc"], "--runs: invalid int value: 'abc'"),
            ([], "required: command"),
            (["no-such-command"], "invalid choice"),
        ],
    )
    def test_malformed_command_line_exits_1(self, capsys, argv, message):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sets, key",
        [
            (["sequence.n_a=100000000000000000000"], "sequence.n_a"),
            (["sequence.d=100000000000000000000", "model.d=100000000000000000000"], "sequence.d"),
            (["model.layers=100000000000000000000"], "model.layers"),
            (["sequence.sys_len=4611686018427387904"], "sequence.sys_len"),  # its (n0, n0) float32 scores
        ],
    )
    def test_sizes_numpy_cannot_hold_exit_1_naming_the_key(self, tmp_path, sets, key):
        env = dict(os.environ, PYTHONPATH=str(Path(avprune.__file__).parents[1]))
        argv = [sys.executable, "-m", "avprune.cli", "simulate", "--out", str(tmp_path / "o")]
        done = subprocess.run([*argv, *(f"--set={s}" for s in sets)], env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert f"{key}: " in done.stderr and "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out

    def test_the_shared_parser_keeps_no_state_between_calls(self, capsys, small_config, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        runs = {"a": ["--set", "sequence.seed=5", "--set", "model.layers=3"], "b": ["--set", "model.seed=9"]}
        for name, overrides in runs.items():
            assert main(["simulate", "--config", small_config, "--out", str(tmp_path / name), *overrides]) == 0
        a, b = (json.loads((tmp_path / name / "config.json").read_text())["config"] for name in runs)
        assert (a["sequence"]["seed"], a["model"]["layers"], a["model"]["seed"]) == (5, 3, 1)
        assert (b["sequence"]["seed"], b["model"]["layers"], b["model"]["seed"]) == (0, 4, 9)

        assert main(["simulate", "--out", str(tmp_path / "c"), "--runs", "abc"]) == 1
        assert main(["simulate", "--config", small_config, "--out", str(tmp_path / "c")]) == 0
        c = json.loads((tmp_path / "c" / "config.json").read_text())["config"]
        assert (c["sequence"]["seed"], c["model"]["layers"], c["model"]["seed"]) == (0, 4, 1)


class TestSchedule:
    def test_default_sigmoid_rows_and_mean(self, capsys):
        code, out = run_cli(
            capsys, "schedule", "--p-init", "0", "--p-final", "0.2", "--layers", "28", "--r0", "0.45"
        )
        assert code == 0
        lines = out.strip().splitlines()
        data_rows = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("layer")]
        assert len(data_rows) == 28
        mean = float(lines[-1].split("=")[1])
        assert 0.27 <= mean <= 0.31

    def test_zero_schedule_constant_column(self, capsys):
        code, out = run_cli(
            capsys, "schedule", "--p-init", "0", "--p-final", "0", "--layers", "5", "--r0", "0.5"
        )
        assert code == 0
        retentions = {
            line.split(",")[2]
            for line in out.strip().splitlines()
            if line[0].isdigit()
        }
        assert retentions == {"0.500000000"}

    def test_exponential_endpoints(self, capsys):
        code, out = run_cli(
            capsys,
            "schedule", "--kind", "exponential", "--p-init", "0.02", "--p-final", "0.5",
            "--layers", "28", "--r0", "0.45",
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines() if ln[0].isdigit()]
        assert float(rows[0][1]) == pytest.approx(0.02)
        assert float(rows[26][1]) == pytest.approx(0.5)

    def test_nan_beta_exits_1(self, capsys):
        assert main(["schedule", "--beta", "nan", "--layers", "6"]) == 1
        assert "beta" in capsys.readouterr().err

    def test_bad_config_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(capsys, "schedule", "--config", str(bad))
        assert code == 1

    @pytest.mark.parametrize("blob", [b"\xff{}", b"[" * 100_000], ids=["not-utf8", "too-deep"])
    def test_undecodable_config_file_exits_1(self, capsys, tmp_path, blob):
        bad = tmp_path / "bad.json"
        bad.write_bytes(blob)
        assert main(["schedule", "--config", str(bad)]) == 1
        assert f"{bad}: not UTF-8 JSON" in capsys.readouterr().err

    def test_missing_config_file_exits_1_naming_it(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        assert main(["schedule", "--config", str(missing)]) == 1
        assert f"{missing}: cannot read" in capsys.readouterr().err

    def test_flags_override_the_config_file(self, capsys, small_config, tmp_path):
        code, out = run_cli(capsys, "schedule", "--config", small_config, "--p-final", "0.9", "--layers", "3")
        assert code == 0
        assert len([ln for ln in out.splitlines() if ln[0].isdigit()]) == 3
        same = dict(SMALL_CONFIG, schedule={"p_final": 0.9}, model=dict(SMALL_CONFIG["model"], layers=3))
        path = tmp_path / "same.json"
        path.write_text(json.dumps(same))
        assert run_cli(capsys, "schedule", "--config", str(path)) == (0, out)

    def test_header_is_the_config_digest(self, capsys, tmp_path):
        code, out = run_cli(capsys, "simulate", "--out", str(tmp_path))
        assert code == 0
        config_digest = out.splitlines()[0]
        code, out = run_cli(capsys, "schedule")
        assert code == 0
        assert out.splitlines()[0] == f"# {config_digest}"


class TestSimulate:
    def test_deterministic_rerun_overwrites_byte_identically(self, capsys, small_config, tmp_path):
        out_dir = tmp_path / "out"
        code1, out1 = run_cli(capsys, "simulate", "--config", small_config, "--out", str(out_dir))
        snapshot = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        code2, out2 = run_cli(capsys, "simulate", "--config", small_config, "--out", str(out_dir))
        assert code1 == code2 == 0
        assert out1 == out2
        for name, blob in snapshot.items():
            assert (out_dir / name).read_bytes() == blob

    def test_dump_inject_round_trip(self, capsys, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        code, out = run_cli(
            capsys, "simulate", "--config", small_config, "--out", str(a), "--dump-attention"
        )
        assert code == 0
        digest = [ln for ln in out.splitlines() if ln.startswith("trace_digest=")][0]
        code2, out2 = run_cli(
            capsys, "simulate", "--config", small_config, "--out", str(b),
            "--inject", str(a / "attention"),
        )
        assert code2 == 0
        digest2 = [ln for ln in out2.splitlines() if ln.startswith("trace_digest=")][0]
        assert digest == digest2
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()

    def test_replayed_dump_redumps_the_same_maps(self, capsys, small_config, tmp_path):
        a, b, c = (tmp_path / name for name in "abc")
        sim = ["simulate", "--config", small_config]
        digests = []
        for out, extra in ((a, []), (b, ["--inject", str(a / "attention")]), (c, ["--inject", str(b / "attention")])):
            code, text = run_cli(capsys, *sim, "--out", str(out), "--dump-attention", *extra)
            assert code == 0
            digests.append([ln for ln in text.splitlines() if ln.startswith("trace_digest=")])
        assert digests[0] == digests[1] == digests[2]
        layer_files = sorted(p.name for p in (a / "attention").glob("layer_*"))
        assert len(layer_files) == 2 * SMALL_CONFIG["model"]["layers"]
        assert sorted(p.name for p in (b / "attention").glob("layer_*")) == layer_files
        for name in layer_files:
            assert (b / "attention" / name).read_bytes() == (a / "attention" / name).read_bytes()

    def test_missing_config_file_exits_1_naming_it(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        assert f"{missing}: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_module_runs_the_cli(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(avprune.__file__).parents[1]))
        argv = [sys.executable, "-m", "avprune.cli", "simulate", "--config", str(tmp_path / "absent.json")]
        done = subprocess.run([*argv, "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert "absent.json: cannot read" in done.stderr

    def test_import_leaves_the_process_pool_out(self):
        # Only a multi-run fan-out with workers > 1 needs the pool; every other start skips its import.
        env = dict(os.environ, PYTHONPATH=str(Path(avprune.__file__).parents[1]))
        code = "import sys, avprune.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (0, "False\n")

    def test_import_leaves_statistics_out(self):
        # statistics pulls in fractions and decimal; mean_retention is math.fsum over the count, as its fmean.
        env = dict(os.environ, PYTHONPATH=str(Path(avprune.__file__).parents[1]))
        code = "import sys, avprune.cli; print('statistics' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (0, "False\n")

    def test_random_selector_stable(self, capsys, small_config, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            _, out = run_cli(
                capsys, "simulate", "--config", small_config, "--selector", "random",
                "--out", str(tmp_path / name),
            )
            outs.append(out)
        assert outs[0] == outs[1]

    def test_set_override_changes_digest(self, capsys, small_config, tmp_path):
        _, out1 = run_cli(capsys, "simulate", "--config", small_config, "--out", str(tmp_path / "x"))
        _, out2 = run_cli(
            capsys, "simulate", "--config", small_config, "--out", str(tmp_path / "y"),
            "--set", "sequence.seed=9",
        )
        assert out1 != out2

    def test_intra_enabled_run(self, capsys, tmp_path):
        config = json.loads(json.dumps(SMALL_CONFIG))
        config["intra"] = {"enabled": True, "frames_per_chunk": 4, "tokens_per_frame": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _ = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == 0
        trace, _ = tensorio.read_trace_jsonl(tmp_path / "out" / "trace.jsonl")
        assert trace.layers[0].n_audio + trace.layers[0].n_video < 24

    def test_multi_run_fanout(self, capsys, small_config, tmp_path):
        out_dir = tmp_path / "fan"
        code, out = run_cli(
            capsys, "simulate", "--config", small_config, "--out", str(out_dir), "--runs", "2"
        )
        assert code == 0
        assert (out_dir / "run_0000" / "trace.jsonl").exists()
        assert (out_dir / "run_0001" / "trace.jsonl").exists()
        lines = [ln for ln in out.splitlines() if "trace_digest=" in ln]
        assert len(lines) == 2
        assert lines[0].split("=")[1] != lines[1].split("=")[1]  # different seeds

    def test_worker_pool_matches_inline_fanout(self, capsys, small_config, tmp_path):
        _, inline = run_cli(
            capsys, "simulate", "--config", small_config, "--out", str(tmp_path / "inline"),
            "--runs", "2",
        )
        _, pooled = run_cli(
            capsys, "simulate", "--config", small_config, "--out", str(tmp_path / "pooled"),
            "--runs", "2", "--set", "workers=2",
        )
        # Same per-run digests regardless of how the work was scheduled.
        assert [ln.split("=")[1] for ln in inline.splitlines()] == [
            ln.split("=")[1] for ln in pooled.splitlines()
        ]

    def test_invalid_override_exits_1(self, capsys, small_config, tmp_path):
        code, _ = run_cli(
            capsys, "simulate", "--config", small_config, "--out", str(tmp_path / "z"),
            "--set", "schedule.p_final=2.0",
        )
        assert code == 1

    def test_unwritable_out_dir_exits_3(self, capsys, small_config, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, _ = run_cli(
            capsys, "simulate", "--config", small_config, "--out", str(blocker / "sub")
        )
        assert code == 3

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_exits_1(self, capsys, small_config, tmp_path, runs):
        code = main(["simulate", "--config", small_config, "--out", str(tmp_path / "r"), "--runs", runs])
        assert code == 1
        assert "--runs" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_inject_with_several_runs_exits_1_before_writing(self, capsys, small_config, tmp_path):
        dump = tmp_path / "a"
        assert main(["simulate", "--config", small_config, "--out", str(dump), "--dump-attention"]) == 0
        capsys.readouterr()
        argv = ["simulate", "--config", small_config, "--out", str(tmp_path / "r")]
        assert main([*argv, "--runs", "2", "--inject", str(dump / "attention")]) == 1
        err = capsys.readouterr().err
        assert "--inject" in err and "--runs 2" in err
        assert not (tmp_path / "r").exists()

    def test_pool_size_is_capped_by_runs_and_cpus(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert cli.pool_size(workers=4, runs=3) == 2
        assert cli.pool_size(workers=4, runs=1) == 1
        assert cli.pool_size(workers=1, runs=3) == 1
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.pool_size(workers=4, runs=3) == 1

    @pytest.mark.parametrize("bad", [float("nan"), -0.25])
    def test_invalid_injected_attention_exits_4(self, capsys, small_config, tmp_path, bad):
        dump = tmp_path / "dump"
        assert main(["simulate", "--config", small_config, "--out", str(dump), "--dump-attention"]) == 0
        layer = dump / "attention" / "layer_0001.omtn"
        values = tensorio.read_tensor(layer)
        values[0, 0] = bad
        tensorio.write_tensor(layer, values)
        capsys.readouterr()
        argv = ["simulate", "--config", small_config, "--out", str(tmp_path / "x")]
        code = main(argv + ["--inject", str(dump / "attention")])
        assert code == 4
        assert "layer_0001.omtn" in capsys.readouterr().err

    def test_injected_row_sum_above_one_exits_4(self, capsys, small_config, tmp_path):
        dump = tmp_path / "dump"
        assert main(["simulate", "--config", small_config, "--out", str(dump), "--dump-attention"]) == 0
        layer = dump / "attention" / "layer_0001.omtn"
        values = tensorio.read_tensor(layer)
        scaled = values / values.max()  # still within [0, 1], but no longer a softmax share
        assert scaled.sum(axis=1).max() > 1.0 + 1e-4
        tensorio.write_tensor(layer, scaled)
        capsys.readouterr()
        argv = ["simulate", "--config", small_config, "--out", str(tmp_path / "x")]
        code = main(argv + ["--inject", str(dump / "attention")])
        assert code == 4
        err = capsys.readouterr().err
        assert "layer_0001.omtn" in err and "row" in err

    def test_injected_repeated_id_exits_4(self, capsys, small_config, tmp_path):
        dump = tmp_path / "dump"
        assert main(["simulate", "--config", small_config, "--out", str(dump), "--dump-attention"]) == 0
        layer, ids_path = dump / "attention" / "layer_0001.omtn", dump / "attention" / "layer_0001.ids"
        ids = tensorio.read_ids(ids_path)
        values = tensorio.read_tensor(layer)
        tensorio.write_ids(ids_path, np.append(ids, ids[0]))
        tensorio.write_tensor(layer, np.hstack([values, np.zeros((values.shape[0], 1), np.float32)]))
        capsys.readouterr()
        argv = ["simulate", "--config", small_config, "--out", str(tmp_path / "x")]
        assert main(argv + ["--inject", str(dump / "attention")]) == 4
        err = capsys.readouterr().err
        assert f"layer_0001.omtn: layer 1: token id {ids[0]} names more than one column" in err

    @pytest.mark.parametrize("big", ["9223372036854775808", "9999999999999999999"])
    def test_injected_id_past_int64_exits_4(self, capsys, small_config, tmp_path, big):
        dump = tmp_path / "dump"
        assert main(["simulate", "--config", small_config, "--out", str(dump), "--dump-attention"]) == 0
        ids_path = dump / "attention" / "layer_0002.ids"
        blob = ids_path.read_bytes()
        # The first id as u64: 2**63 or more reads as a negative int64.
        ids_path.write_bytes(blob[:8] + np.array([int(big)], "<u8").tobytes() + blob[16:])
        capsys.readouterr()
        argv = ["simulate", "--config", small_config, "--out", str(tmp_path / "x")]
        assert main(argv + ["--inject", str(dump / "attention")]) == 4
        assert "layer_0002.ids: token ids must lie in [0, 2**63)" in capsys.readouterr().err

    def test_text_sidecar_exits_4(self, capsys, small_config, tmp_path):
        # Sidecars were once one decimal id per line; such a dump is refused, not misread.
        dump = tmp_path / "dump"
        assert main(["simulate", "--config", small_config, "--out", str(dump), "--dump-attention"]) == 0
        ids_path = dump / "attention" / "layer_0002.ids"
        ids_path.write_text("".join(f"{i}\n" for i in tensorio.read_ids(ids_path).tolist()))
        capsys.readouterr()
        argv = ["simulate", "--config", small_config, "--out", str(tmp_path / "x")]
        assert main(argv + ["--inject", str(dump / "attention")]) == 4
        err = capsys.readouterr().err
        assert "layer_0002.ids: not an OMID version 1 id sidecar" in err and "Traceback" not in err

    @pytest.mark.parametrize("gone", ["layer_0005.ids", "layer_0005.omtn"])
    def test_missing_layer_file_exits_1(self, capsys, small_config, tmp_path, gone):
        argv = ["simulate", "--config", small_config, "--set", "model.layers=6"]
        dump = tmp_path / "dump"
        assert main([*argv, "--out", str(dump), "--dump-attention"]) == 0
        (dump / "attention" / gone).unlink()
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "x"), "--inject", str(dump / "attention")]) == 1
        assert f"missing attention files for layer 5 in {dump / 'attention'}" in capsys.readouterr().err

    def test_missing_sidecar_outranks_a_malformed_tensor(self, capsys, small_config, tmp_path):
        dump = tmp_path / "dump"
        assert main(["simulate", "--config", small_config, "--out", str(dump), "--dump-attention"]) == 0
        (dump / "attention" / "layer_0002.omtn").write_bytes(b"NOPE")
        (dump / "attention" / "layer_0002.ids").unlink()
        capsys.readouterr()
        argv = ["simulate", "--config", small_config, "--out", str(tmp_path / "x")]
        assert main([*argv, "--inject", str(dump / "attention")]) == 1
        assert "missing attention files for layer 2 in" in capsys.readouterr().err

    def test_missing_inject_dir_exits_1(self, capsys, small_config, tmp_path):
        code, _ = run_cli(
            capsys, "simulate", "--config", small_config, "--out", str(tmp_path / "w"),
            "--inject", str(tmp_path / "nowhere"),
        )
        assert code == 1

    def test_stale_dump_is_not_replayed(self, capsys, small_config, tmp_path):
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", small_config, "--out", out, "--dump-attention"]) == 0
        other = ["simulate", "--config", small_config, "--set", "schedule.p_final=0.3"]
        assert main([*other, "--out", out]) == 0
        capsys.readouterr()
        assert main([*other, "--out", str(tmp_path / "x"), "--inject", f"{out}/attention"]) == 1
        assert "no manifest.json" in capsys.readouterr().err

    def test_dump_replayed_with_other_layer_count_exits_4(self, capsys, small_config, tmp_path):
        dump = tmp_path / "dump"
        assert main(["simulate", "--config", small_config, "--out", str(dump), "--dump-attention"]) == 0
        capsys.readouterr()
        argv = ["simulate", "--config", small_config, "--out", str(tmp_path / "x")]
        code = main(argv + ["--set", "model.layers=3", "--inject", str(dump / "attention")])
        assert code == 4
        assert "manifest.json" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def default_dump(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("default")
        assert main(["simulate", "--out", str(out), "--dump-attention"]) == 0
        return out / "attention"

    @pytest.mark.parametrize(
        "override", ["sequence.seed=5", "sequence.d=16", "intra.enabled=true", "sequence.chunks=1"]
    )
    def test_replay_under_another_layout_exits_4_naming_the_manifest(self, capsys, tmp_path, default_dump, override):
        # sequence.seed and sequence.d keep every count, so layer 0's column check cannot see them.
        argv = ["simulate", "--out", str(tmp_path / "x"), "--inject", str(default_dump), "--set", override]
        if override == "sequence.d=16":
            argv += ["--set", "model.d=16"]
        capsys.readouterr()
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {default_dump / 'manifest.json'}: layout digest ")
        assert not any((tmp_path / "x").iterdir())

    @pytest.mark.parametrize("stamp", [None, "1feea8ec49fc45a7", 7])
    def test_manifest_without_the_layout_digest_exits_4(self, capsys, tmp_path, default_dump, stamp):
        dump = tmp_path / "dump"
        shutil.copytree(default_dump, dump)
        manifest = json.loads((dump / "manifest.json").read_text(encoding="utf-8"))
        manifest.pop("layout_digest")
        if stamp is not None:
            manifest["layout_digest"] = stamp
        (dump / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["simulate", "--out", str(tmp_path / "x"), "--inject", str(dump)]) == 4
        assert f": layout digest {stamp!r}, but sequence and intra give " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, entering, settings",
        [("intra.enabled=true", 300, "chunks=2, intra=on"), ("sequence.chunks=1", 338, "chunks=1, intra=off")],
    )
    def test_replay_under_another_layout_names_layer_0(
        self, capsys, tmp_path, default_dump, override, entering, settings
    ):
        # A manifest stamped with the other layout's digest gets past the
        # manifest check; layer 0's columns still refuse the dump.
        dump = tmp_path / "dump"
        shutil.copytree(default_dump, dump)
        manifest = json.loads((dump / "manifest.json").read_text(encoding="utf-8"))
        key, value = override.split("=")
        manifest["layout_digest"] = ExperimentConfig.resolve(overrides={key: json.loads(value)}).layout_digest
        (dump / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        argv = ["simulate", "--out", str(tmp_path / "x"), "--set", override, "--inject", str(dump)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: layer 0: the attention columns (676) are not the {entering} ")
        assert f"({settings})" in err

    @pytest.mark.parametrize("layers", [53, 56])
    @pytest.mark.parametrize("selector", ["plain", "tds", "random"])
    def test_non_finite_forward_attention_exits_4_naming_the_layer(self, tmp_path, selector, layers):
        # From 53 layers on, float32 overflow makes layer 52's attention non-finite at the
        # default config, whether or not that layer prunes. In a subprocess, because the
        # overflow's RuntimeWarnings are errors under pytest.
        env = dict(os.environ, PYTHONPATH=str(Path(avprune.__file__).parents[1]))
        argv = [sys.executable, "-m", "avprune.cli", "simulate", "--selector", selector]
        argv += ["--set", f"model.layers={layers}", "--out", str(tmp_path / "o")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 4
        assert "error: layer 52: attention values must be finite and within [0, 1]" in done.stderr

    @pytest.mark.parametrize(
        "override, key",
        [
            ("sequence=5", "sequence"),
            ("tds.lambda_div=Infinity", "tds.lambda_div"),
            ("schedule.beta=Infinity", "schedule.beta"),
        ],
    )
    def test_bad_set_value_exits_1_before_any_output(self, capsys, small_config, tmp_path, override, key):
        out = tmp_path / "out"
        assert main(["simulate", "--config", small_config, "--out", str(out), "--set", override]) == 1
        assert f"error: {key}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1" * 5000, "[" * 100_000], ids=["5000-digits", "100000-brackets"])
    def test_set_value_the_json_parser_refuses_exits_1_naming_the_key(self, capsys, tmp_path, value):
        # json.loads raises ValueError past 4300 digits and RecursionError on deep nesting.
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--set", f"sequence.seed={value}"]) == 1
        err = capsys.readouterr().err
        assert "error: sequence.seed:" in err and "Traceback" not in err
        assert not out.exists()

    def test_empty_section_value_runs_the_default(self, capsys, tmp_path):
        code, out = run_cli(capsys, "simulate", "--out", str(tmp_path / "o"), "--set", "schedule={}")
        assert code == 0
        assert "trace_digest=1feea8ec49fc45a7" in out.splitlines()

    def test_section_value_merges_like_dotted_keys(self, capsys, small_config, tmp_path):
        outs = [
            run_cli(capsys, "simulate", "--config", small_config, "--out", str(tmp_path / name), "--set", value)
            for name, value in (("a", 'tds={"lambda_div":0.1}'), ("b", "tds.lambda_div=0.1"))
        ]
        assert outs[0] == outs[1] and outs[0][0] == 0


class TestAnalyze:
    def test_recall_on_uniform_map(self, capsys, tmp_path):
        path = tmp_path / "uniform.omtn"
        tensorio.write_tensor(path, np.full((2, 5), 0.2, dtype=np.float32))
        code, out = run_cli(capsys, "analyze", "--metric", "recall", "--attention", str(path))
        assert code == 0
        assert json.loads(out)["recall"] == pytest.approx(0.2)

    def test_retention_of_zero_schedule(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        tensorio.write_trace_jsonl(path, zero_schedule_trace(), config_digest="cfg")
        code, out = run_cli(capsys, "analyze", "--metric", "retention", "--trace", str(path))
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines() if ln[0].isdigit()]
        assert all(float(r[1]) == 1.0 and float(r[2]) == 1.0 for r in rows)

    def test_cosine_single_bin(self, capsys, tmp_path):
        emb = tmp_path / "emb.omtn"
        tokens = tmp_path / "tokens.jsonl"
        tensorio.write_tensor(emb, np.tile(np.array([1.0, 2.0], dtype=np.float32), (4, 1)))
        with open(tokens, "w") as fh:
            for i in range(4):
                fh.write(json.dumps({"id": i, "modality": "audio", "chunk_index": 0, "original_position": i}) + "\n")
        code, out = run_cli(
            capsys, "analyze", "--metric", "cosine", "--embeddings", str(emb),
            "--tokens", str(tokens), "--pair", "AA",
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines() if not ln.startswith(("#", "bin"))]
        assert sum(int(r[2]) for r in rows) == 6
        top_bin = [r for r in rows if r[0] == "0.95"][0]
        assert int(top_bin[2]) == 6

    def test_pca_reports_eigenvalues(self, capsys, tmp_path):
        emb = tmp_path / "emb.omtn"
        rng = np.random.default_rng(0)
        tensorio.write_tensor(emb, rng.normal(size=(50, 3)).astype(np.float32))
        code, out = run_cli(capsys, "analyze", "--metric", "pca", "--embeddings", str(emb))
        assert code == 0
        header = out.splitlines()[0]
        ev1, ev2 = map(float, header.split("=")[1].split(","))
        assert ev1 >= ev2 >= 0.0
        assert len(out.strip().splitlines()) == 52

    def test_missing_required_input_exits_4(self, capsys):
        code, _ = run_cli(capsys, "analyze", "--metric", "recall")
        assert code == 4

    def test_missing_input_file_exits_4(self, capsys, tmp_path):
        assert main(["analyze", "--metric", "pca", "--embeddings", str(tmp_path / "nope.omtn")]) == 4
        assert "nope.omtn" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            (["5"], 1),
            (["{bad"], 1),
            (['{"modality": ["audio"]}'], 1),
            (['{"modality": "audio"}, {"modality": "video"}'], 1),  # two records on one line
            (['{"modality": null}'], 1),
            (['{"modality": {"a": 1}}'], 1),
            (['{"modality": "audio"}', "", '{"id": 3}'], 3),
            # One record split over two lines, balanced by a line that holds
            # two values; the second also survives wrapping as "[[" + "],[".join(lines) + "]]".
            (['{"modality": "audio"}, {"config_digest": [1', "2]}"], 1),
            (['{"modality": "audio", "x": [[1', "2]]}", '{"config_digest": 1}],[{"config_digest": 2}'], 1),
        ],
    )
    def test_malformed_tokens_file_exits_4(self, capsys, tmp_path, lines, bad_line):
        emb = tmp_path / "emb.omtn"
        tokens = tmp_path / "tokens.jsonl"
        tensorio.write_tensor(emb, np.ones((2, 2), dtype=np.float32))
        tokens.write_text("".join(line + "\n" for line in lines))
        code = main(["analyze", "--metric", "cosine", "--embeddings", str(emb), "--tokens", str(tokens)])
        assert code == 4
        assert f"{tokens}: line {bad_line}: " in capsys.readouterr().err

    def test_tokens_file_reads_back_as_the_sequence(self, capsys, small_config, tmp_path):
        tokens = tmp_path / "run" / "tokens.jsonl"
        assert main(["simulate", "--config", small_config, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        seq = ExperimentConfig.resolve(load_config_file(small_config)).build_sequence()
        assert tokens.read_text().startswith('{"config_digest": ')
        read = read_token_modalities(tokens)
        assert read.dtype == np.int8 and read.tolist() == seq.tokens.modality.tolist()

    def test_recall_of_an_all_zero_map_exits_4(self, capsys, tmp_path):
        path = tmp_path / "zero.omtn"
        tensorio.write_tensor(path, np.zeros((3, 5), dtype=np.float32))
        assert main(["analyze", "--metric", "recall", "--attention", str(path)]) == 4
        assert f"error: {path}: attention submatrix has no mass" in capsys.readouterr().err

    def test_pca_with_near_equal_eigenvalues_exits_0(self, capsys, tmp_path):
        # The embeddings of simulate --set sequence.chunks=4 --set sequence.seed=908:
        # the second and third eigenvalues, 0.09105 and 0.09081, leave the
        # power iteration out of steps, and eigh gives both axes.
        path, out = tmp_path / "embeddings.omtn", tmp_path / "pca.csv"
        cfg = ExperimentConfig.resolve(overrides={"sequence.chunks": 4, "sequence.seed": 908})
        tensorio.write_tensor(path, cfg.build_sequence().embeddings)
        assert main(["analyze", "--metric", "pca", "--embeddings", str(path), "--out", str(out)]) == 0
        emb = tensorio.read_tensor(path).astype(np.float64)
        centered = emb - emb.mean(axis=0)
        exact = np.linalg.eigvalsh(centered.T @ centered / (len(emb) - 1))[::-1]
        header, columns, *rows = out.read_text().splitlines()
        assert header == f"# eigenvalues={exact[0]:.9f},{exact[1]:.9f}" and columns == "axis1,axis2"
        assert len(rows) == len(emb)

    def test_pca_of_a_nan_row_exits_4(self, capsys, tmp_path):
        path = tmp_path / "emb.omtn"
        emb = np.random.default_rng(0).normal(size=(30, 4)).astype(np.float32)
        emb[3] = np.nan
        tensorio.write_tensor(path, emb)
        assert main(["analyze", "--metric", "pca", "--embeddings", str(path)]) == 4
        assert f"error: {path}: row 3 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_pca_of_an_infinite_entry_exits_4_without_warnings(self, capsys, tmp_path, bad):
        path = tmp_path / "emb.omtn"
        emb = np.random.default_rng(0).normal(size=(30, 4)).astype(np.float32)
        emb[17, 2] = bad
        tensorio.write_tensor(path, emb)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", "--metric", "pca", "--embeddings", str(path)]) == 4
        assert caught == []
        assert f"error: {path}: row 17 is not finite" in capsys.readouterr().err

    def test_cosine_with_a_zero_row_exits_4(self, capsys, tmp_path):
        emb, tokens, out = tmp_path / "emb.omtn", tmp_path / "tokens.jsonl", tmp_path / "hist.csv"
        rows = np.random.default_rng(0).normal(size=(30, 4)).astype(np.float32)
        rows[5] = 0.0
        tensorio.write_tensor(emb, rows)
        modalities = ["video"] * 27 + ["audio"] * 3
        tokens.write_text("".join(json.dumps({"modality": m}) + "\n" for m in modalities))
        argv = ["analyze", "--metric", "cosine", "--pair", "VV", "--embeddings", str(emb), "--tokens", str(tokens)]
        assert main([*argv, "--out", str(out)]) == 4
        assert f"error: {emb}: row 5 is zero or not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_exits_1(self, capsys, tmp_path, cap):
        emb, tokens, out = tmp_path / "emb.omtn", tmp_path / "tokens.jsonl", tmp_path / "hist.csv"
        tensorio.write_tensor(emb, np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32))
        tokens.write_text(json.dumps({"modality": "video"}) + "\n" * 4)
        argv = ["analyze", "--metric", "cosine", "--pair", "VV", "--embeddings", str(emb), "--tokens", str(tokens)]
        assert main([*argv, f"--cap={cap}", "--out", str(out)]) == 1
        assert f"error: --cap must be at least 1, got {cap}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values, per_row, message",
        [
            (np.array([[0.2, np.nan], [np.inf, 0.1]]), False, "must be finite and non-negative"),
            (np.array([[0.5, -0.4], [0.3, 0.2]]), False, "must be finite and non-negative"),
            (np.array([0.5, 0.3, 0.2]), True, "must be a matrix, got a rank-1 tensor"),
        ],
        ids=["non-finite", "negative", "rank-1"],
    )
    def test_recall_of_an_invalid_map_exits_4(self, capsys, tmp_path, values, per_row, message):
        path = tmp_path / "bad.omtn"
        tensorio.write_tensor(path, values.astype(np.float32))
        argv = ["analyze", "--metric", "recall", "--attention", str(path), *(["--per-row"] if per_row else [])]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert f"error: {path}: attention {message}" in captured.err
        assert captured.out == ""

    def test_recall_of_an_empty_map_exits_4(self, capsys, tmp_path):
        path = tmp_path / "empty.omtn"
        tensorio.write_tensor(path, np.zeros((0, 5), dtype=np.float32))
        assert main(["analyze", "--metric", "recall", "--attention", str(path)]) == 4
        assert f"error: {path}: empty attention submatrix" in capsys.readouterr().err

    def test_cosine_with_one_audio_row_exits_4(self, capsys, tmp_path):
        emb, tokens = tmp_path / "emb.omtn", tmp_path / "tokens.jsonl"
        tensorio.write_tensor(emb, np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32))
        tokens.write_text("".join(json.dumps({"modality": m}) + "\n" for m in ["audio", "video", "video", "video"]))
        argv = ["analyze", "--metric", "cosine", "--pair", "AA", "--embeddings", str(emb), "--tokens", str(tokens)]
        assert main(argv) == 4
        assert f"error: {emb}: AA needs at least 2 tokens per modality" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(4,), (4, 2, 2)])
    def test_cosine_of_embeddings_not_a_matrix_exits_4(self, capsys, tmp_path, shape):
        emb, tokens = tmp_path / "emb.omtn", tmp_path / "tokens.jsonl"
        tensorio.write_tensor(emb, np.ones(shape, dtype=np.float32))
        tokens.write_text("".join(json.dumps({"modality": m}) + "\n" for m in ["audio", "audio", "video", "video"]))
        argv = ["analyze", "--metric", "cosine", "--embeddings", str(emb), "--tokens", str(tokens)]
        assert main(argv) == 4
        assert f"error: {emb}: embeddings must be one row per token, got a rank-{len(shape)}" in capsys.readouterr().err

    def test_pca_of_two_rows_exits_4(self, capsys, tmp_path):
        path = tmp_path / "emb.omtn"
        tensorio.write_tensor(path, np.random.default_rng(0).normal(size=(2, 4)).astype(np.float32))
        assert main(["analyze", "--metric", "pca", "--embeddings", str(path)]) == 4
        assert f"error: {path}: pca2 expects a matrix with at least 3 rows" in capsys.readouterr().err

    def test_pca_of_one_column_exits_4(self, capsys, tmp_path):
        path = tmp_path / "emb.omtn"
        tensorio.write_tensor(path, np.arange(5, dtype=np.float32)[:, None])
        assert main(["analyze", "--metric", "pca", "--embeddings", str(path)]) == 4
        assert f"error: {path}: pca2 expects a matrix with at least 3 rows and 2 columns" in capsys.readouterr().err

    def test_schema_mismatch_exits_4(self, capsys, tmp_path):
        emb = tmp_path / "emb.omtn"
        tokens = tmp_path / "tokens.jsonl"
        tensorio.write_tensor(emb, np.ones((3, 2), dtype=np.float32))
        tokens.write_text(json.dumps({"id": 0, "modality": "audio"}) + "\n")  # 1 token, 3 rows
        code, _ = run_cli(
            capsys, "analyze", "--metric", "cosine", "--embeddings", str(emb), "--tokens", str(tokens)
        )
        assert code == 4


class TestCost:
    def test_zero_schedule_ratios(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        tensorio.write_trace_jsonl(path, zero_schedule_trace(), config_digest="cfg")
        code, out = run_cli(capsys, "cost", "--trace", str(path), "--d", "16", "--bytes", "2")
        assert code == 0
        report = json.loads(out)
        assert report["flops_ratio"] == 1.0
        assert report["kv_ratio"] == 1.0

    def test_constant_retention_attention_ratio(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        tensorio.write_trace_jsonl(
            path, constant_retention_trace(layers=6, n0_av=100, later_av=50), config_digest="cfg"
        )
        code, out = run_cli(capsys, "cost", "--trace", str(path), "--d", "64", "--bytes", "2")
        assert code == 0
        report = json.loads(out)
        for row in report["per_layer"][1:]:
            assert abs(row["attention_flops"] / row["baseline_attention_flops"] - 0.25) < 1e-9
        assert report["baseline_total_flops"] >= report["total_flops"]

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda lines: lines[:-1] + ["5"],  # summary line is a number
            lambda lines: ["[1]"] + lines[1:],  # record line is a list
            lambda lines: [lines[0].replace('"pruned_ids":[]', '"pruned_ids":5')] + lines[1:],
            lambda lines: ['{"layer": 0}'] + lines[1:],  # record without its keys
            lambda lines: ["\udcff"] + lines[1:],  # a byte that is not UTF-8
        ],
        ids=["summary-number", "record-list", "pruned-ids-number", "missing-keys", "not-utf8"],
    )
    def test_malformed_trace_exits_4(self, capsys, tmp_path, mangle):
        path = tmp_path / "trace.jsonl"
        tensorio.write_trace_jsonl(path, zero_schedule_trace(), config_digest="cfg")
        text = "\n".join(mangle(path.read_text().splitlines())) + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        code = main(["cost", "--trace", str(path), "--d", "8"])
        assert code == 4
        assert "trace.jsonl" in capsys.readouterr().err

    # Each case edits one or two keys of a valid two-layer trace and rewrites
    # the digest, so only a trace rule can refuse it: (line, {key: value}).
    BROKEN_TRACES = {
        "negative-count": (2, {"n_audio": -5, "n_video": 11}),
        "nan-p": (1, {"p_l": float("nan")}),
        "p-of-one": (2, {"p_l": 1.0}),
        "k-above-entering": (2, {"k_l": 7, "pruned_ids": list(range(10, 17))}),
        "repeated-id": (1, {"pruned_ids": [7, 7]}),
        "negative-id": (1, {"pruned_ids": [-3, 7]}),
        "pruned-twice": (2, {"k_l": 1, "pruned_ids": [7]}),
        "unknown-selector": (2, {"selector": "bogus"}),
        "layer-label": (2, {"layer": 5}),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN_TRACES))
    def test_trace_breaking_a_rule_exits_4(self, capsys, tmp_path, case):
        line, edit = self.BROKEN_TRACES[case]
        records = [
            {"layer": 0, "p_l": 0.25, "k_l": 2, "pruned_ids": [3, 7], "n_audio": 4, "n_video": 4, "n_text": 2,
             "selector": "plain"},
            {"layer": 1, "p_l": 0.0, "k_l": 0, "pruned_ids": [], "n_audio": 3, "n_video": 3, "n_text": 2,
             "selector": "tds"},
        ]
        records[line - 1].update(edit)
        lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        path = tmp_path / "trace.jsonl"
        # A leading blank line: the message counts the file's lines, blank ones too.
        path.write_text("\n".join(["", *lines, json.dumps({"config_digest": "c", "digest": digest})]) + "\n")
        for argv in (["cost", "--trace", str(path), "--d", "8"], ["analyze", "--metric", "retention", "--trace", str(path)]):
            assert main(argv) == 4
            assert f"trace.jsonl: line {line + 1}: " in capsys.readouterr().err

    def test_zero_baseline_trace_exits_4(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        empty = LayerRecord(layer=0, p_l=0.0, k_l=0, pruned_ids=(), n_audio=0, n_video=0, n_text=0, selector="plain")
        tensorio.write_trace_jsonl(path, PruneTrace(layers=(empty,)), config_digest="cfg")
        assert main(["cost", "--trace", str(path), "--d", "8"]) == 4
        assert "empty.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["0", "-3"])
    def test_d_below_one_exits_1_naming_the_flag(self, capsys, tmp_path, d):
        path = tmp_path / "trace.jsonl"
        tensorio.write_trace_jsonl(path, zero_schedule_trace(), config_digest="cfg")
        assert main(["cost", "--trace", str(path), "--d", d]) == 1
        assert f"error: --d must be at least 1, got {d}" in capsys.readouterr().err

    def test_missing_trace_exits_4(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "cost", "--trace", str(tmp_path / "nope.jsonl"), "--d", "8")
        assert code == 4


class TestOutputWrites:
    @pytest.mark.parametrize("command", ["schedule", "analyze", "cost"])
    def test_failed_out_write_exits_3(self, capsys, tmp_path, command):
        emb, trace = tmp_path / "emb.omtn", tmp_path / "trace.jsonl"
        tensorio.write_tensor(emb, np.eye(3, dtype=np.float32))
        tensorio.write_trace_jsonl(trace, zero_schedule_trace(), config_digest="cfg")
        argv = {
            "schedule": ["schedule"],
            "analyze": ["analyze", "--metric", "pca", "--embeddings", str(emb)],
            "cost": ["cost", "--trace", str(trace), "--d", "8"],
        }[command]
        missing = tmp_path / "missing"
        assert main([*argv, "--out", str(missing / "report")]) == 3
        assert "missing" in capsys.readouterr().err
        assert not missing.exists()

    def test_failed_write_names_the_target(self, capsys, tmp_path):
        assert main(["schedule", "--out", str(tmp_path / "missing" / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert "x.csv" in err and ".tmp" not in err
        assert not (tmp_path / "missing").exists()
