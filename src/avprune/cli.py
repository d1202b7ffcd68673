"""Command-line front end: calibrate, schedule, simulate, analyze, cost.

Exit codes: 0 success, 1 configuration error (so are an unreadable --config
file and a malformed command line), 2 infeasible calibration, 3 I/O failure
(every failed output write is one), 4 file-schema mismatch (so is an
analyze/cost input that cannot be read or has no defined result, and a
simulate layer whose attention breaks the map rules, named). All commands
are deterministic given config and seeds; re-running overwrites outputs
byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache, partial
from pathlib import Path
from statistics import fmean

from .config import ExperimentConfig, load_config_file
from .errors import ConvergenceFailure, DegenerateInput, Infeasible, InvalidInput, SchemaError
from .harness import AttentionRecord, run_with_injected_attention, run_with_pruning
from .importance import Selector
from .intra import IntraPlan, make_intra_plan
from .metrics import PairKind, cosine_distribution, cost_model, retention_per_modality, top20_recall
from .numerics import Rng, pca2
from .schedule import (
    PruneScheduleConfig,
    ScheduleKind,
    calibrate_p_final,
    mean_retention,
    prune_ratio,
    retention_trace,
)
from .sequence import Modality
from . import tensorio

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_SCHEMA = 4


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise InvalidInput(f"--set expects key.path=value, got {text!r}")
    path, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


def _load_experiment(args) -> ExperimentConfig:
    document = load_config_file(args.config) if args.config else None
    overrides = dict(_parse_override(s) for s in (args.set or []))
    if getattr(args, "selector", None):
        overrides["selector"] = args.selector
    return ExperimentConfig.resolve(document, overrides)


def _csv(comment: str, header: str, rows, footer=()) -> str:
    """A report: a ``# comment`` line, the column header, the rows, then ``# footer`` lines."""
    lines = [f"# {comment}", header, *rows, *(f"# {line}" for line in footer)]
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _retention_csv(trace, digest: str) -> str:
    audio, video = retention_per_modality(trace)
    rows = (f"{l},{a:.9f},{v:.9f}" for l, (a, v) in enumerate(zip(audio, video)))
    return _csv(f"config_digest={digest}", "layer,audio_retention,video_retention", rows)


def _emit(out: str | None, text: str) -> None:
    """Write a report to ``--out``, or to stdout when none is given."""
    if out:
        tensorio.write_artifact(out, text)
    else:
        sys.stdout.write(text)


def _read_inputs(read, *args):
    """Call a reader; an input file that cannot be opened is a schema error naming it."""
    try:
        return read(*args)
    except OSError as exc:
        raise SchemaError(f"{exc.filename}: cannot read ({exc.strerror})") from None


# ---------------------------------------------------------------- calibrate


def cmd_calibrate(args) -> int:
    closed, refined = calibrate_p_final(args.target, args.r0, args.layers, args.beta)
    achieved = mean_retention(PruneScheduleConfig(0.0, refined, 0.5, args.beta, args.layers), args.r0)
    print("closed_form_p_final=" + ("undefined" if closed is None else f"{closed:.6f}"))
    print(f"bisection_p_final={refined:.6f}")
    print(f"achieved_mean={achieved:.6f}")
    return EXIT_OK


# ----------------------------------------------------------------- schedule


def cmd_schedule(args) -> int:
    flags = {f"schedule.{k}": getattr(args, k) for k in ("kind", "p_init", "p_final", "t_mid", "beta")}
    flags["model.layers"] = args.layers
    document = load_config_file(args.config) if args.config else None
    cfg = ExperimentConfig.resolve(document, {k: v for k, v in flags.items() if v is not None})
    sched = cfg.schedule
    trace = retention_trace(sched, args.r0)
    rows = (f"{l},{prune_ratio(l, sched):.9f},{r:.9f}" for l, r in enumerate(trace))
    footer = [f"mean_retention={fmean(trace):.9f}"]
    _emit(args.out, _csv(f"config_digest={cfg.digest}", "layer,prune_ratio,retention", rows, footer))
    return EXIT_OK


# ----------------------------------------------------------------- simulate


def _build_intra_plan(cfg: ExperimentConfig, seq) -> IntraPlan | None:
    intra = cfg.raw["intra"]
    if not intra["enabled"]:
        return None
    return make_intra_plan(
        seq,
        audio_keep=intra["audio_keep"],
        video_prune_rate=intra["video_prune_rate"],
        frames_per_chunk=intra["frames_per_chunk"],
        seed=cfg.raw["sequence"]["seed"],
    )


def _load_attention_dir(path: Path, layers: int) -> list[AttentionRecord]:
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise InvalidInput(f"missing attention files in {path}: no manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, or nesting too deep
        raise SchemaError(f"{manifest_path}: not UTF-8 JSON ({exc})") from None
    dumped = manifest.get("layers") if isinstance(manifest, dict) else None
    if dumped != layers:
        raise SchemaError(f"{manifest_path}: dump holds {dumped!r} layers, model.layers is {layers}")
    records = []
    for layer in range(layers):
        tensor_path = path / f"layer_{layer:04d}.omtn"
        ids_path = path / f"layer_{layer:04d}.ids"
        if not tensor_path.exists() or not ids_path.exists():
            raise InvalidInput(f"missing attention files for layer {layer} in {path}")
        values, ids = tensorio.read_tensor(tensor_path), tensorio.read_ids(ids_path)
        try:
            records.append(AttentionRecord(layer=layer, col_ids=ids, values=values))
        except SchemaError as exc:
            raise SchemaError(f"{tensor_path}: {exc}") from None
    return records


def _simulate_one(cfg: ExperimentConfig, out_dir: str, dump_attention: bool, inject_dir: str | None) -> str:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    attn_dir = out / "attention"

    seq = cfg.build_sequence()
    intra = _build_intra_plan(cfg, seq)

    dumped: list[AttentionRecord] = []
    observer = dumped.append if dump_attention else None
    if inject_dir is not None:
        records = _load_attention_dir(Path(inject_dir), cfg.raw["model"]["layers"])
        trace = run_with_injected_attention(
            seq, records, cfg.schedule, cfg.tds, cfg.selector, intra,
            replay_seed=cfg.raw["model"]["seed"], observer=observer,
        )
    else:
        trace = run_with_pruning(
            seq, cfg.build_model(), cfg.schedule, cfg.tds, cfg.selector, intra, observer=observer
        )

    # manifest.json commits a dump to the run files beside it: drop the old
    # one before any of them change, and write it last, only with a new dump.
    (attn_dir / "manifest.json").unlink(missing_ok=True)

    digest = cfg.digest
    tensorio.write_artifact(out / "config.json", _json({"config_digest": digest, "config": cfg.raw}))
    tensorio.write_trace_jsonl(out / "trace.jsonl", trace, digest)
    tensorio.write_artifact(out / "retention.csv", _retention_csv(trace, digest))
    tensorio.write_artifact(out / "tokens.jsonl", json.dumps({"config_digest": digest}) + "\n" + seq.tokens.jsonl())
    tensorio.write_tensor(out / "embeddings.omtn", seq.embeddings)

    if dump_attention:
        attn_dir.mkdir(exist_ok=True)
        for rec in dumped:
            tensorio.write_tensor(attn_dir / f"layer_{rec.layer:04d}.omtn", rec.values)
            tensorio.write_ids(attn_dir / f"layer_{rec.layer:04d}.ids", rec.col_ids)
        manifest = {"config_digest": digest, "layers": len(dumped)}
        tensorio.write_artifact(attn_dir / "manifest.json", _json(manifest))
    return trace.digest


def pool_size(workers: int, runs: int) -> int:
    """Worker processes for a fan-out: never more than the runs or the CPUs."""
    return min(workers, runs, os.cpu_count() or 1)


def cmd_simulate(args) -> int:
    if args.runs < 1:
        raise InvalidInput(f"--runs must be at least 1, got {args.runs}")
    cfg = _load_experiment(args)
    out = Path(args.out)
    if args.runs == 1:
        digest = _simulate_one(cfg, str(out), args.dump_attention, args.inject)
        print(f"config_digest={cfg.digest}")
        print(f"trace_digest={digest}")
        return EXIT_OK

    run_configs = [
        ExperimentConfig.resolve(
            cfg.raw,
            {"sequence.seed": cfg.raw["sequence"]["seed"] + i, "model.seed": cfg.raw["model"]["seed"] + i},
        )
        for i in range(args.runs)
    ]
    run_dirs = [str(out / f"run_{i:04d}") for i in range(args.runs)]
    job = partial(_simulate_one, dump_attention=args.dump_attention, inject_dir=args.inject)
    workers = pool_size(cfg.workers, args.runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            digests = list(pool.map(job, run_configs, run_dirs))
    else:
        digests = list(map(job, run_configs, run_dirs))
    for i, digest in enumerate(digests):
        print(f"run_{i:04d} trace_digest={digest}")
    return EXIT_OK


# ------------------------------------------------------------------ analyze


def _analyze_recall(args) -> str:
    values = tensorio.read_tensor(args.attention)
    recall = top20_recall(values, per_row=args.per_row)
    return json.dumps(
        {"metric": "recall", "entries": int(values.size), "per_row": args.per_row, "recall": recall},
        sort_keys=True,
    ) + "\n"


def _analyze_retention(args) -> str:
    trace, summary = tensorio.read_trace_jsonl(args.trace)
    return _retention_csv(trace, summary.get("config_digest", "none"))


# A tokens.jsonl record exactly as TokenTable.jsonl writes it. A line this
# matches is one JSON object with a known modality, so it skips json.loads;
# every other line (the header included) is parsed as before. Integers follow
# JSON's ASCII grammar and stop at 19 digits, far below the digit limit at
# which int(), and so json.loads, raises.
_INT = r"-?(?:0|[1-9][0-9]{0,18})"
_TOKEN_LINE = re.compile(
    rf'\{{"chunk_index": (?:{_INT}|null), "id": {_INT}, '
    rf'"modality": "({"|".join(re.escape(m.value) for m in Modality)})", '
    rf'"original_position": {_INT}\}}\n?'
)


def _read_token_modalities(path) -> list[Modality]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except ValueError as exc:  # bad UTF-8
        raise SchemaError(f"{path}: not UTF-8 JSON lines ({exc})") from None
    by_value, modalities = {m.value: m for m in Modality}, []
    for number, line in enumerate(lines, 1):
        if match := _TOKEN_LINE.fullmatch(line):
            modalities.append(by_value[match[1]])
            continue
        if not line.strip():
            continue
        try:
            obj = json.loads(line)  # one value per line: two, or half of one, is an error
        except (ValueError, RecursionError) as exc:  # bad JSON, or nesting too deep
            raise SchemaError(f"{path}: line {number}: not JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise SchemaError(f"{path}: line {number}: token record is not a JSON object")
        if "modality" in obj:
            value = obj["modality"]
            if not (isinstance(value, str) and value in by_value):
                raise SchemaError(f"{path}: line {number}: unknown modality {value!r}")
            modalities.append(by_value[value])
        elif "config_digest" not in obj:
            raise SchemaError(f"{path}: line {number}: token record without a modality")
    return modalities


def _analyze_cosine(args) -> str:
    emb = tensorio.read_tensor(args.embeddings)
    modalities = _read_token_modalities(args.tokens)
    if len(modalities) != emb.shape[0]:
        raise SchemaError(
            f"{args.tokens}: {len(modalities)} tokens for {emb.shape[0]} embedding rows"
        )
    hist = cosine_distribution(
        emb, modalities, PairKind(args.pair), sample_cap=args.cap, rng=Rng(args.seed)
    )
    edges = hist.bin_edges
    rows = (f"{edges[i]:.2f},{edges[i + 1]:.2f},{c}" for i, c in enumerate(hist.counts))
    return _csv(f"pair_kind={args.pair} pairs_used={hist.pairs_used}", "bin_lo,bin_hi,count", rows)


def _analyze_pca(args) -> str:
    emb = tensorio.read_tensor(args.embeddings)
    projection, (ev1, ev2) = pca2(emb)
    rows = (f"{row[0]:.9f},{row[1]:.9f}" for row in projection)
    return _csv(f"eigenvalues={ev1:.9f},{ev2:.9f}", "axis1,axis2", rows)


def cmd_analyze(args) -> int:
    if args.cap < 1:
        raise InvalidInput(f"--cap must be at least 1, got {args.cap}")
    handlers = {
        "recall": _analyze_recall,
        "retention": _analyze_retention,
        "cosine": _analyze_cosine,
        "pca": _analyze_pca,
    }
    required = {
        "recall": ["attention"],
        "retention": ["trace"],
        "cosine": ["embeddings", "tokens"],
        "pca": ["embeddings"],
    }
    for name in required[args.metric]:
        if getattr(args, name) is None:
            raise SchemaError(f"--metric {args.metric} requires --{name}")
    try:
        report = _read_inputs(handlers[args.metric], args)
    except (InvalidInput, DegenerateInput, ConvergenceFailure) as exc:  # too small, or no defined result
        raise SchemaError(f"{getattr(args, required[args.metric][0])}: {exc}") from None
    _emit(args.out, report)
    return EXIT_OK


# --------------------------------------------------------------------- cost


def cmd_cost(args) -> int:
    if args.d < 1:
        raise InvalidInput(f"--d must be at least 1, got {args.d}")
    trace, summary = _read_inputs(tensorio.read_trace_jsonl, args.trace)
    try:
        obj = cost_model(trace, d=args.d, bytes_per_element=args.bytes)
    except DegenerateInput as exc:
        raise SchemaError(f"{args.trace}: {exc}") from None
    obj["config_digest"] = summary.get("config_digest", "none")
    _emit(args.out, _json(obj))
    return EXIT_OK


# ------------------------------------------------------------------ parsing


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as InvalidInput (exit 1); subparsers inherit it."""

    def error(self, message: str):
        raise InvalidInput(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Sharing it is safe: ``parse_args`` returns a fresh namespace, and no
    default is a mutable object that parsing could change.
    """
    parser = _Parser(
        prog="avprune",
        description="Layer-wise audiovisual token pruning: schedules, simulation, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="solve p_final for a target mean retention")
    cal.add_argument("--target", type=float, required=True)
    cal.add_argument("--r0", type=float, required=True)
    cal.add_argument("--layers", type=int, required=True)
    cal.add_argument("--beta", type=float, default=20.0)
    cal.set_defaults(func=cmd_calibrate)

    sch = sub.add_parser("schedule", help="tabulate (layer, p_l, r_l) as CSV")
    sch.add_argument("--config")
    # Unset flags leave the --config file's values (or the defaults) in place.
    sch.add_argument("--kind", choices=[k.value for k in ScheduleKind])
    sch.add_argument("--p-init", dest="p_init", type=float)
    sch.add_argument("--p-final", dest="p_final", type=float)
    sch.add_argument("--t-mid", dest="t_mid", type=float)
    sch.add_argument("--beta", type=float)
    sch.add_argument("--layers", type=int)
    sch.add_argument("--r0", type=float, default=0.45)
    sch.add_argument("--out")
    sch.set_defaults(func=cmd_schedule)

    sim = sub.add_parser("simulate", help="run the pruning harness and write artifacts")
    sim.add_argument("--config")
    sim.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")
    sim.add_argument("--selector", choices=[s.value for s in Selector])
    sim.add_argument("--out", required=True)
    sim.add_argument("--dump-attention", action="store_true")
    sim.add_argument("--inject", metavar="DIR", help="replay dumped attention instead of the forward pass")
    sim.add_argument("--runs", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="diagnostics over dumped artifacts")
    ana.add_argument("--metric", choices=["recall", "retention", "cosine", "pca"], required=True)
    ana.add_argument("--trace")
    ana.add_argument("--attention")
    ana.add_argument("--embeddings")
    ana.add_argument("--tokens")
    ana.add_argument("--pair", choices=[p.value for p in PairKind], default="AV")
    ana.add_argument("--cap", type=int, default=100_000)
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--per-row", dest="per_row", action="store_true")
    ana.add_argument("--out")
    ana.set_defaults(func=cmd_analyze)

    cost = sub.add_parser("cost", help="analytic FLOPs/KV-memory report for a trace")
    cost.add_argument("--trace", required=True)
    cost.add_argument("--d", type=int, required=True)
    cost.add_argument("--bytes", type=int, choices=[2, 4], default=2)
    cost.add_argument("--out")
    cost.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Infeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
