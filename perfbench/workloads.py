"""The four benchmark workloads: input generation, ops and output checks.

An op runs ``avprune.cli.main(argv)`` in process, once or several times, the
code the ``avprune`` console script runs. ``avprune`` is imported from the
``src`` directory of the checkout this file sits in, never from an installed
copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import avprune  # noqa: E402
import avprune.cli  # noqa: E402
from avprune.tensorio import read_trace_jsonl  # noqa: E402  (the original, never wrapped)

if not Path(avprune.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"avprune was imported from {avprune.__file__}, not from {SRC}")

DEFAULT_SEED = 0  # the default config's sequence.seed; model.seed is seed + 1
DEFAULT_DIGEST = "1feea8ec49fc45a7"  # trace digest of the default config
LAYERS = 28
PINS_FILE = HERE / "expected.json"  # written by pin.py


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = avprune.cli.main(argv)  # looked up per call, so a tracer sees it
    return rc, out.getvalue()


def printed(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    return None


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def seeds(sequence_seed: int) -> list[str]:
    return ["--set", f"sequence.seed={sequence_seed}", "--set", f"model.seed={sequence_seed + 1}"]


class CheckFailed(Exception):
    """An op's output does not match what it must be."""


def check_trace(out_dir: Path, stdout: str, pinned: str | None = None) -> str:
    """Check a simulate run's printed and stored digests; returns the trace digest."""
    digest = printed(stdout, "trace_digest")
    if digest is None:
        raise CheckFailed("no trace_digest printed")
    trace, summary = read_trace_jsonl(out_dir / "trace.jsonl")  # verifies the stored digest
    if summary["digest"] != digest:
        raise CheckFailed(f"trace.jsonl holds {summary['digest']}, stdout {digest}")
    if summary.get("config_digest") != printed(stdout, "config_digest"):
        raise CheckFailed("trace.jsonl config digest differs from the printed one")
    if len(trace.layers) != LAYERS:
        raise CheckFailed(f"trace has {len(trace.layers)} layers, expected {LAYERS}")
    if pinned is not None and digest != pinned:
        raise CheckFailed(f"trace digest {digest} != pinned {pinned}")
    return digest


@dataclass
class Context:
    """What an op needs: the workload seed, the inputs and the pins."""

    seed: int
    inputs: Path
    info: dict
    pins: dict
    seen: dict = field(default_factory=dict)  # outputs that every op must repeat


@dataclass(frozen=True)
class Workload:
    name: str  # the reasons for each workload are in BENCHMARK.json and README.md
    round_ops: int  # an untraced block holds whole rounds of this many ops
    window: int  # leading ops whose per-layer numbers a traced run reports
    setup: Callable[[Path, int], dict]  # (inputs dir, seed) -> info
    argvs: Callable[[Context, int, Path], list[list[str]]]  # one op's CLI calls
    check: Callable[[Context, int, Path, list[str]], None]  # raises CheckFailed
    verify: Callable[[Context, Path], None] = lambda ctx, scratch: None  # once per run


# ------------------------------------------------------------------ simulate


def _no_inputs(inputs: Path, seed: int) -> dict:
    return {}


def _sim_argvs(extra: list[str]):
    def argvs(ctx: Context, i: int, out: Path) -> list[list[str]]:
        return [["simulate", "--out", str(out), *extra, *seeds(ctx.seed + i)]]

    return argvs


def _sim_check(dumps: bool):
    def check(ctx: Context, i: int, out: Path, stdouts: list[str]) -> None:
        check_trace(out, stdouts[0], ctx.pins.get(str(ctx.seed + i)))
        if dumps:
            manifest = json.loads((out / "attention" / "manifest.json").read_text(encoding="utf-8"))
            if manifest["layers"] != LAYERS:
                raise CheckFailed(f"attention manifest lists {manifest['layers']} layers")
            if manifest["config_digest"] != printed(stdouts[0], "config_digest"):
                raise CheckFailed("attention manifest config digest differs")

    return check


# -------------------------------------------------------------------- replay

REPLAY_CONFIGS = (
    ["--set", "sequence.chunks=4"],
    ["--set", "sequence.chunks=4", "--selector", "random"],
    ["--set", "sequence.chunks=4", "--set", "intra.enabled=true"],
)


def _dump(out: Path, args: list[str]) -> str:
    rc, stdout = call_cli(["simulate", "--out", str(out), "--dump-attention", *args])
    if rc != 0:
        raise RuntimeError(f"simulate {' '.join(args)} exited {rc}")
    return check_trace(out, stdout)


def _replay_setup(inputs: Path, seed: int) -> dict:
    return {
        "forward_digests": [
            _dump(inputs / f"dump_{k}", [*config, *seeds(seed)])
            for k, config in enumerate(REPLAY_CONFIGS)
        ]
    }


def _replay_argvs(ctx: Context, i: int, out: Path) -> list[list[str]]:
    k = i % len(REPLAY_CONFIGS)
    attention = ctx.inputs / f"dump_{k}" / "attention"
    return [["simulate", "--out", str(out), "--inject", str(attention), *REPLAY_CONFIGS[k], *seeds(ctx.seed)]]


def _replay_check(ctx: Context, i: int, out: Path, stdouts: list[str]) -> None:
    k = i % len(REPLAY_CONFIGS)
    check_trace(out, stdouts[0], ctx.info["forward_digests"][k])


def _replay_verify(ctx: Context, scratch: Path) -> None:
    pinned = ctx.pins.get("forward_digests")
    if pinned is not None and pinned != ctx.info["forward_digests"]:
        raise CheckFailed(f"dump digests {ctx.info['forward_digests']} != pinned {pinned}")
    # The random-selector dump covers only its own survivors, so replaying it
    # under TDS must stop with the schema exit code.
    attention = ctx.inputs / "dump_1" / "attention"
    rc, _ = call_cli(["simulate", "--out", str(scratch), "--inject", str(attention), *REPLAY_CONFIGS[0], *seeds(ctx.seed)])
    if rc != 4:
        raise CheckFailed(f"replaying the random dump under tds exited {rc}, expected 4")


# ------------------------------------------------------------------- analyze

ANALYZE_CHUNKS = ["--set", "sequence.chunks=4"]
COSINE_PAIRS = ("AA", "VV", "AV")
# Fixed outputs do not depend on the op; the cosine AA pass is exhaustive.
FIXED_OUTPUTS = ("cos_AA.csv", "pca.csv", "recall.json", "retention.csv", "cost.json")


def _analyze_setup(inputs: Path, seed: int) -> dict:
    return {"trace_digest": _dump(inputs / "art", [*ANALYZE_CHUNKS, *seeds(seed)])}


def _analyze_argvs(ctx: Context, i: int, out: Path) -> list[list[str]]:
    art = ctx.inputs / "art"
    emb, tokens, trace = str(art / "embeddings.omtn"), str(art / "tokens.jsonl"), str(art / "trace.jsonl")
    argvs = [
        ["analyze", "--metric", "cosine", "--embeddings", emb, "--tokens", tokens,
         "--pair", pair, "--seed", str(ctx.seed + i), "--out", str(out / f"cos_{pair}.csv")]
        for pair in COSINE_PAIRS
    ]
    argvs += [
        ["analyze", "--metric", "pca", "--embeddings", emb, "--out", str(out / "pca.csv")],
        ["analyze", "--metric", "recall", "--attention", str(art / "attention" / "layer_0010.omtn"),
         "--out", str(out / "recall.json")],
        ["analyze", "--metric", "retention", "--trace", trace, "--out", str(out / "retention.csv")],
        ["cost", "--trace", trace, "--d", "32", "--out", str(out / "cost.json")],
    ]
    return argvs


def _check_histogram(path: Path, pairs: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    used = int(lines[0].rsplit("pairs_used=", 1)[1])
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[2:])
    if used != pairs or total != pairs:
        raise CheckFailed(f"{path.name}: {used} pairs used, {total} counted, expected {pairs}")


def _analyze_check(ctx: Context, i: int, out: Path, stdouts: list[str]) -> None:
    # chunks=4 of 50 audio and 288 video tokens; sampled pairs are capped at 100k.
    n_a, n_v, cap = 4 * 50, 4 * 288, 100_000
    _check_histogram(out / "cos_AA.csv", n_a * (n_a - 1) // 2)
    _check_histogram(out / "cos_VV.csv", min(cap, n_v * (n_v - 1) // 2))
    _check_histogram(out / "cos_AV.csv", min(cap, n_a * n_v))
    n_tokens = 4 + 4 * (50 + 288) + 8
    if len((out / "pca.csv").read_text(encoding="utf-8").splitlines()) != n_tokens + 2:
        raise CheckFailed("pca.csv does not hold one row per token")
    if len((out / "retention.csv").read_text(encoding="utf-8").splitlines()) != LAYERS + 2:
        raise CheckFailed("retention.csv does not hold one row per layer")
    recall = json.loads((out / "recall.json").read_text(encoding="utf-8"))["recall"]
    if not 0.2 <= recall <= 1.0:
        raise CheckFailed(f"top-20% recall {recall} outside [0.2, 1]")
    cost = json.loads((out / "cost.json").read_text(encoding="utf-8"))
    if not 0.0 < cost["flops_ratio"] < 1.0:
        raise CheckFailed(f"flops ratio {cost['flops_ratio']} outside (0, 1)")

    shas = {name: sha256_file(out / name) for name in (*FIXED_OUTPUTS, "cos_VV.csv", "cos_AV.csv")}
    for name in FIXED_OUTPUTS:
        first = ctx.seen.setdefault(name, shas[name])
        if shas[name] != first:
            raise CheckFailed(f"{name} differs from the first op's")
    if ctx.pins:
        pinned = {**ctx.pins["fixed"], **ctx.pins["cosine_by_seed"].get(str(ctx.seed + i), {})}
        for name, sha in pinned.items():
            if shas[name] != sha:
                raise CheckFailed(f"{name} sha256 {shas[name][:16]} != pinned {sha[:16]}")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim-default",
            round_ops=1,
            window=1,
            setup=_no_inputs,
            argvs=_sim_argvs(["--dump-attention"]),
            check=_sim_check(dumps=True),
        ),
        Workload(
            "sim-long",
            round_ops=1,
            window=1,
            setup=_no_inputs,
            argvs=_sim_argvs(["--set", "sequence.chunks=8"]),
            check=_sim_check(dumps=False),
        ),
        Workload(
            "replay",
            round_ops=len(REPLAY_CONFIGS),
            window=3,
            setup=_replay_setup,
            argvs=_replay_argvs,
            check=_replay_check,
            verify=_replay_verify,
        ),
        Workload(
            "analyze",
            round_ops=1,
            window=1,
            setup=_analyze_setup,
            argvs=_analyze_argvs,
            check=_analyze_check,
        ),
    )
}


def pins_for(workload: str, seed: int) -> dict:
    """Pinned expectations for one run of ``workload`` at ``seed``.

    sim-*: trace digest by sequence seed (model seed is one more), which
    covers op i of every workload seed s with s + i in the table. replay:
    the three dump digests when the table has this seed. analyze: output
    sha256s when the seed is the pinned one, else {}.
    """
    pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))[workload]
    if workload == "analyze":
        return pins if seed == pins["seed"] else {}
    if workload == "replay":
        return {"forward_digests": pins.get(str(seed))}
    return pins
