"""Regenerate perfbench/expected.json, the outputs the op checks pin.

    python3 perfbench/pin.py

It runs the workloads' own ops untimed. Rerun it only in a change that is
meant to alter outputs, and say in that change why they moved. Takes about
ten minutes on 2 cores.
"""

from __future__ import annotations

import json
import os
import shutil

from run import BLAS_ENV

os.environ.update(BLAS_ENV)  # before numpy loads: digests are pinned for run.py's settings
import workloads as wl  # noqa: E402

SIM_SEEDS = {"sim-default": 80, "sim-long": 24}  # sequence seeds 0..n-1
REPLAY_SEEDS = 16
ANALYZE_SEED, ANALYZE_OPS = wl.DEFAULT_SEED, 48


def main() -> int:
    work = wl.HERE / "_work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    pins: dict = {}
    for name, count in SIM_SEEDS.items():
        table = pins[name] = {}
        for seed in range(count):
            ctx = wl.Context(seed, work, {}, {})
            out = work / name
            (argv,) = wl.WORKLOADS[name].argvs(ctx, 0, out)
            rc, stdout = wl.call_cli(argv)
            if rc != 0:
                raise SystemExit(f"{name} seed {seed} exited {rc}")
            table[str(seed)] = wl.check_trace(out, stdout)
            print(name, seed, table[str(seed)], flush=True)

    pins["replay"] = {
        str(seed): wl.WORKLOADS["replay"].setup(work / f"replay_{seed}", seed)["forward_digests"]
        for seed in range(REPLAY_SEEDS)
    }

    analyze = wl.WORKLOADS["analyze"]
    ctx = wl.Context(ANALYZE_SEED, work / "analyze", {}, {})
    ctx.info = analyze.setup(ctx.inputs, ANALYZE_SEED)
    fixed, by_seed = {}, {}
    for i in range(ANALYZE_OPS):
        out = work / f"analyze_op_{i}"
        out.mkdir(parents=True)
        for argv in analyze.argvs(ctx, i, out):
            if wl.call_cli(argv)[0] != 0:
                raise SystemExit(f"analyze op {i}: {argv} failed")
        analyze.check(ctx, i, out, [])
        fixed = {name: wl.sha256_file(out / name) for name in wl.FIXED_OUTPUTS}
        by_seed[str(ANALYZE_SEED + i)] = {
            name: wl.sha256_file(out / name) for name in ("cos_VV.csv", "cos_AV.csv")
        }
    pins["analyze"] = {"seed": ANALYZE_SEED, "fixed": fixed, "cosine_by_seed": by_seed}

    if pins["sim-default"][str(wl.DEFAULT_SEED)] != wl.DEFAULT_DIGEST:
        raise SystemExit("the default config no longer reads the default trace digest")
    wl.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
