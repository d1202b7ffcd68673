"""Closed-loop benchmark of the avprune CLI pipeline, one client, one process.

    python3 perfbench/run.py --workload sim-default --seed 0 --seconds 18 --trace 0

Each op calls ``avprune.cli.main`` in process and is checked against its
expected output after the timed loop. ``--trace 0`` reports the end-to-end
metrics with nothing wrapped; its times are rescaled to a nominal host by a
reference computation sampled between blocks of ops (see reference.py).
``--trace 1`` wraps the pipeline's functions (see spans.py), reports the
per-layer metrics of the workload's first ops, and then runs unwrapped ops
to measure the tracing overhead. The last line
of stdout is the result object; the line before it holds the run's stamp.
Details, and spans of a traced run, go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_SAMPLES = 4  # an untraced run times at least this many fresh setups,
SETUP_SAMPLING_S = 4.0  # and samples for at least this long after its loop
SETUP_TIMEOUT_S = 150
BLOCK_S = 1.0  # an untraced block of ops lasts at least this long between reference samples
MIN_BLOCKS = 3  # an untraced run times at least this many blocks; the first one warms up
# One BLAS thread: the matrices are small, and on a busy 2-core machine a
# second spinning BLAS thread made simulate ops 2-3x slower and erratic.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
E2E_UNITS = {"op_norm_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class OpRecord:
    index: int
    seconds: float
    stdouts: list[str] = field(default_factory=list)
    error: str | None = None  # an exception, a nonzero exit or a failed check


def run_op(argvs: list[list[str]], call: Callable[[list[str]], tuple[int, str]]):
    """Run one op's CLI calls in order; returns (stdouts, error or None)."""
    stdouts = []
    for argv in argvs:
        rc, out = call(argv)
        stdouts.append(out)
        if rc != 0:
            return stdouts, f"{argv[0]} exited {rc}"
    return stdouts, None


def timed_loop(op, first_index: int, seconds: float, min_ops: int, clock=time.perf_counter):
    """Run ops back to back until ``seconds`` have passed and ``min_ops`` ran.

    Returns (records, wall seconds of the loop). An op that raises is
    recorded as failed and the loop goes on.
    """
    records: list[OpRecord] = []
    start = clock()
    while len(records) < min_ops or clock() - start < seconds:
        rec = OpRecord(index=first_index + len(records), seconds=0.0)
        t0 = clock()
        try:
            rec.stdouts, rec.error = op(rec.index)
        except (Exception, SystemExit) as exc:
            rec.error = f"raised {type(exc).__name__}: {exc}"
        rec.seconds = clock() - t0
        records.append(rec)
    return records, clock() - start


class Calibrator:
    """Reference samples taken between timed sections, to rescale them to a nominal host.

    ``scale()`` takes a sample and returns ``nominal_s`` over the mean of it
    and the sample before it. A section timed just before ``scale()`` is
    multiplied by the result, so it is rescaled by the host's speed on both
    sides of it.
    """

    def __init__(self, sample: Callable[[], float], nominal_s: float):
        self.sample, self.nominal_s = sample, nominal_s
        sample()  # the first pass pays for lazy set-up
        self.samples = [sample()]

    def scale(self) -> float:
        self.samples.append(self.sample())
        return self.nominal_s / statistics.fmean(self.samples[-2:])


@dataclass
class Block:
    ops: int
    seconds: float  # wall time of the block's ops, reference samples excluded
    scale: float  # Calibrator.scale() taken right after the block

    @property
    def norm_op_s(self) -> float:
        return self.seconds / self.ops * self.scale


def calibrated_loop(op, seconds: float, round_ops: int, calibrator: Calibrator,
                    block_s: float = BLOCK_S, min_blocks: int = MIN_BLOCKS, clock=time.perf_counter):
    """Run blocks of ops, with a reference sample after each, until ``seconds`` have passed.

    A block holds whole rounds of ``round_ops`` ops and lasts at least
    ``block_s`` of op time. Returns (records, blocks, wall seconds of the loop).
    """
    records: list[OpRecord] = []
    blocks: list[Block] = []
    start = clock()
    while len(blocks) < min_blocks or clock() - start < seconds:
        first = len(records)
        while len(records) == first or sum(r.seconds for r in records[first:]) < block_s:
            records += timed_loop(op, len(records), 0.0, round_ops, clock)[0]
        blocks.append(Block(len(records) - first, sum(r.seconds for r in records[first:]), calibrator.scale()))
    return records, blocks, clock() - start


def apply_checks(records: list[OpRecord], check) -> int:
    """Check every op that ran cleanly; returns the number of failed ops."""
    for rec in records:
        if rec.error is None:
            try:
                check(rec)
            except Exception as exc:  # a broken output must not stop the run
                rec.error = f"check failed: {type(exc).__name__}: {exc}"
    return sum(rec.error is not None for rec in records)


def end_to_end(blocks: list[Block], setup_samples, peak_rss_mb: float) -> dict:
    """``setup_samples`` are rescaled already; the first block is warm-up."""
    return {
        "op_norm_s": statistics.median(b.norm_op_s for b in blocks[1:]),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    }


def result_line(correct: bool, records: list[OpRecord], metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": len(records),
            "failed": sum(rec.error is not None for rec in records),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    )


# --------------------------------------------------------------------- stamp


def _blas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def code_digest() -> str:
    """sha256 over the package sources and the benchmark's own files."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "avprune").glob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files + [HERE / "expected.json"]:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(workload: str, seed: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "code_sha256": code_digest(),
    }


# --------------------------------------------------------------------- setup


def setup(workload: str, seed: int, into: Path) -> tuple[float, dict]:
    """Generate the inputs into ``into`` in a fresh process; returns (seconds, info)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload,
         "--seed", str(seed), "--into", str(into)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    return res["setup_s"], res["info"]


def more_setups(workload: str, seed: int, work: Path, info: dict, calibrator: Calibrator) -> list[tuple[float, float]]:
    """Time the setup again after the timed loop; returns (seconds, scale) pairs.

    The host's speed shifts every few seconds; samples spread before and
    after the loop see more of those states than samples taken back to back.
    """
    times: list[tuple[float, float]] = []
    start = time.perf_counter()
    while len(times) < SETUP_SAMPLES - 1 or time.perf_counter() - start < SETUP_SAMPLING_S:
        into = work / "setup_again"
        seconds, again = setup(workload, seed, into)
        times.append((seconds, calibrator.scale()))
        shutil.rmtree(into)
        if again != info:
            raise RuntimeError(f"setup is not deterministic: {again} != {info}")
    return times


# ---------------------------------------------------------------------- main


def compare_counts(path: Path, counts: dict) -> str | None:
    """Store exact counts at ``path``, or compare against the ones stored there."""
    if path.is_file():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored != counts:
            diff = {k: (stored.get(k), v) for k, v in counts.items() if stored.get(k) != v}
            return f"exact counts differ from an earlier traced run of this seed: {diff}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return None


def bench(args, wl, spans, reference, work: Path) -> int:
    workload = wl.WORKLOADS[args.workload]
    run_stamp = stamp(workload.name, args.seed, args.trace)
    violations = spans.unwrapped_violations()
    if violations:
        raise RuntimeError(f"wrapped before timing: {violations}")

    calibrator = Calibrator(reference.sample, reference.NOMINAL_S) if not args.trace else None
    setup_s, info = setup(workload.name, args.seed, work / "inputs")
    setups = [(setup_s, calibrator.scale())] if calibrator else []
    ctx = wl.Context(args.seed, work / "inputs", info, wl.pins_for(workload.name, args.seed))
    ops_dir = work / "ops"

    def op(i: int):
        out = ops_dir / f"op_{i:05d}"
        out.mkdir(parents=True)
        return run_op(workload.argvs(ctx, i, out), wl.call_cli)

    def check(rec: OpRecord):
        workload.check(ctx, rec.index, ops_dir / f"op_{rec.index:05d}", rec.stdouts)

    problems: list[str] = []
    details: dict = {"stamp": run_stamp}
    if args.trace:
        tracer = spans.Tracer()

        def traced_op(i: int):
            tracer.op = i
            return op(i)

        tracer.install()
        try:
            traced, _ = timed_loop(traced_op, 0, args.seconds / 2, workload.window)
        finally:
            tracer.uninstall()
        violations = spans.unwrapped_violations()
        if violations:
            raise RuntimeError(f"still wrapped after the traced phase: {violations}")
        untraced, _ = timed_loop(op, len(traced), args.seconds / 2, 1)
        records = traced + untraced
        units = spans.per_layer_units()
        metrics = tracer.layer_metrics(range(workload.window))
        metrics["trace.overhead_s"] = statistics.median(r.seconds for r in traced) - statistics.median(
            r.seconds for r in untraced
        )
        exact = {name: metrics[name] for name, unit in units.items() if unit != "s"}
        counts_file = WORK / "counts" / f"{workload.name}-seed{args.seed}-{run_stamp['code_sha256'][:16]}.json"
        problem = compare_counts(counts_file, exact)
        if problem:
            problems.append(problem)
        details["wrapped"] = [t.name for t in spans.TARGETS]
        details["traced_ops"] = len(traced)
        spans_file = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
        spans_file.write_text("".join(json.dumps(s) + "\n" for s in tracer.span_records()), encoding="utf-8")
    else:
        records, blocks, wall = calibrated_loop(op, args.seconds, workload.round_ops, calibrator)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = E2E_UNITS
        setups += more_setups(workload.name, args.seed, work, info, calibrator)
        metrics = end_to_end(blocks, [seconds * scale for seconds, scale in setups], peak_rss_mb)
        details.update(
            loop_s=wall,
            blocks=[{"ops": b.ops, "seconds": b.seconds, "scale": b.scale} for b in blocks],
            setup_s_samples=[seconds for seconds, _ in setups],
            setup_scales=[scale for _, scale in setups],
            reference_s_samples=calibrator.samples,
        )

    failed = apply_checks(records, check)
    try:
        workload.verify(ctx, work / "verify")
    except Exception as exc:  # reported through "correct", never a crash
        problems.append(f"verify: {type(exc).__name__}: {exc}")

    details.update(
        ops=[{"index": r.index, "seconds": r.seconds, "error": r.error} for r in records],
        error_rate=failed / len(records),
        problems=problems,
        metrics=metrics,
    )
    result_file = WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    summary = {k: details[k] for k in ("stamp", "error_rate", "problems")}
    summary.update(ops=len(records), op_p50_s=statistics.median(r.seconds for r in records))
    if not args.trace:  # the raw figures behind the rescaled ones
        summary.update(
            ops_per_s=(len(records) - failed) / details["loop_s"],
            setup_raw_s=statistics.median(details["setup_s_samples"]),
            reference_p50_s=statistics.median(calibrator.samples),
        )
    print("perfbench " + json.dumps(summary, sort_keys=True))
    print(result_line(not problems and failed == 0, records, metrics, units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in the setup processes
    try:
        import workloads as wl
        import spans
        import reference
    except ImportError as exc:  # no package sources next to the benchmark
        print(f"perfbench: cannot load avprune from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    work = WORK / f"run-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return bench(args, wl, spans, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
