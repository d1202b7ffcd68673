"""Mutation check of the test suite: every hand-made fault below must fail it.

Each mutant is one exact text substitution in one source file: eight in the
decoder's forward pass and seven in the selection rules. For each, the
repository is copied to a temporary directory, the substitution is applied
there, and the tier-1 suite runs in the copy without the tests in
``LEFT_OUT``. Those pin the bytes of the forward pass (the golden digests,
the byte references of ``TestForwardLayer`` and the default digest that the
CLI and perfbench tests read), which a change that means to move bits
regenerates from its own new pass, or rely on the float32 overflow of the
unnormalised residual stream; the rest of the suite must catch each fault
without them. The unmutated copy runs first and must
pass.

    python bench/mutants.py

Prints ``caught`` or ``survived`` per mutant, with the first failing test.
Exits 0 when every mutant is caught, 1 when one survives, and 2 when the
unmutated suite fails or a substitution no longer matches its file. A run
takes about 30 s per mutant on a 2-CPU host; set ``TMPDIR`` to choose where
the copies go.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HARNESS, IMPORTANCE = "src/avprune/harness.py", "src/avprune/importance.py"

LEFT_OUT = (
    "--ignore=tests/test_golden.py",
    "--deselect=tests/test_harness.py::TestForwardLayer",
    "--deselect=tests/test_cli.py::TestSimulate::test_empty_section_value_runs_the_default",
    "--deselect=tests/test_cli.py::TestSimulate::test_non_finite_forward_attention_exits_4_naming_the_layer",
    "--deselect=perfbench/test_perfbench.py::test_default_op_reads_the_pinned_digest",
)

# (name, file, text, replacement); the text must occur exactly once in the file.
MUTANTS = (
    ("scores divided by head_dim", HARNESS,
     "scale = np.float32(math.sqrt(head_dim))", "scale = np.float32(head_dim)"),
    ("causal mask one column late", HARNESS,
     "upper = col > col[:, None]", "upper = col > col[:, None] + 1"),
    ("no attention residual", HARNESS,
     "x = x + context.transpose(1, 0, 2)", "x = context.transpose(1, 0, 2)"),
    ("no ReLU", HARNESS,
     "np.maximum(x @ w.w1, np.float32(0.0)) @ w.w2", "(x @ w.w1) @ w.w2"),
    ("importance from head 0", HARNESS,
     "return x, picked.mean(axis=0)", "return x, picked[0]"),
    ("every head uses head 0's v", HARNESS,
     "np.matmul(probs, v[h], out=context[h])", "np.matmul(probs, v[0], out=context[h])"),
    ("positions by row, not by token id", HARNESS,
     "sinusoidal_positions(working.tokens.id, model.d)", "sinusoidal_positions(np.arange(working.n), model.d)"),
    ("record rows shifted one row up", HARNESS,
     "rows, cols = np.arange(n - n_query, n),", "rows, cols = np.arange(n - n_query - 1, n - 1),"),
    ("3k candidate buffer", IMPORTANCE,
     "buffer = order[: 2 * k]", "buffer = order[: 3 * k]"),
    ("distance normalised by max_chunk + 1", IMPORTANCE,
     "/ max_chunk if max_chunk > 0", "/ (max_chunk + 1) if max_chunk > 0"),
    ("rounded budget", IMPORTANCE,
     "int(np.floor((n_audio + n_video) * p_l))", "int(np.round((n_audio + n_video) * p_l))"),
    ("TDS start layer off by one", HARNESS,
     "layer < tds.start_layer", "layer <= tds.start_layer"),
    ("importance summed, not averaged", IMPORTANCE,
     "values.mean(axis=0, dtype=np.float64)", "values.sum(axis=0, dtype=np.float64)"),
    ("key-chunk tie rule reversed", IMPORTANCE,
     "np.lexsort((ids, -vals))[0]", "np.lexsort((-ids, -vals))[0]"),
    ("diversity bonus sign flipped", IMPORTANCE,
     "vals[buffer] + cfg.lambda_div * distance", "vals[buffer] - cfg.lambda_div * distance"),
)

_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "_work")


def run_suite(mutant=None) -> tuple[bool, str]:
    """Whether tier-1 less ``LEFT_OUT`` passes on a copy with ``mutant`` applied, and its first failing test.

    With no failing test named, the second item is pytest's last line of output.
    """
    with tempfile.TemporaryDirectory(prefix="avprune-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_COPY_IGNORE)
        if mutant is not None:
            _, rel, text, replacement = mutant
            path = copy / rel
            path.write_text(path.read_text(encoding="utf-8").replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        argv += LEFT_OUT
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    failed = next((ln.split(" - ")[0].split(" ", 1)[1] for ln in lines if ln.startswith(("FAILED ", "ERROR "))), "")
    return done.returncode == 0, failed or (lines or [done.stderr.strip()])[-1]


def main() -> int:
    for name, rel, text, _ in MUTANTS:
        if (count := (ROOT / rel).read_text(encoding="utf-8").count(text)) != 1:
            print(f"mutant {name!r}: {text!r} occurs {count} times in {rel}, not once", file=sys.stderr)
            return 2
    start = time.perf_counter()
    passed, failed = run_suite()
    if not passed:
        print(f"the unmutated suite fails: {failed}")
        return 2
    survivors = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        passed, failed = run_suite(mutant)
        survivors += passed
        verdict = "survived" if passed else f"caught    {failed}"
        print(f"{mutant[0]:40s} {verdict} ({time.perf_counter() - began:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} caught in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
