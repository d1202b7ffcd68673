"""The README's library example runs as written against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_library_example_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", library_example()],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
