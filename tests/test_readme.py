"""The README's library example and CLI block run as written against the package in src/."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import avprune

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def readme_block(section: str, language: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    body = readme.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", body, re.DOTALL)
    assert match, f"README's {section} section has no {language} block"
    return match.group(1)


def cli_commands() -> list[list[str]]:
    """Each ``avprune ...`` command of the CLI block, continuation lines joined, as an argv."""
    script = readme_block("CLI", "sh").replace("\\\n", " ")
    lines = [line.strip() for line in script.splitlines()]
    commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
    assert commands and all(argv[0] == "avprune" for argv in commands)
    return commands


def test_library_example_runs():
    result = subprocess.run(
        [sys.executable, "-c", readme_block("Library", "python")],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_cli_block_runs(tmp_path):
    digests = {}
    for argv in cli_commands():
        result = subprocess.run(
            [sys.executable, "-m", "avprune.cli", *argv[1:]],
            cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, f"{shlex.join(argv)}: {result.stderr}"
        if argv[1] == "simulate":
            run = "replay" if "--inject" in argv else "forward"
            digests[run] = re.findall(r"^trace_digest=\w+$", result.stdout, re.MULTILINE)
    # The replay of the dumped attention prints the forward run's trace digest.
    assert len(digests["forward"]) == 1 and digests["replay"] == digests["forward"]


def test_public_names_resolve_sorted_and_unique():
    names = avprune.__all__
    assert names == sorted(set(names))
    assert all(hasattr(avprune, name) for name in names)
    namespace = {}
    exec("from avprune import *", namespace)
    assert set(names) <= namespace.keys()
