"""Every example script and every fenced ``python`` block of the README
runs to completion (exit 0) in a fresh interpreter."""

import re
from pathlib import Path

import pytest

from tests.conftest import run_in_fresh_interpreter

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)


def test_there_is_something_to_run():
    assert len(EXAMPLES) >= 7 and len(README_BLOCKS) >= 3


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    run_in_fresh_interpreter(str(script), cwd=tmp_path)


@pytest.mark.parametrize(
    "block", README_BLOCKS,
    ids=[f"readme-block-{i}" for i in range(1, len(README_BLOCKS) + 1)],
)
def test_readme_block_runs(block, tmp_path):
    run_in_fresh_interpreter("-c", block, cwd=tmp_path)
