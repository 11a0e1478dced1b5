"""Package surface: the exported names and the README's library example."""

import re
from pathlib import Path

import thlrecon

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve():
    missing = [name for name in thlrecon.__all__ if not hasattr(thlrecon, name)]
    assert missing == []
    assert len(set(thlrecon.__all__)) == len(thlrecon.__all__)


def test_star_import():
    ns = {}
    exec("from thlrecon import *", ns)
    assert set(thlrecon.__all__) <= set(ns)


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
