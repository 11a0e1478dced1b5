"""Package surface: the exported names and the README's library example."""

import ast
import importlib
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


def test_benchmark_targets_resolve():
    # thlbench/spans.py wraps these names at run time; read its LAYERS
    # table without importing the benchmark
    spans = README.parent / "thlbench" / "spans.py"
    tree = ast.parse(spans.read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    assert layers
    for _, target, _, _ in layers:
        module, *path = target.split(".")
        obj = importlib.import_module(f"thlrecon.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        assert callable(obj), target
