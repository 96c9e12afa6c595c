"""The public namespace: ``slowlight.__all__`` lists what the package exports."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import slowlight
import slowlight.cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
README = ROOT / "README.md"


def test_public_names_are_sorted_unique_and_resolve():
    names = slowlight.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(slowlight, name), name


def test_test_oracles_are_not_exported():
    # the dense Bloch steady state is a test oracle, kept in tests/_oracles.py
    for name in ("BlochSteadyState", "bloch_steady_oracle"):
        assert name not in slowlight.__all__
        assert not hasattr(slowlight, name)
        assert not hasattr(slowlight.eit_core, name)


def _slowlight_chains(tree):
    """Every attribute chain rooted at the name slowlight in the tree, dotted."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "slowlight":
            chains.add(".".join(["slowlight"] + parts[::-1]))
    return chains


def _resolve(chain):
    """Follow a dotted chain from slowlight, importing a submodule that no
    attribute holds yet."""
    parts = chain.split(".")
    value = slowlight
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(value, part):
            importlib.import_module(".".join(parts[:i]))
        value = getattr(value, part)
    return value


def test_benchmark_names_resolve():
    # the benchmark calls the package by attribute (slowlight.mean_delay,
    # slowlight.cli.DEFAULT_CONFIG_TEXT, ...); each name it uses must exist
    chains = {
        (path.name, chain)
        for path in BENCH.glob("*.py")
        for chain in _slowlight_chains(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert chains
    missing = []
    for name, chain in sorted(chains):
        try:
            _resolve(chain)
        except (AttributeError, ImportError):
            missing.append("%s: %s" % (name, chain))
    assert not missing, missing


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # the README's python examples run in order, in one namespace, beside an
    # experiment.cfg that holds the default configuration
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    (tmp_path / "experiment.cfg").write_text(slowlight.cli.DEFAULT_CONFIG_TEXT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.count("\n") >= 5


def _readme_calls():
    """(span, call) for every call in an inline code span of the README's
    prose whose function is in slowlight.__all__ and whose positional
    arguments are bare names (keywords may hold anything)."""
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        try:
            tree = ast.parse(span)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in slowlight.__all__
                and all(isinstance(arg, ast.Name) for arg in node.args)
            ):
                yield span, node


def test_readme_calls_match_signatures():
    # a call written in the README's prose names the parameters it passes, in
    # order, and passes no more than the signature takes
    calls = list(_readme_calls())
    assert len(calls) >= 8
    for span, call in calls:
        signature = inspect.signature(getattr(slowlight, call.func.id))
        names = [arg.id for arg in call.args]
        try:
            bound = signature.bind(*names, **{keyword.arg: None for keyword in call.keywords})
        except TypeError as exc:
            raise AssertionError("%r: %s" % (span, exc)) from None
        assert all(bound.arguments.get(name) == name for name in names), (span, list(signature.parameters))
