"""Checks on the package as a whole: what it imports at run time, and the
names that the benchmark in ``perfbench/`` wraps by string."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

from mdenc import encoders

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdenc"


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module, loaded from its file unchanged."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runtime_imports_are_numpy_and_the_standard_library():
    # README promises numpy only; the test extras (scipy, hypothesis) are
    # installed wherever the tests run, so an import of them passes every
    # other check
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    assert "numpy" in found
    assert found - {"numpy"} <= sys.stdlib_module_names


def test_perfbench_wrap_targets_exist():
    # a wrap target that is renamed or gone leaves its per-layer figure at 0
    spans, layers = load_perfbench("spans"), load_perfbench("layers")
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.restore()
    # knn1_pixel left the probe before this check; the benchmark still names it
    assert set(tracer.missing) <= {"mdenc.probe.knn1_pixel"}
    # the encoders.igtd_capped figure reads this argument
    assert "max_iters" in inspect.signature(encoders.fit_igtd).parameters
