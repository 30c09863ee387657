"""The public API has no name that only the tests use, no module reaches
into another's private names, one function constructs every one-bit
vector, one draws every Gaussian sample and one builds every SystemParams,
one module imports the LP solver, the MPSK points and sector trigonometry
live in constellation.py, the package does not load its CLI, and the calls
the benchmark makes still work."""

import ast
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import onebit_precoding
from onebit_precoding import (
    MpskConstellation,
    build_instance,
    draw_channel,
    draw_symbols,
    falm_solve,
    min_margin,
    msm_precode,
)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(onebit_precoding.__file__).resolve().parent


def test_every_export_is_used_outside_the_tests():
    """Each name in ``__all__`` appears in README.md, in the benchmark's
    non-test code under perfbench/, or in a package module other than
    ``__init__.py`` and the one that defines it. Uses inside the defining
    module do not count: a name that only it and the tests call is internal."""
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    unused = []
    for name in onebit_precoding.__all__:
        home = getattr(onebit_precoding, name).__module__.rsplit(".", 1)[1] + ".py"
        others = [p for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", home)]
        texts = (p.read_text() for p in [*others, ROOT / "README.md", *bench])
        if not any(re.search(rf"\b{name}\b", text) for text in texts):
            unused.append(name)
    assert unused == []


def test_no_module_imports_another_modules_private_name():
    """No package module imports an underscore-prefixed name from another
    package module."""
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith(PACKAGE.name)
            ):
                private += [
                    f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")
                ]
    assert private == []


def calls_outside(callee: str, module: str, owner: str) -> list:
    """``file:line`` of every call to ``callee``, as a name or an attribute,
    in the package outside the function ``owner`` of ``module``."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and (path.stem, function.name) == (module, owner)
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside:
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == callee:
                    calls.append(f"{path.name}:{node.lineno}")
    return calls


def test_one_bit_vectors_come_from_quantize_one_bit():
    """``quantize_one_bit`` is the one place in the package that constructs
    a ``OneBitVector``, so every one-bit transmit vector passes its check."""
    assert calls_outside("OneBitVector", "precoding", "quantize_one_bit") == []


def test_gaussian_draws_come_from_draw_unit_noise():
    """``channel.draw_unit_noise`` is the one caller of ``standard_normal``
    in the package, so the channel, the sweep's noise and the SEP checks'
    noise share one CN(0, 1) sampler."""
    assert calls_outside("standard_normal", "channel", "draw_unit_noise") == []


def test_mpsk_points_come_from_the_constellation():
    """The points formula exp(2j*pi*n/M) is written only in constellation.py,
    so detection, zero forcing and the margin forms share one alphabet."""
    writers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if re.search(r"2j\s*\*\s*np\.pi", path.read_text())
    ]
    assert writers == ["constellation.py"]


def test_sector_trigonometry_comes_from_the_constellation():
    """cot(pi/M) and sin(pi/M) are written only in constellation.py, so the
    margin forms, the point margin and the union bound take M from a checked
    MpskConstellation."""
    writers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if re.search(r"np\.(tan|sin)\(np\.pi", path.read_text())
    ]
    assert writers == ["constellation.py"]


def test_system_params_come_from_the_spec():
    """``SystemParams`` is built only in ``ExperimentSpec.system_params``,
    after the spec has checked its counts, power and SNR points, and is no
    public name, so no caller builds one the spec did not check."""
    assert calls_outside("SystemParams", "harness", "system_params") == []
    assert "SystemParams" not in onebit_precoding.__all__


def test_box_lp_is_solved_only_by_the_instance():
    """``PrecodingInstance.relaxed`` is the one caller of ``relaxed_lp`` in
    the package, so FALM and MSM read one cached solve per instance and no
    precoder solves the box LP a second time."""
    assert calls_outside("relaxed_lp", "precoding", "relaxed") == []


def test_lp_solver_is_imported_only_by_precoding():
    """precoding.py is the one module that imports ``scipy.optimize`` or
    the HiGHS binding it ships, so ``relaxed_lp`` is the one home of the box
    LP and ``baselines`` solves it only through that function. Importing
    the binding, ``scipy.optimize._highspy._core``, is deliberate although
    it is private scipy API: it builds the dense LP without ``milp``'s
    per-call sparse rebuild and checks."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(module.startswith("scipy.optimize") for module in modules):
                importers.append(path.name)
    assert sorted(set(importers)) == ["precoding.py"]


def test_package_import_leaves_the_cli_out():
    """``import onebit_precoding`` in a fresh interpreter does not load
    ``onebit_precoding.cli``, so nothing the CLI defines, such as its CSV
    writer, reaches the package's namespace."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))  # this very package
    probe = "import sys, onebit_precoding; print('onebit_precoding.cli' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_benchmark_call_contract():
    """perfbench's tracer calls falm_solve(instance, config, init,
    trace_file) positionally, takes each outer step's APG count from the
    trace's last column, and reads the margin of msm_precode's report."""
    rng = np.random.default_rng(5)
    instance = build_instance(draw_channel(3, 6, rng), draw_symbols(8, 3, rng), MpskConstellation(8), 1.0)
    log = io.StringIO()
    report = falm_solve(instance, None, None, log)
    inner = [int(row.rsplit(",", 1)[1]) for row in log.getvalue().splitlines()[1:]]
    assert inner == [s.apg_iterations for s in report.steps]
    msm = msm_precode(instance)
    assert msm.margin == min_margin(instance, msm.x_onebit.x_real)
