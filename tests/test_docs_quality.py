"""Documentation quality gates.

Deliverable (e) requires doc comments on every public item; these
tests make that a checked invariant rather than a review-time hope:
every module in the package has a docstring, every public class and
module-level function has one, and every ``__all__`` entry resolves.
Every ``python`` block of README.md runs as written.
"""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {undocumented}"
    )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}: __all__ lists {missing}"


def test_every_package_module_is_importable():
    """walk_packages above already imported everything without error;
    double-check the count is sane so silent skips get noticed."""
    names = {module.__name__ for module in MODULES}
    for expected in (
        "repro.core.scheduler",
        "repro.dram.channel",
        "repro.controller.intel",
        "repro.cpu.core",
        "repro.workloads.spec2000",
        "repro.experiments.fig10",
        "repro.analysis.fairness",
        "repro.sim.fsb",
    ):
        assert expected in names
    assert len(names) > 40


def _readme_blocks():
    """README's python blocks but the one that needs a running server."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    return [block for block in blocks if "ServiceClient" not in block]


@pytest.mark.parametrize("index", range(len(_readme_blocks())))
def test_readme_python_block_runs(index, tmp_path):
    """Each block exits 0 in a fresh interpreter with its own cache."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _readme_blocks()[index]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
