"""The runtime is pure standard library: numpy, networkx and hypothesis
serve the tests and the benchmark only.  The package's public names are
listed here, so that the surface changes only on purpose."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import secluster

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "secluster"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def test_the_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one within the package
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # keying builds trace's envelopes and trace names keying's keys, so an
    # import cycle between modules would break whichever is imported first
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", f"import secluster.{module}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_the_package_exports_exactly_these_names():
    # a name added to or dropped from the package surface shows in the diff
    exported = sorted(name for name, value in vars(secluster).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == [
        "AdversaryProfile", "Cell", "ClusterMap", "DeploymentPlan", "ExperimentRow",
        "GreedyVariant", "Key", "NetworkState", "Placement", "Point",
        "UnitDiskGraph", "build_plan", "deploy_graph", "expected_gd_degree",
        "form_network", "generate_uniform", "greedy_cds_baseline",
        "ideal_domset_size", "is_connected", "radius_for_expected_degree", "storage_curves", "storage_gd_bits",
        "storage_network_bits", "storage_os_bits", "sweep_domset_sizes",
        "threshold_p",
    ]
