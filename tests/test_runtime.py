"""The runtime is pure standard library: numpy, networkx and hypothesis
serve the tests and the benchmark only.  The package's public names are
listed here, so that the surface changes only on purpose."""

import ast
import sys
import types
from pathlib import Path

import secluster

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "secluster"


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
