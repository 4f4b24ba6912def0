"""Secure cluster formation for distributed sensor networks.

Simulates offline key pre-distribution, rank assignment, and the
message-level cluster-formation protocol over unit-disk proximity graphs,
with a dominating-set verifier and the closed-form storage/connectivity
analysis alongside.
"""

from .udg import (
    Point,
    UnitDiskGraph,
    generate_uniform,
    is_connected,
    radius_for_expected_degree,
)
from .domsets import GreedyVariant, greedy_cds_baseline
from .keying import (
    DeploymentPlan,
    Key,
    build_plan,
    storage_gd_bits,
    storage_network_bits,
    storage_os_bits,
)
from .protocol import (
    AdversaryProfile,
    ClusterMap,
    NetworkState,
    Placement,
    deploy_graph,
    form_network,
)
from .analysis import (
    Cell,
    ExperimentRow,
    expected_gd_degree,
    ideal_domset_size,
    storage_curves,
    sweep_domset_sizes,
    threshold_p,
)

__version__ = "0.1.0"
