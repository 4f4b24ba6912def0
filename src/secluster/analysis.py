"""Closed-form results and experiment sweeps.

Covers the ideal dominator count n/(eta+1), per-node and network-wide key
storage, the random-graph connectivity threshold for the high-level
cluster graph, and the sweep harness that compares formed dominator sets
against greedy connected-dominating-set baselines on the same graphs.
"""

from __future__ import annotations

import csv
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from . import domsets, keying, protocol, udg

DEFAULT_FIELD = 500.0
DEFAULT_KEY_BITS = 128


def derive_seed(*parts) -> int:
    """Stable sub-seed from arbitrary labels (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def ideal_domset_size(n: int, eta: int) -> int:
    """Dominator count when every group lands intact: ceil(n / (eta+1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    return -(-n // (eta + 1))


@dataclass(frozen=True)
class ThresholdResult:
    """Connectivity-threshold edge probability for an n-cluster overlay.

    `p_raw` is the asymptotic formula value, which legitimately exits [0,1]
    for small n or extreme targets; `p` is clamped and `in_range` flags
    whether clamping occurred.
    """

    p_raw: float
    p: float
    in_range: bool


def threshold_p(n: int, p_c: float) -> ThresholdResult:
    """Edge probability at which an n-node random graph connects w.p. p_c."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < p_c < 1.0:
        raise ValueError("p_c must be in (0, 1)")
    raw = (math.log(n) - math.log(-math.log(p_c))) / n
    clamped = min(max(raw, 0.0), 1.0)
    return ThresholdResult(p_raw=raw, p=clamped, in_range=raw == clamped)


def expected_gd_degree(n: int, p_c: float) -> float:
    """Expected inter-cluster degree of a dominator at the threshold.

    Equals (n-1) times the raw threshold probability, so the decomposition
    is exact by construction.
    """
    return (n - 1) * threshold_p(n, p_c).p_raw


@dataclass(frozen=True)
class ExperimentRow:
    """One sweep cell: a formed network compared against greedy baselines."""

    seed: int
    n: int
    eta: int
    avg_degree_target: float
    placement: str
    dominators_ours: int
    dominators_greedy_I: int
    dominators_greedy_II: int
    wcds_valid: bool
    distinct_keys: int
    gd_storage_bits: int
    network_storage_bits: int


def formation_validity(state: protocol.NetworkState) -> domsets.DomsetReport:
    """Classify the formed dominator set on the active proximity subgraph.

    Active means deployed and not written off as UNREACHABLE during
    formation.  Domination is guaranteed by the protocol; weak connectivity
    is measured, since stars of neighboring groups are not proven to share
    a mediator.
    """
    cm = state.cluster_map
    active = state.deployed - cm.unreachable()
    return domsets.classify(state.graph, cm.dominator_set(), active)


def run_experiment_cell(n: int, eta: int, avg_degree: float,
                        placement: protocol.Placement, seed: int,
                        width: float = DEFAULT_FIELD, height: float = DEFAULT_FIELD,
                        key_bits: int = DEFAULT_KEY_BITS) -> ExperimentRow:
    """Generate, form, verify, and account one (n, seed) sweep cell."""
    radius = udg.radius_for_expected_degree(n, width, height, avg_degree)
    plan = keying.build_plan(n, eta, key_bits, derive_seed("plan", seed, n))
    graph = protocol.deploy_graph(plan, width, height, radius, placement,
                                  derive_seed("graph", seed, n))
    state = protocol.form_network(graph, plan, placement,
                                  derive_seed("form", seed, n))
    report = formation_validity(state)

    greedy_one = domsets.greedy_cds_baseline(graph, domsets.GreedyVariant.I)
    greedy_two = domsets.greedy_cds_baseline(graph, domsets.GreedyVariant.II)

    alpha = plan.gd_count
    beta = plan.os_count
    return ExperimentRow(
        seed=seed,
        n=n,
        eta=eta,
        avg_degree_target=avg_degree,
        placement=placement.describe(),
        dominators_ours=len(state.cluster_map.dominator_set()),
        dominators_greedy_I=len(greedy_one),
        dominators_greedy_II=len(greedy_two),
        wcds_valid=report.is_wcds,
        distinct_keys=plan.distinct_key_count(),
        gd_storage_bits=keying.storage_gd_bits(eta, key_bits),
        network_storage_bits=keying.storage_network_bits(alpha, beta, eta, key_bits),
    )


def _cell_args(args) -> ExperimentRow:
    return run_experiment_cell(*args)


def sweep_domset_sizes(n_range: Sequence[int], avg_degree: float, eta: int,
                       placement: protocol.Placement, seeds: int,
                       width: float = DEFAULT_FIELD, height: float = DEFAULT_FIELD,
                       key_bits: int = DEFAULT_KEY_BITS, base_seed: int = 0,
                       workers: int = 1) -> list[ExperimentRow]:
    """Run the (n, seed) grid and return rows in canonical (n, seed) order.

    Cells are independent; with workers > 1 they fan out across processes,
    which cannot change the result because every cell derives its own seeds.
    """
    if not n_range:
        raise ValueError("n_range must be nonempty")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    grid = [(n, eta, avg_degree, placement, base_seed + s, width, height, key_bits)
            for n in n_range for s in range(seeds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_cell_args, grid))
    else:
        rows = [run_experiment_cell(*args) for args in grid]
    rows.sort(key=lambda r: (r.n, r.seed))
    return rows


@dataclass(frozen=True)
class StorageRow:
    n: int
    eta: int
    key_bits: int
    distinct_keys: int
    gd_storage_bits: int
    os_storage_bits: int
    network_storage_bits: int


def storage_curves(n_range: Sequence[int], eta_values: Sequence[int],
                   key_bits: int) -> list[StorageRow]:
    """Key counts and storage for every (n, eta) pair at one key length."""
    if not n_range or not eta_values:
        raise ValueError("ranges must be nonempty")
    rows = []
    for n in n_range:
        for eta in eta_values:
            alpha = ideal_domset_size(n, eta)
            beta = n - alpha
            rows.append(StorageRow(
                n=n,
                eta=eta,
                key_bits=key_bits,
                distinct_keys=alpha + beta,
                gd_storage_bits=keying.storage_gd_bits(eta, key_bits),
                os_storage_bits=keying.storage_os_bits(key_bits),
                network_storage_bits=keying.storage_network_bits(
                    alpha, beta, eta, key_bits),
            ))
    return rows


@dataclass(frozen=True)
class ConnectivityRow:
    n: int
    p_c: float
    p: float
    d: float
    in_range: bool


def connectivity_curves(n_range: Sequence[int],
                        p_c_values: Sequence[float]) -> list[ConnectivityRow]:
    """Threshold probability and expected dominator degree per (n, p_c)."""
    rows = []
    for n in n_range:
        for p_c in p_c_values:
            t = threshold_p(n, p_c)
            rows.append(ConnectivityRow(
                n=n, p_c=p_c, p=t.p_raw, d=(n - 1) * t.p_raw,
                in_range=t.in_range,
            ))
    return rows


def write_table(row_type: type, rows: Iterable, path: Path | str) -> None:
    """Write rows of one dataclass type as CSV, one column per field in order.

    A bool cell is `true`/`false`, a float cell is `fmt_float`, and any other
    value is written as it is.
    """
    names = [f.name for f in fields(row_type)]
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(names)
        for r in rows:
            w.writerow([_cell(getattr(r, name)) for name in names])


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt_float(value) if isinstance(value, float) else value


def fmt_float(x: float) -> str:
    """Compact, locale-independent float for CSV cells (repr round-trips)."""
    return repr(x) if x != int(x) else str(int(x))
