"""Output checks for the benchmark workloads.

Every check recomputes what it compares against from the inputs, with
numpy, networkx and `math`, or tests a property the method must have.
None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import networkx as nx
import numpy as np

BS_ID = -1
_ROWS_PER_BLOCK = 512


class Checker:
    """Collects failed expectations; a run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.failures) < 50:
            self.failures.append(message)


def reference_graph(chk: Checker, graph) -> nx.Graph:
    """Unit-disk graph rebuilt from the positions, independent of `udg`.

    Uses the same closed-disk rule on squared distances, so it must match
    the program's adjacency edge for edge.
    """
    xy = np.array([(p.x, p.y) for p in graph.positions], dtype=np.float64)
    r2 = graph.radius * graph.radius
    ref = nx.Graph()
    ref.add_nodes_from(range(graph.n))
    for lo in range(0, graph.n, _ROWS_PER_BLOCK):
        block = xy[lo:lo + _ROWS_PER_BLOCK]
        dx = xy[None, :, 0] - block[:, None, 0]
        dy = xy[None, :, 1] - block[:, None, 1]
        rows, cols = np.nonzero(dx * dx + dy * dy <= r2)
        ref.add_edges_from((int(lo + i), int(j))
                           for i, j in zip(rows, cols) if lo + i < j)
    chk.expect(ref.number_of_edges() == graph.edge_count(),
               f"udg: {graph.edge_count()} edges, reference has "
               f"{ref.number_of_edges()}")
    return ref


# -- sweep-paper ---------------------------------------------------------------


def check_sweep_cell(chk: Checker, cell: str, plan, graph, state, row,
                     greedy_one, greedy_two) -> None:
    n, eta, bits = plan.n, plan.eta, plan.key_bits
    pos = graph.positions
    for g in plan.groups:
        d = pos[g.dominator]
        for m in g.members:
            chk.expect(math.hypot(pos[m].x - d.x, pos[m].y - d.y)
                       <= graph.radius * (1 + 1e-12),
                       f"{cell}: member {m} landed beyond one radius")
    cm = state.cluster_map
    chk.expect(not cm.orphan_events,
               f"{cell}: {len(cm.orphan_events)} orphans in an intact landing")
    alpha = math.ceil(n / (eta + 1))
    chk.expect(row.dominators_ours == alpha,
               f"{cell}: {row.dominators_ours} dominators, expected {alpha}")

    ref = reference_graph(chk, graph)
    for name, chosen in (("greedy I", greedy_one), ("greedy II", greedy_two)):
        for comp in nx.connected_components(ref):
            part = set(chosen) & comp
            chk.expect(bool(part)
                       and nx.is_dominating_set(ref.subgraph(comp), part)
                       and nx.is_connected(ref.subgraph(part)),
                       f"{cell}: {name} is not a CDS of a component")

    doms = set(cm.dominator_set())
    weak = nx.Graph()
    weak.add_nodes_from(doms)
    weak.add_edges_from((u, v) for u, v in ref.edges() if u in doms or v in doms)
    expected_wcds = (nx.is_dominating_set(ref, doms)
                     and weak.number_of_nodes() == n and nx.is_connected(weak))
    chk.expect(row.wcds_valid == expected_wcds,
               f"{cell}: wcds_valid={row.wcds_valid}, networkx says {expected_wcds}")
    check_storage(chk, cell, n, eta, bits, row.distinct_keys,
                  row.gd_storage_bits, None, row.network_storage_bits)


def check_storage(chk: Checker, where: str, n: int, eta: int, bits: int,
                  distinct: int, gd_bits: int, os_bits, network_bits: int) -> None:
    alpha = math.ceil(n / (eta + 1))
    chk.expect(distinct == n, f"{where}: distinct keys {distinct} != n {n}")
    chk.expect(gd_bits == (eta + 1) * bits, f"{where}: GD storage {gd_bits}")
    chk.expect(os_bits is None or os_bits == 2 * bits, f"{where}: Os storage {os_bits}")
    expected = bits * (alpha * (eta + 1) + 2 * (n - alpha))
    chk.expect(network_bits == expected,
               f"{where}: network storage {network_bits}, expected {expected}")


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_sweep_artifacts(chk: Checker, out: Path, cells: int, eta: int,
                          bits: int, fig9_n: list[int], fig10_eta: list[int],
                          fig10_bits: list[int], curve_n: list[int],
                          p_c_values: list[float]) -> None:
    sweep = _rows(out / "sweep.csv")
    chk.expect(len(sweep) == cells, f"sweep.csv has {len(sweep)} rows, expected {cells}")
    for r in sweep:
        n = int(r["n"])
        chk.expect(int(r["dominators_ours"]) == math.ceil(n / (eta + 1)),
                   f"sweep.csv: n={n} seed={r['seed']} dominators_ours")
        check_storage(chk, f"sweep.csv n={n}", n, eta, bits, int(r["distinct_keys"]),
                      int(r["gd_storage_bits"]), None, int(r["network_storage_bits"]))

    fig9 = _rows(out / "fig9.csv")
    chk.expect([int(r["n"]) for r in fig9] == fig9_n, "fig9.csv: n column")
    fig10 = _rows(out / "fig10.csv")
    chk.expect([(int(r["key_bits"]), int(r["eta"])) for r in fig10]
               == [(b, e) for b in fig10_bits for e in fig10_eta],
               "fig10.csv: (key_bits, eta) columns")
    for r in fig9 + fig10:
        check_storage(chk, f"fig9/10 n={r['n']} eta={r['eta']}", int(r["n"]),
                      int(r["eta"]), int(r["key_bits"]), int(r["distinct_keys"]),
                      int(r["gd_storage_bits"]), int(r["os_storage_bits"]),
                      int(r["network_storage_bits"]))

    fig12 = _rows(out / "fig12.csv")
    chk.expect([(int(r["n"]), float(r["p_c"])) for r in fig12]
               == [(n, p) for n in curve_n for p in p_c_values],
               "fig12.csv: (n, p_c) columns")
    for r in fig12:
        n, p_c = int(r["n"]), float(r["p_c"])
        p = (math.log(n) - math.log(-math.log(p_c))) / n
        d = (n - 1) * p
        chk.expect(math.isclose(float(r["p"]), p, rel_tol=1e-12, abs_tol=1e-15)
                   and math.isclose(float(r["d"]), d, rel_tol=1e-12, abs_tol=1e-12),
                   f"fig12.csv: n={n} p_c={p_c} p/d off the closed form")
        chk.expect((r["in_range"] == "true") == (0.0 <= p <= 1.0),
                   f"fig12.csv: n={n} p_c={p_c} in_range")

    for name in ("fig9.svg", "fig10.svg", "fig11.svg", "fig12.svg"):
        root = ElementTree.parse(out / name).getroot()
        chk.expect(root.tag.endswith("svg"), f"{name} is not an SVG document")


# -- uniform-flood -------------------------------------------------------------


def check_uniform_network(chk: Checker, where: str, graph, state,
                          trace_csv: Path) -> None:
    cm = state.cluster_map
    ref = reference_graph(chk, graph).subgraph(state.deployed)
    unreachable = cm.unreachable()
    active = (set(cm.ranks) & state.deployed) - unreachable
    doms = set(cm.dominator_set()) & active
    chk.expect(nx.is_dominating_set(ref.subgraph(active), doms),
               f"{where}: dominators do not dominate the active subgraph")
    for v in unreachable:
        chk.expect(ref.degree(v) == 0, f"{where}: UNREACHABLE {v} has neighbours")
    for ev in cm.orphan_events:
        if ev.resolution == "ADOPTED":
            chk.expect(ev.adopter in doms and ref.has_edge(ev.adopter, ev.node),
                       f"{where}: adopter {ev.adopter} of {ev.node} is not an "
                       "adjacent dominator")
    relays = sum(1 for ev in state.trace if ev.transmitter != ev.envelope.sender)
    expected = sum(len(nx.node_connected_component(ref, ev.node)) - 1
                   for ev in cm.orphan_events)
    chk.expect(relays == expected,
               f"{where}: {relays} flood relays, component sizes give {expected}")
    with open(trace_csv, newline="") as f:
        rows = sum(1 for _ in f) - 1
    chk.expect(rows == len(state.trace),
               f"{where}: trace.csv has {rows} rows for {len(state.trace)} events")


# -- secure-churn --------------------------------------------------------------


def vault_key_ids(plan) -> set[str]:
    vault = plan.vault
    ids = {k.key_id for k in vault.all_individual_keys.values()}
    ids.update(k.key_id for hist in vault.group_key_history.values() for k in hist)
    return ids


def check_vault_covers_rings(chk: Checker, where: str, state) -> None:
    held = vault_key_ids(state.plan)
    for node, ring in state.rings.items():
        missing = set(ring) - held
        chk.expect(not missing, f"{where}: vault lacks {len(missing)} keys of node {node}")


def check_group_key_everywhere(chk: Checker, where: str, state, gid: int) -> None:
    kid = state.group_key[gid].key_id
    for m in state.group_members[gid] | {state.group_dominator[gid]}:
        chk.expect(kid in state.rings.get(m, {}),
                   f"{where}: node {m} lacks the current key of group {gid}")


def check_leaver(chk: Checker, state, node: int, ring_at_leave: frozenset) -> None:
    # every key minted from the leave's own rekey on is new to the leaver,
    # so it holds none of them iff its ring gained nothing since
    gained = set(state.rings.get(node, {})) - ring_at_leave
    chk.expect(not gained, f"leaver {node} gained {len(gained)} keys after it left")


def check_adversary(chk: Checker, plan, profile, report) -> None:
    if profile.mode == "OUTSIDER":
        chk.expect(not report.decrypted and report.admissions == 0,
                   f"outsider opened {len(report.decrypted)} envelopes and got "
                   f"{report.admissions} admissions")
        return
    for a in report.attempts:
        if not a.admitted:
            continue
        group = plan.groups[a.target_group] if a.target_group < len(plan.groups) else None
        key = group.individual_keys.get(a.claimed_id) if group is not None else None
        chk.expect(key is not None and key.key_id in profile.held_keys,
                   f"{profile.mode} admitted as {a.claimed_id} without its key")


def check_revoked(chk: Checker, state, gid: int) -> None:
    gd = state.group_dominator[gid]
    chk.expect(gid in state.revoked_groups and not state.group_members[gid]
               and gd not in state.deployed
               and set(state.rings[gd]) <= state.revoked_key_ids,
               f"group {gid} not fully revoked")
