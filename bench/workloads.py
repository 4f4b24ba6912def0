"""The three benchmark workloads.

Each workload object is built from the program's modules and the run's
seed, and runs one whole pass at a time through `run_pass`.  A pass always
performs the same operations for the same seed, so every pass of a run
writes the same artifacts and the same counts.

`sweep-paper` and `uniform-flood` run the program's own commands,
`secluster sweep` and `secluster form`, through `cli.main`.  `secure-churn`
calls the public functions of `keying`, `protocol` and `udg`, since no
command runs membership changes.  `Hooks` times each layer from outside by
wrapping the module functions that these call.

  sweep-paper    the default `secluster sweep`: 570 clustered cells with
                 rho equal to one radius, plus the closed-form datasets.
  uniform-flood  `secluster form` under uniform placement.
  secure-churn   a clustered network with a tenth held back, then joins,
                 leaves, adversary replays and a group revocation.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass
from pathlib import Path

import checks

WIDTH = HEIGHT = 500.0
ETA = 9
KEY_BITS = 128


class Hooks:
    """Spans around the program's module functions, for the current pass.

    Each hooked function is replaced on its module by a wrapper that opens a
    span named after its layer and keeps the call's result in `seen`, so a
    workload can count and check what the program built.  The program looks
    these functions up on their modules at call time, so the commands run
    through the wrappers.  The wrappers cost one attribute lookup, one
    no-op context when tracing is off, and a probe of the host's speed
    when one is due (see `timing.Pass`).
    """

    def __init__(self, prog) -> None:
        self.p = None  # the pass being run
        self.seen: dict[str, object] = {}
        self.on_cell = None  # called untimed with each sweep cell's row
        self._wrap(prog.keying, "build_plan", "keying.plan", "plan")
        self._wrap(prog.udg, "generate_uniform", "udg.build", "graph")
        self._wrap(prog.protocol, "deploy_graph", "udg.build", "graph")
        self._wrap(prog.protocol, "form_network", "protocol.form", "state")
        self._wrap(prog.protocol, "write_trace_csv", "protocol.trace_csv", None)
        self._wrap(prog.analysis, "formation_validity", "analysis.validity", "report")
        self._wrap(prog.domsets, "greedy_cds_baseline",
                   lambda args, kwargs: "domsets.greedy_"
                   + (kwargs["variant"] if "variant" in kwargs else args[1]).name,
                   None)
        cell = prog.analysis.run_experiment_cell

        @functools.wraps(cell)
        def hooked_cell(*args, **kwargs):
            with self.p.op("cell"):
                row = cell(*args, **kwargs)
            if self.on_cell is not None:
                with self.p.untimed():
                    self.on_cell(row)
            return row

        prog.analysis.run_experiment_cell = hooked_cell

    def _wrap(self, module, attr: str, span, keep) -> None:
        func = getattr(module, attr)

        @functools.wraps(func)
        def hooked(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            with self.p.span(name):
                result = func(*args, **kwargs)
            self.seen[keep or name] = result
            self.p.checkpoint()
            return result

        setattr(module, attr, hooked)


def run_cli(prog, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = prog.cli.main(argv)
    if status != 0:
        raise RuntimeError(f"secluster {argv[0]} exited with {status}")


def count_network(p, plan, graph, state) -> None:
    """Add one formed network's trace and key counts to the pass."""
    c = p.counts
    c["planned"] += plan.n
    c["udg.edges"] += graph.edge_count()
    vault = plan.vault
    c["keying.keys_issued"] += (len(vault.all_individual_keys)
                                + sum(len(h) for h in vault.group_key_history.values()))
    c["protocol.trace_events"] += len(state.trace)
    for ev in state.trace:
        if ev.transmitter != checks.BS_ID:
            c["sensor_tx"] += 1
        if ev.transmitter != ev.envelope.sender:
            c["protocol.flood_relays"] += 1
        else:
            c["protocol.envelopes"] += 1
            if ev.envelope.kind.value == "GD_ERR":
                c["floods"] += 1
    for ev in state.cluster_map.orphan_events:
        c["protocol." + ev.resolution.lower()] += 1
    c["protocol.rekeys"] += len(state.cluster_map.rekey_log)


def cli_range(r: range) -> str:
    return f"{r.start}:{r[-1]}:{r.step}"


# -- sweep-paper ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    n6: range
    n12: range
    seeds: int


# `secluster sweep` defaults, passed explicitly so that the workload stays
# fixed; the smoke grid is a small corner of it
PAPER_GRID = SweepGrid(range(20, 201, 20), range(40, 201, 20), 30)
SMOKE_GRID = SweepGrid(range(20, 41, 20), range(40, 41, 20), 2)
FIG10_ETA = [0, 3, 5, 9, 12, 15]
FIG10_BITS = [64, 128, 256]
CURVE_N = range(10, 2001, 10)
P_C = [0.9, 0.99, 0.999, 0.9999]


class SweepPaper:
    """The paper's headline experiment; one unit operation is one cell."""

    def __init__(self, prog, seed: int, smoke: bool):
        self.prog = prog
        self.seed = seed
        self.grid = grid = SMOKE_GRID if smoke else PAPER_GRID
        self.argv = [
            "sweep", "--n-range6", cli_range(grid.n6), "--n-range12", cli_range(grid.n12),
            "--seeds", str(grid.seeds), "--eta", str(ETA), "--placement", "clustered",
            "--key-bits", str(KEY_BITS), "--width", str(WIDTH), "--height", str(HEIGHT),
            "--workers", "1", "--eta-values", ",".join(map(str, FIG10_ETA)),
            "--key-bits-list", ",".join(map(str, FIG10_BITS)),
            "--curve-n", cli_range(CURVE_N), "--p-c", ",".join(map(str, P_C)),
            "--seed", str(seed)]

    def run_pass(self, p, out: Path, chk) -> None:
        hooks = self.prog.hooks
        hooks.p = p
        seen = hooks.seen
        cells = 0

        def on_cell(row) -> None:
            nonlocal cells
            cells += 1
            count_network(p, seen["plan"], seen["graph"], seen["state"])
            p.counts["domsets.greedy_I_size"] += len(seen["domsets.greedy_I"])
            p.counts["domsets.greedy_II_size"] += len(seen["domsets.greedy_II"])
            if chk is not None:
                checks.check_sweep_cell(
                    chk, f"d={row.avg_degree_target:g} n={row.n} seed={row.seed}",
                    seen["plan"], seen["graph"], seen["state"], row,
                    seen["domsets.greedy_I"], seen["domsets.greedy_II"])

        hooks.on_cell = on_cell
        try:
            with p.timed("cli.sweep"):
                run_cli(self.prog, [*self.argv, "--out-dir", str(out)])
        finally:
            hooks.on_cell = None
        if chk is not None:
            grid = self.grid
            chk.expect(cells == (len(grid.n6) + len(grid.n12)) * grid.seeds,
                       f"secluster sweep ran {cells} cells")
            checks.check_sweep_artifacts(
                chk, out, cells, ETA, KEY_BITS, list(grid.n6), FIG10_ETA,
                FIG10_BITS, list(CURVE_N), P_C)


# -- uniform-flood -------------------------------------------------------------


# (n, average degree) of the networks in one pass.  Degree 12 gives one
# giant component, so its flood cost is nearly the same for every seed;
# degree 6 fragments the field and its cost swings by about 13% with the
# seed.  The degree-12 networks are the larger and the more numerous, so
# the median network, and most of the pass, is a degree-12 one.
UNIFORM_NETS = [(250, 12.0)] * 4 + [(200, 6.0)] * 2
SMOKE_UNIFORM_NETS = [(60, 12.0), (60, 6.0)]


class UniformFlood:
    """Uniform placement, where almost every sensor is an orphan that floods.

    One unit operation is one `secluster form` run, from plan to written
    artifacts.
    """

    def __init__(self, prog, seed: int, smoke: bool):
        self.prog = prog
        self.nets = SMOKE_UNIFORM_NETS if smoke else UNIFORM_NETS
        derive = prog.analysis.derive_seed
        self.net_seeds = [derive("uniform-flood", seed, i) for i in range(len(self.nets))]

    def run_pass(self, p, out: Path, chk) -> None:
        hooks = self.prog.hooks
        hooks.p = p
        seen = hooks.seen
        for i, ((n, avg_degree), s) in enumerate(zip(self.nets, self.net_seeds)):
            net_out = out / f"net{i}"
            with p.op("cli.form"):
                run_cli(self.prog, [
                    "form", "--placement", "uniform", "--n", str(n),
                    "--avg-degree", str(avg_degree), "--eta", str(ETA),
                    "--key-bits", str(KEY_BITS), "--width", str(WIDTH),
                    "--height", str(HEIGHT), "--seed", str(s), "--out-dir", str(net_out)])
            count_network(p, seen["plan"], seen["graph"], seen["state"])
            p.counts["trace_csv_bytes"] += (net_out / "trace.csv").stat().st_size
            if chk is not None:
                where = f"net{i} n={n} d={avg_degree:g}"
                chk.expect(seen["report"].is_dominating, f"{where}: formation_validity "
                           "says the set does not dominate")
                checks.check_uniform_network(chk, where, seen["graph"], seen["state"],
                                             net_out / "trace.csv")


# -- secure-churn --------------------------------------------------------------


@dataclass(frozen=True)
class ChurnSize:
    n: int
    own_joins: int
    foreign_joins: int
    leaves: int
    attempts: int  # forged joins per adversary replay


# Leaves are most of the schedule: their rekey traffic is fixed by the
# group sizes, while the flood traffic of the orphans swings with how the
# landed groups happen to touch, so many leaves keep transmissions per node
# steady from seed to seed.
CHURN = ChurnSize(n=3000, own_joins=120, foreign_joins=40, leaves=1200, attempts=100)
SMOKE_CHURN = ChurnSize(n=300, own_joins=8, foreign_joins=3, leaves=8, attempts=20)

# Joins into promoted (GDos) groups raise IndexError in `join_node`, which
# indexes the planned groups with a group id made by promotion.  They run
# on this fixed network, the same for every seed, so that the failed share
# of each pass is the same in every run: n=200, degree 6, clustered at
# rho = r/4, every node with v % 7 == 3 held back.  Seed 5 is the first
# seed whose network has four held-back neighbours of promoted dominators.
PROMOTED_NET_N = 200
PROMOTED_NET_SEED = 5
PROMOTED_JOINS = 4


class SecureChurn:
    """Membership changes, adversary replays and a revocation on a live net.

    One unit operation is one join, leave, replay or revocation.
    """

    def __init__(self, prog, seed: int, smoke: bool):
        self.prog = prog
        self.size = SMOKE_CHURN if smoke else CHURN
        self.seed = seed

    def _network(self, p, n: int, seeds: tuple[int, int, int], held_of) -> tuple:
        prog = self.prog
        radius = prog.udg.radius_for_expected_degree(n, WIDTH, HEIGHT, 6.0)
        placement = prog.protocol.Placement.clustered(radius / 4)
        with p.timed("network"):
            plan = prog.keying.build_plan(n, ETA, KEY_BITS, seeds[0])
        held = held_of(plan)
        with p.timed("network"):
            graph = prog.protocol.deploy_graph(plan, WIDTH, HEIGHT, radius,
                                               placement, seeds[1])
            state = prog.protocol.form_network(
                graph, plan, placement, seeds[2],
                deployed=[v for v in range(n) if v not in held])
        return plan, graph, state, held

    def _held_back(self, plan, rng: random.Random) -> set[int]:
        # a tenth of the sensors, one dominator in sixty among them: each
        # held-back dominator's members flood as far as their landed
        # groups touch, which swings with the seed
        doms = sorted(g.dominator for g in plan.groups)
        dom_set = set(doms)
        members = [v for v in range(plan.n) if v not in dom_set]
        k_dom = max(1, len(doms) // 60)
        return set(rng.sample(doms, k_dom)) | set(rng.sample(members, plan.n // 10 - k_dom))

    def _schedule(self, plan, graph, state, held, rng):
        size = self.size
        gid_of = {g.dominator: g.group_id for g in plan.groups}
        live_gds = {g.dominator for g in plan.groups if g.dominator in state.deployed}
        held_os = sorted(v for v in held if v not in gid_of)
        # foreign joins are the scarcer kind, so they are drawn first
        foreign = []
        for v in held_os:
            targets = sorted(graph.neighbors(v) & live_gds - {plan.group_of(v).dominator})
            if targets:
                foreign.append((v, gid_of[rng.choice(targets)]))
        foreign = rng.sample(foreign, size.foreign_joins)
        taken = {v for v, _gid in foreign}
        own = [v for v in held_os
               if v not in taken and plan.group_of(v).dominator in live_gds]
        own = rng.sample(own, size.own_joins)
        members = sorted(m for ms in state.group_members.values() for m in ms)
        spy = rng.choice(members)
        leavers = rng.sample([m for m in members if m != spy], size.leaves)
        ops = ([("join", v, plan.group_of(v).group_id) for v in own]
               + [("join", v, gid) for v, gid in foreign]
               + [("leave", m, None) for m in leavers])
        rng.shuffle(ops)
        return ops, spy

    def run_pass(self, p, out: Path, chk) -> None:
        prog = self.prog
        prog.hooks.p = p
        protocol, derive = prog.protocol, prog.analysis.derive_seed
        size = self.size
        rng = random.Random(derive("secure-churn", self.seed))
        seeds = (derive("plan", self.seed), derive("graph", self.seed),
                 derive("form", self.seed))
        plan, graph, state, held = self._network(
            p, size.n, seeds, lambda plan: self._held_back(plan, rng))
        if chk is not None:
            checks.check_vault_covers_rings(chk, "after formation", state)
        ops, spy = self._schedule(plan, graph, state, held, rng)

        left = {}
        for kind, v, gid in ops:
            if kind == "join":
                with p.op("protocol.join"):
                    ok = state.join_node(v, gid)
                if chk is not None:
                    chk.expect(ok, f"join of {v} into group {gid} denied")
                    checks.check_group_key_everywhere(chk, f"join of {v}", state, gid)
            else:
                if chk is not None:
                    left[v] = frozenset(state.rings[v])  # before the leave's rekey
                with p.op("protocol.leave"):
                    ok = state.leave_node(v)
                if chk is not None:
                    chk.expect(ok, f"leave of {v} refused")

        adoptions = {}
        for ev in state.cluster_map.orphan_events:
            if ev.resolution == "ADOPTED":
                adoptions[ev.adopter] = adoptions.get(ev.adopter, 0) + 1
        # the most loaded adopter holds foreign individual keys, so its
        # replay also opens the relayed copies of orphan floods
        gd = (min(adoptions, key=lambda d: (-adoptions[d], d)) if adoptions
              else rng.choice(sorted(d for d in state.group_dominator.values()
                                     if d in state.deployed)))
        victim_gid = state.group_of_node(gd)
        profiles = [protocol.AdversaryProfile.outsider(),
                    protocol.AdversaryProfile.compromised_os(state, spy),
                    protocol.AdversaryProfile.compromised_gd(state, victim_gid)]
        for i, profile in enumerate(profiles):
            with p.op("protocol.replay"):
                report = state.simulate_adversary(profile, size.attempts,
                                                  derive("replay", self.seed, i))
            opened = {fp for _kind, _gid, fp in report.decrypted}
            p.counts["replay_decrypts"] += len(report.decrypted)
            p.counts["replay_envelopes"] += len(
                {id(ev.envelope) for ev in state.trace
                 if ev.envelope.key_fingerprint in opened})
            if chk is not None:
                checks.check_adversary(chk, plan, profile, report)

        with p.op("protocol.revoke"):
            state.revoke_group(victim_gid)
        (out / "churn").mkdir(parents=True, exist_ok=True)
        with p.timed("cli.artifacts"):
            protocol.write_clustermap_csv(state.cluster_map, out / "churn" / "clustermap.csv")
            protocol.write_trace_csv(state.trace, out / "churn" / "trace.csv")
        p.counts["trace_csv_bytes"] += (out / "churn" / "trace.csv").stat().st_size
        count_network(p, plan, graph, state)
        if chk is not None:
            checks.check_revoked(chk, state, victim_gid)
            checks.check_vault_covers_rings(chk, "after churn", state)
            for v, ring in left.items():
                checks.check_leaver(chk, state, v, ring)
        self._promoted_joins(p, chk)

    def _promoted_joins(self, p, chk) -> None:
        # the fixed network is rebuilt every pass, since a failed join leaves
        # its node deployed; its build is neither timed, traced nor counted
        n = PROMOTED_NET_N
        with p.untimed():
            plan, graph, state, held = self._network(
                p, n, (PROMOTED_NET_SEED,) * 3,
                lambda plan: {v for v in range(n) if v % 7 == 3})
        planned = len(plan.groups)
        dominators = {g.dominator for g in plan.groups}
        pairs, used = [], set()
        for gid in sorted(state.group_dominator):
            if gid < planned:
                continue
            for v in sorted(graph.neighbors(state.group_dominator[gid])):
                if v in held and v not in dominators and v not in used:
                    pairs.append((v, gid))
                    used.add(v)
                    break
        pairs = pairs[:PROMOTED_JOINS]
        if len(pairs) < PROMOTED_JOINS:
            raise RuntimeError("the fixed network has too few promoted groups")
        for v, gid in pairs:
            with p.op("protocol.join_promoted"):
                try:
                    state.join_node(v, gid)
                except IndexError:
                    p.failed += 1


WORKLOADS = {
    "sweep-paper": SweepPaper,
    "uniform-flood": UniformFlood,
    "secure-churn": SecureChurn,
}
