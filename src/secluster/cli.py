"""Command-line entry point.

Subcommands:

  generate   drop sensors on the field and export the proximity graph
  form       pre-distribute keys, run secure cluster formation, export maps
  sweep      full experiment grid: dominator-count comparison plus the
             key-count, storage, and connectivity datasets and figures
  analyze    the closed-form subset of sweep (no simulation)

Every command takes --seed and --out-dir and is reproducible: the same
invocation writes byte-identical CSVs (and SVGs, which embed no
timestamps).  An optional --config JSON file supplies defaults;
command-line flags always win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, keying, protocol, svgplot, udg

DEFAULTS = {
    "generate": {
        "n": 100, "width": 500.0, "height": 500.0, "avg_degree": 6.0,
        "radius": None, "seed": 0, "out_dir": "out",
    },
    "form": {
        "n": 100, "eta": 9, "key_bits": 128, "placement": "clustered",
        "rho": None, "rho_fraction": 0.25, "width": 500.0, "height": 500.0,
        "avg_degree": 6.0, "radius": None, "seed": 0, "out_dir": "out",
    },
    "sweep": {
        "n_range6": "20:200:20", "n_range12": "40:200:20", "seeds": 30,
        "eta": 9, "placement": "clustered", "rho": None,
        "key_bits": 128, "width": 500.0, "height": 500.0, "workers": 1,
        "eta_values": "0,3,5,9,12,15", "key_bits_list": "64,128,256",
        "curve_n": "10:2000:10", "p_c": "0.9,0.99,0.999,0.9999",
        "seed": 0, "out_dir": "out",
    },
    "analyze": {
        "n_range": "20:200:20", "eta": 9, "eta_values": "0,3,5,9,12,15",
        "key_bits": 128, "key_bits_list": "64,128,256",
        "curve_n": "10:2000:10", "p_c": "0.9,0.99,0.999,0.9999",
        "seed": 0, "out_dir": "out",
    },
}


def _parse_range(text: str, flag: str, parser: argparse.ArgumentParser) -> list[int]:
    try:
        parts = [int(x) for x in text.split(":")]
        start, stop, step = parts
    except ValueError:
        parser.error(f"{flag} must look like start:stop:step, got {text!r}")
    if step <= 0 or stop < start:
        parser.error(f"{flag} must have step > 0 and stop >= start")
    return list(range(start, stop + 1, step))


def _parse_list(text: str, flag: str, parser: argparse.ArgumentParser,
                cast=float) -> list:
    try:
        return [cast(x) for x in text.split(",") if x != ""]
    except ValueError:
        parser.error(f"{flag} must be a comma-separated list, got {text!r}")


def _resolve(args: argparse.Namespace, command: str,
             parser: argparse.ArgumentParser) -> dict:
    """Merge flag values over config-file values over built-in defaults."""
    merged = dict(DEFAULTS[command])
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--config: cannot read {args.config}: {exc}")
        for key, value in loaded.items():
            if key in merged:
                merged[key] = value
    for key in merged:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _radius_from(cfg: dict, parser: argparse.ArgumentParser) -> float:
    if cfg.get("radius") is not None:
        if cfg["radius"] <= 0:
            parser.error("--radius must be > 0")
        return cfg["radius"]
    return udg.radius_for_expected_degree(
        cfg["n"], cfg["width"], cfg["height"], cfg["avg_degree"])


def _check_positive(parser, cfg, *keys):
    for key in keys:
        if cfg[key] is None:
            continue
        if cfg[key] <= 0:
            parser.error(f"--{key.replace('_', '-')} must be > 0")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args, parser) -> int:
    cfg = _resolve(args, "generate", parser)
    if cfg["n"] < 1:
        parser.error("--n must be >= 1")
    _check_positive(parser, cfg, "width", "height", "avg_degree")
    radius = _radius_from(cfg, parser)
    g = udg.generate_uniform(cfg["n"], cfg["width"], cfg["height"], radius,
                             cfg["seed"])
    out = _out_dir(cfg)
    udg.write_graph_csv(g, out / "nodes.csv", out / "edges.csv")
    print(f"generate: n={g.n} edges={g.edge_count()} radius={radius:.3f} "
          f"avg_degree={g.average_degree():.3f} connected={udg.is_connected(g)}")
    print(f"wrote {out / 'nodes.csv'} and {out / 'edges.csv'}")
    return 0


def _placement_from(cfg: dict, radius: float,
                    parser: argparse.ArgumentParser) -> protocol.Placement:
    if cfg["placement"] == "uniform":
        return protocol.Placement.uniform()
    if cfg["placement"] != "clustered":
        parser.error("--placement must be uniform or clustered")
    if cfg.get("rho") is not None:
        if cfg["rho"] <= 0:
            parser.error("--rho must be > 0")
        return protocol.Placement.clustered(cfg["rho"])
    if cfg.get("rho_fraction") is not None:
        if cfg["rho_fraction"] <= 0:
            parser.error("--rho-fraction must be > 0")
        return protocol.Placement.clustered(radius * cfg["rho_fraction"])
    return protocol.Placement.clustered()


def cmd_form(args, parser) -> int:
    cfg = _resolve(args, "form", parser)
    if cfg["n"] < 1:
        parser.error("--n must be >= 1")
    if cfg["eta"] < 0:
        parser.error("--eta must be >= 0")
    if cfg["key_bits"] not in keying.SUPPORTED_KEY_BITS:
        parser.error(f"--key-bits must be one of {keying.SUPPORTED_KEY_BITS}")
    _check_positive(parser, cfg, "width", "height", "avg_degree")
    radius = _radius_from(cfg, parser)
    placement = _placement_from(cfg, radius, parser)

    plan = keying.build_plan(cfg["n"], cfg["eta"], cfg["key_bits"],
                             analysis.derive_seed("plan", cfg["seed"]))
    if placement.mode is protocol.PlacementMode.UNIFORM:
        g = udg.generate_uniform(cfg["n"], cfg["width"], cfg["height"], radius,
                                 analysis.derive_seed("graph", cfg["seed"]))
    else:
        g = protocol.deploy_graph(plan, cfg["width"], cfg["height"], radius,
                                  placement, analysis.derive_seed("graph", cfg["seed"]))
    state = protocol.form_network(g, plan, placement,
                                  analysis.derive_seed("form", cfg["seed"]))
    cm = state.cluster_map
    report = analysis.formation_validity(state)

    out = _out_dir(cfg)
    keying.write_plan_csv(plan, out / "plan.csv")
    protocol.write_clustermap_csv(cm, out / "clustermap.csv")
    protocol.write_trace_csv(state.trace, out / "trace.csv")

    by_resolution = {"ADOPTED": 0, "PROMOTED": 0, "UNREACHABLE": 0}
    for ev in cm.orphan_events:
        by_resolution[ev.resolution] += 1
    print(f"form: n={cfg['n']} eta={cfg['eta']} placement={placement.describe()} "
          f"radius={radius:.3f}")
    print(f"dominators={len(cm.dominator_set())} "
          f"wcds_valid={report.is_wcds} "
          f"orphans_adopted={by_resolution['ADOPTED']} "
          f"orphans_promoted={by_resolution['PROMOTED']} "
          f"orphans_unreachable={by_resolution['UNREACHABLE']} "
          f"mediators={len(cm.mediators)}")
    print(f"wrote {out / 'plan.csv'}, {out / 'clustermap.csv'}, {out / 'trace.csv'}")
    return 0


def _fig9_fig10(cfg, parser, out: Path) -> None:
    n_values = _parse_range(cfg.get("n_range", cfg.get("n_range6")),
                            "--n-range", parser)
    eta_values = _parse_list(cfg["eta_values"], "--eta-values", parser, int)
    bits_list = _parse_list(cfg["key_bits_list"], "--key-bits-list", parser, int)
    eta = cfg["eta"]

    key_rows = analysis.storage_curves(n_values, [eta], cfg["key_bits"])
    analysis.write_storage_csv(key_rows, out / "fig9.csv")
    svgplot.line_chart(
        [svgplot.Series.of(f"eta={eta}", [r.n for r in key_rows],
                           [r.distinct_keys for r in key_rows])],
        "Distinct keys required vs network size",
        "number of sensors", "distinct keys", out / "fig9.svg")

    storage_rows = []
    for bits in bits_list:
        storage_rows.extend(analysis.storage_curves([max(n_values)],
                                                    eta_values, bits))
    analysis.write_storage_csv(storage_rows, out / "fig10.csv")
    series = []
    for bits in bits_list:
        rows = [r for r in storage_rows if r.key_bits == bits]
        series.append(svgplot.Series.of(f"k={bits} bits",
                                        [r.eta for r in rows],
                                        [r.gd_storage_bits for r in rows]))
    svgplot.line_chart(series, "Dominator key storage vs group size",
                       "ordinary sensors per group", "storage (bits)",
                       out / "fig10.svg")


def _fig12(cfg, parser, out: Path) -> None:
    curve_n = _parse_range(cfg["curve_n"], "--curve-n", parser)
    p_c_values = _parse_list(cfg["p_c"], "--p-c", parser, float)
    for p_c in p_c_values:
        if not 0.0 < p_c < 1.0:
            parser.error("--p-c values must be in (0, 1)")
    rows = analysis.connectivity_curves(curve_n, p_c_values)
    analysis.write_connectivity_csv(rows, out / "fig12.csv")
    series = []
    for p_c in p_c_values:
        sel = [r for r in rows if r.p_c == p_c]
        series.append(svgplot.Series.of(f"Pc={p_c:g}",
                                        [r.n for r in sel],
                                        [r.d for r in sel]))
    svgplot.line_chart(series, "Expected dominator degree for connectivity",
                       "number of clusters", "expected degree",
                       out / "fig12.svg")


def cmd_sweep(args, parser) -> int:
    cfg = _resolve(args, "sweep", parser)
    if cfg["seeds"] < 1:
        parser.error("--seeds must be >= 1")
    if cfg["eta"] < 0:
        parser.error("--eta must be >= 0")
    if cfg["workers"] < 1:
        parser.error("--workers must be >= 1")
    out = _out_dir(cfg)

    panels = []
    all_rows = []
    # sweep has no --rho-fraction flag: rho is either explicit meters or one
    # transmission range per cell
    placement = _placement_from(cfg, 0.0, parser)
    for avg_degree, range_key in ((6.0, "n_range6"), (12.0, "n_range12")):
        n_values = _parse_range(cfg[range_key],
                                f"--{range_key.replace('_', '-')}", parser)
        rows = analysis.sweep_domset_sizes(
            n_values, avg_degree, cfg["eta"], placement, cfg["seeds"],
            width=cfg["width"], height=cfg["height"], key_bits=cfg["key_bits"],
            base_seed=cfg["seed"], workers=cfg["workers"])
        all_rows.extend(rows)

        means: dict[str, list[tuple[float, float]]] = {"ours": [], "greedy I": [],
                                                       "greedy II": []}
        for n in n_values:
            cell = [r for r in rows if r.n == n]
            means["ours"].append((n, sum(r.dominators_ours for r in cell) / len(cell)))
            means["greedy I"].append((n, sum(r.dominators_greedy_I for r in cell) / len(cell)))
            means["greedy II"].append((n, sum(r.dominators_greedy_II for r in cell) / len(cell)))
        panels.append(svgplot.Panel(
            f"Dominating-set size, avg degree {avg_degree:g}",
            "number of sensors", "dominators",
            tuple(svgplot.Series(label, tuple(pts))
                  for label, pts in means.items()),
        ))

    analysis.write_experiment_csv(all_rows, out / "sweep.csv")
    svgplot.write_chart(panels, out / "fig11.svg")
    _fig9_fig10(cfg, parser, out)
    _fig12(cfg, parser, out)
    print(f"sweep: {len(all_rows)} experiment rows")
    print(f"wrote sweep.csv, fig9/fig10/fig12 CSVs and fig9-fig12 SVGs under {out}")
    return 0


def cmd_analyze(args, parser) -> int:
    cfg = _resolve(args, "analyze", parser)
    if cfg["eta"] < 0:
        parser.error("--eta must be >= 0")
    out = _out_dir(cfg)
    _fig9_fig10(cfg, parser, out)
    _fig12(cfg, parser, out)
    print(f"analyze: wrote fig9.csv, fig10.csv, fig12.csv and SVGs under {out}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="base RNG seed (default: 0)")
    p.add_argument("--out-dir", dest="out_dir",
                   help="output directory (default: out)")
    p.add_argument("--config", help="JSON file with defaults; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secluster",
        description="Secure cluster formation simulator for distributed "
                    "sensor networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a unit-disk graph",
                       description="Place sensors uniformly at random and "
                                   "export nodes.csv/edges.csv. Defaults: "
                                   "n=100, 500x500 field, avg degree 6.")
    g.add_argument("--n", type=int, help="number of sensors (default: 100)")
    g.add_argument("--width", type=float, help="field width in m (default: 500)")
    g.add_argument("--height", type=float, help="field height in m (default: 500)")
    g.add_argument("--radius", type=float,
                   help="transmission radius in m (default: derived from --avg-degree)")
    g.add_argument("--avg-degree", dest="avg_degree", type=float,
                   help="target average degree used to derive the radius (default: 6)")
    _add_common(g)

    f = sub.add_parser("form", help="run secure cluster formation",
                       description="Build a deployment plan, drop it on the "
                                   "field, run formation, and export "
                                   "plan.csv/clustermap.csv/trace.csv. "
                                   "Defaults: n=100, eta=9, clustered "
                                   "placement with rho = radius/4.")
    f.add_argument("--n", type=int, help="number of sensors (default: 100)")
    f.add_argument("--eta", type=int,
                   help="ordinary sensors per group (default: 9)")
    f.add_argument("--key-bits", dest="key_bits", type=int,
                   help="symmetric key length (default: 128)")
    f.add_argument("--placement", choices=["uniform", "clustered"],
                   help="deployment model (default: clustered)")
    f.add_argument("--rho", type=float,
                   help="clustered landing dispersion in m (default: radius/4)")
    f.add_argument("--rho-fraction", dest="rho_fraction", type=float,
                   help="landing dispersion as a fraction of the radius "
                        "(default: 0.25)")
    f.add_argument("--width", type=float, help="field width in m (default: 500)")
    f.add_argument("--height", type=float, help="field height in m (default: 500)")
    f.add_argument("--radius", type=float,
                   help="transmission radius in m (default: derived)")
    f.add_argument("--avg-degree", dest="avg_degree", type=float,
                   help="target average degree (default: 6)")
    _add_common(f)

    s = sub.add_parser("sweep", help="run the full experiment grid",
                       description="Dominator-count sweep against greedy "
                                   "baselines (avg degree 6 and 12 panels) "
                                   "plus key-count, storage, and "
                                   "connectivity datasets and SVG figures. "
                                   "Defaults: n=20..200 step 20 (degree 6), "
                                   "40..200 (degree 12), 30 seeds, eta=9, "
                                   "clustered placement with rho = radius.")
    s.add_argument("--n-range6", dest="n_range6",
                   help="degree-6 panel n values as start:stop:step "
                        "(default: 20:200:20)")
    s.add_argument("--n-range12", dest="n_range12",
                   help="degree-12 panel n values (default: 40:200:20)")
    s.add_argument("--seeds", type=int, help="seeds per n (default: 30)")
    s.add_argument("--eta", type=int, help="ordinary sensors per group (default: 9)")
    s.add_argument("--placement", choices=["uniform", "clustered"],
                   help="deployment model (default: clustered)")
    s.add_argument("--rho", type=float,
                   help="clustered dispersion in m (default: one radius)")
    s.add_argument("--key-bits", dest="key_bits", type=int,
                   help="symmetric key length (default: 128)")
    s.add_argument("--width", type=float, help="field width in m (default: 500)")
    s.add_argument("--height", type=float, help="field height in m (default: 500)")
    s.add_argument("--workers", type=int,
                   help="parallel worker processes (default: 1)")
    s.add_argument("--eta-values", dest="eta_values",
                   help="eta list for the storage figure (default: 0,3,5,9,12,15)")
    s.add_argument("--key-bits-list", dest="key_bits_list",
                   help="key lengths for the storage figure (default: 64,128,256)")
    s.add_argument("--curve-n", dest="curve_n",
                   help="n values for the connectivity curves (default: 10:2000:10)")
    s.add_argument("--p-c", dest="p_c",
                   help="connectivity targets (default: 0.9,0.99,0.999,0.9999)")
    _add_common(s)

    a = sub.add_parser("analyze", help="closed-form datasets only",
                       description="Key-count, storage, and connectivity "
                                   "datasets and figures without running "
                                   "any simulation.")
    a.add_argument("--n-range", dest="n_range",
                   help="n values for the key-count curve (default: 20:200:20)")
    a.add_argument("--eta", type=int, help="eta for the key-count curve (default: 9)")
    a.add_argument("--eta-values", dest="eta_values",
                   help="eta list for the storage figure (default: 0,3,5,9,12,15)")
    a.add_argument("--key-bits", dest="key_bits", type=int,
                   help="key length for the key-count curve (default: 128)")
    a.add_argument("--key-bits-list", dest="key_bits_list",
                   help="key lengths for the storage figure (default: 64,128,256)")
    a.add_argument("--curve-n", dest="curve_n",
                   help="n values for the connectivity curves (default: 10:2000:10)")
    a.add_argument("--p-c", dest="p_c",
                   help="connectivity targets (default: 0.9,0.99,0.999,0.9999)")
    _add_common(a)
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "form": cmd_form,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
