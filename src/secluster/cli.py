"""Command-line entry point.

Subcommands:

  generate   drop sensors on the field and export the proximity graph
  form       pre-distribute keys, run secure cluster formation, export maps
  sweep      full experiment grid: dominator-count comparison plus the
             key-count, storage, and connectivity datasets and figures
  analyze    the closed-form subset of sweep (no simulation)

Every command takes --out-dir and is reproducible: the same invocation
writes byte-identical CSVs (and SVGs, which embed no timestamps).  Every
command but analyze, whose closed forms draw no random numbers, takes
--seed.  Each option is declared and checked once, in its
`add_argument` call.  An optional --config JSON object supplies option
values, parsed exactly like flags (`null` means the default, keys a
command lacks are ignored); flags win.  Bad input exits 2 before any work.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import analysis, keying, protocol, svgplot, udg

# Option types raise ArgumentTypeError, reported as "argument --flag: ..." (exit 2)


def _checked(cast, ok, rule: str):
    """Converter: cast the text and require ok(value); rule names the demand."""
    def convert(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return convert


def _int_at_least(low: int):
    return _checked(int, lambda v: v >= low, f">= {low}")


_positive = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_probability = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _n_range(low: int):
    def parse(text: str) -> list[int]:
        start, stop, step = (int(x) for x in text.split(":"))
        return list(range(start, stop + 1, step)) if step > 0 else []
    return _checked(parse, lambda v: v and v[0] >= low,
                    f"start:stop:step with step > 0 and {low} <= start <= stop")


def _comma_list(item):
    """Items are converted by item, whose own errors name the bad value."""
    return _checked(lambda text: [item(x) for x in text.split(",") if x != ""],
                    bool, "a non-empty comma-separated list")


def _radius(args, parser: argparse.ArgumentParser) -> float:
    if args.radius is not None:
        return args.radius
    if args.n < 2:
        parser.error("argument --n: must be >= 2 unless --radius is given")
    return udg.radius_for_expected_degree(args.n, args.width, args.height,
                                          args.avg_degree)


def _placement(args, rho: float | None = None) -> protocol.Placement:
    """--placement, with --rho overriding the command's own dispersion."""
    if args.placement == "uniform":
        return protocol.Placement.uniform()
    return protocol.Placement.clustered(rho if args.rho is None else args.rho)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args, parser) -> int:
    radius = _radius(args, parser)
    g = udg.generate_uniform(args.n, args.width, args.height, radius, args.seed)
    out = _out_dir(args)
    udg.write_graph_csv(g, out / "nodes.csv", out / "edges.csv")
    print(f"generate: n={g.n} edges={g.edge_count()} radius={radius:.3f} "
          f"avg_degree={g.average_degree():.3f} connected={udg.is_connected(g)}")
    print(f"wrote {out / 'nodes.csv'} and {out / 'edges.csv'}")
    return 0


def cmd_form(args, parser) -> int:
    radius = _radius(args, parser)
    placement = _placement(args, radius * args.rho_fraction)
    plan = keying.build_plan(args.n, args.eta, args.key_bits,
                             analysis.derive_seed("plan", args.seed))
    g = protocol.deploy_graph(plan, args.width, args.height, radius, placement,
                              analysis.derive_seed("graph", args.seed))
    state = protocol.form_network(g, plan, placement,
                                  analysis.derive_seed("form", args.seed))
    cm = state.cluster_map
    report = analysis.formation_validity(state)

    out = _out_dir(args)
    keying.write_plan_csv(plan, out / "plan.csv")
    protocol.write_clustermap_csv(cm, out / "clustermap.csv")
    protocol.write_trace_csv(state.trace, out / "trace.csv")

    by_resolution = {"ADOPTED": 0, "PROMOTED": 0, "UNREACHABLE": 0}
    for ev in cm.orphan_events:
        by_resolution[ev.resolution] += 1
    print(f"form: n={args.n} eta={args.eta} placement={placement.describe()} "
          f"radius={radius:.3f}")
    print(f"dominators={len(cm.dominator_set())} "
          f"wcds_valid={report.is_wcds} "
          f"orphans_adopted={by_resolution['ADOPTED']} "
          f"orphans_promoted={by_resolution['PROMOTED']} "
          f"orphans_unreachable={by_resolution['UNREACHABLE']} "
          f"mediators={len(cm.mediators())}")
    print(f"wrote {out / 'plan.csv'}, {out / 'clustermap.csv'}, {out / 'trace.csv'}")
    return 0


def _series(rows, by: str, label: str, x: str, y: str) -> list[svgplot.Series]:
    """One (x, y) series per distinct value of column `by`, in first-seen order.

    `label` is a format string given that value.
    """
    points: dict = {}
    for r in rows:
        points.setdefault(getattr(r, by), []).append((getattr(r, x), getattr(r, y)))
    return [svgplot.Series(label.format(k), tuple(pts)) for k, pts in points.items()]


def _closed_form_figures(args, n_values: list[int], out: Path) -> None:
    """fig9 (key count over n_values), fig10 (storage) and fig12 (connectivity)."""
    rows = analysis.storage_curves(n_values, [args.eta], args.key_bits)
    analysis.write_table(analysis.StorageRow, rows, out / "fig9.csv")
    svgplot.line_chart(_series(rows, "eta", "eta={}", "n", "distinct_keys"),
                       "Distinct keys required vs network size",
                       "number of sensors", "distinct keys", out / "fig9.svg")

    rows = [r for bits in args.key_bits_list
            for r in analysis.storage_curves([max(n_values)], args.eta_values, bits)]
    analysis.write_table(analysis.StorageRow, rows, out / "fig10.csv")
    svgplot.line_chart(_series(rows, "key_bits", "k={} bits", "eta", "gd_storage_bits"),
                       "Dominator key storage vs group size",
                       "ordinary sensors per group", "storage (bits)",
                       out / "fig10.svg")

    rows = analysis.connectivity_curves(args.curve_n, args.p_c)
    analysis.write_table(analysis.ConnectivityRow, rows, out / "fig12.csv")
    svgplot.line_chart(_series(rows, "p_c", "Pc={:g}", "n", "d"),
                       "Expected dominator degree for connectivity",
                       "number of clusters", "expected degree",
                       out / "fig12.svg")


def cmd_sweep(args, parser) -> int:
    out = _out_dir(args)
    panels = []
    all_rows = []
    placement = _placement(args)  # rho defaults to one radius per cell
    for avg_degree, n_values in ((6.0, args.n_range6), (12.0, args.n_range12)):
        rows = analysis.sweep_domset_sizes(
            n_values, avg_degree, args.eta, placement, args.seeds,
            width=args.width, height=args.height, key_bits=args.key_bits,
            base_seed=args.seed, workers=args.workers)
        all_rows.extend(rows)

        # fig11 plots the mean of each dominator-count column per n
        cells = [[r for r in rows if r.n == n] for n in n_values]
        series = []
        for label, column in (("ours", "dominators_ours"),
                              ("greedy I", "dominators_greedy_I"),
                              ("greedy II", "dominators_greedy_II")):
            means = [(n, sum(getattr(r, column) for r in cell) / len(cell))
                     for n, cell in zip(n_values, cells)]
            series.append(svgplot.Series(label, tuple(means)))
        panels.append(svgplot.Panel(
            f"Dominating-set size, avg degree {avg_degree:g}",
            "number of sensors", "dominators", tuple(series)))

    analysis.write_table(analysis.ExperimentRow, all_rows, out / "sweep.csv")
    svgplot.write_chart(panels, out / "fig11.svg")
    _closed_form_figures(args, args.n_range6, out)
    print(f"sweep: {len(all_rows)} experiment rows")
    print(f"wrote sweep.csv, fig9/fig10/fig12 CSVs and fig9-fig12 SVGs under {out}")
    return 0


def cmd_analyze(args, parser) -> int:
    out = _out_dir(args)
    _closed_form_figures(args, args.n_range, out)
    print(f"analyze: wrote fig9.csv, fig10.csv, fig12.csv and SVGs under {out}")
    return 0


# Each option shared between commands is declared by one helper


def _add_sensors(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int_at_least(1), default=100,
                   help="number of sensors (default: %(default)s)")
    p.add_argument("--radius", type=_positive,
                   help="transmission radius in m (default: derived from --avg-degree)")
    p.add_argument("--avg-degree", type=_positive, default=6.0,
                   help="target average degree that sets the radius (default: %(default)s)")


def _add_field(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=_positive, default=500.0,
                   help="field width in m (default: %(default)s)")
    p.add_argument("--height", type=_positive, default=500.0,
                   help="field height in m (default: %(default)s)")


def _add_group_keys(p: argparse.ArgumentParser, formulas_only: bool = False) -> None:
    # keys that are built must have a supported length; the storage
    # formulas take any positive one
    bits = ({"type": _int_at_least(1)} if formulas_only
            else {"type": int, "choices": keying.SUPPORTED_KEY_BITS})
    p.add_argument("--eta", type=_int_at_least(0), default=9,
                   help="ordinary sensors per group (default: %(default)s)")
    p.add_argument("--key-bits", default=128, **bits,
                   help="symmetric key length (default: %(default)s)")


def _add_placement(p: argparse.ArgumentParser, rho_default: str) -> None:
    p.add_argument("--placement", choices=["uniform", "clustered"],
                   default="clustered", help="deployment model (default: %(default)s)")
    p.add_argument("--rho", type=_positive,
                   help=f"clustered landing dispersion in m (default: {rho_default})")


def _add_figures(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta-values", type=_comma_list(_int_at_least(0)),
                   default="0,3,5,9,12,15",
                   help="eta list for the storage figure (default: %(default)s)")
    p.add_argument("--key-bits-list", type=_comma_list(_int_at_least(1)),
                   default="64,128,256",
                   help="key lengths for the storage figure (default: %(default)s)")
    p.add_argument("--curve-n", type=_n_range(2), default="10:2000:10",
                   help="n values for the connectivity curves (default: %(default)s)")
    p.add_argument("--p-c", type=_comma_list(_probability),
                   default="0.9,0.99,0.999,0.9999",
                   help="connectivity targets, each in (0, 1) (default: %(default)s)")


def _add_common(p: argparse.ArgumentParser, seeded: bool = True) -> None:
    if seeded:
        p.add_argument("--seed", type=int, default=0,
                       help="base RNG seed (default: %(default)s)")
    p.add_argument("--out-dir", default="out",
                   help="output directory (default: %(default)s)")
    p.add_argument("--config",
                   help="JSON object of option values, e.g. {\"n\": 50}; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secluster",
        description="Secure cluster formation simulator for distributed "
                    "sensor networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a unit-disk graph",
                       description="Place sensors uniformly at random and "
                                   "export nodes.csv/edges.csv.")
    _add_sensors(g)
    _add_field(g)
    _add_common(g)

    f = sub.add_parser("form", help="run secure cluster formation",
                       description="Build a deployment plan, drop it on the field, "
                                   "run formation, and export "
                                   "plan.csv/clustermap.csv/trace.csv.")
    _add_sensors(f)
    _add_group_keys(f)
    _add_placement(f, "--rho-fraction of the radius")
    f.add_argument("--rho-fraction", type=_positive, default=0.25,
                   help="landing dispersion as a fraction of the radius "
                        "(default: %(default)s)")
    _add_field(f)
    _add_common(f)

    s = sub.add_parser("sweep", help="run the full experiment grid",
                       description="Dominator-count sweep against greedy baselines "
                                   "(avg degree 6 and 12 panels) plus key-count, "
                                   "storage, and connectivity datasets and SVG figures.")
    s.add_argument("--n-range6", type=_n_range(2), default="20:200:20",
                   help="degree-6 panel n values as start:stop:step "
                        "(default: %(default)s)")
    s.add_argument("--n-range12", type=_n_range(2), default="40:200:20",
                   help="degree-12 panel n values (default: %(default)s)")
    s.add_argument("--seeds", type=_int_at_least(1), default=30,
                   help="seeds per n (default: %(default)s)")
    _add_group_keys(s)
    _add_placement(s, "one radius")
    _add_field(s)
    s.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="parallel worker processes (default: %(default)s)")
    _add_figures(s)
    _add_common(s)

    a = sub.add_parser("analyze", help="closed-form datasets only",
                       description="Key-count, storage, and connectivity datasets "
                                   "and figures without running any simulation.")
    a.add_argument("--n-range", type=_n_range(1), default="20:200:20",
                   help="n values for the key-count curve (default: %(default)s)")
    _add_group_keys(a, formulas_only=True)
    _add_figures(a)
    _add_common(a, seeded=False)  # the closed forms draw no random numbers
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "form": cmd_form,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
}


def _config_flags(args, parser: argparse.ArgumentParser) -> list[str]:
    """The --config file's values as `--flag=value` arguments of args.command."""
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"argument --config: cannot read {args.config}: {exc}")
    if not isinstance(loaded, dict):
        parser.error(f"argument --config: {args.config} must hold a JSON object")
    known = vars(args).keys() - {"command", "config"}
    flags = []
    for key, value in loaded.items():
        if key not in known or value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            parser.error(f"argument --config: {key} must be a string or a number, "
                         f"got {json.dumps(value)}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        # parse again with the config's values before the user's own flags:
        # argparse keeps the last value given, so the flags win
        i = argv.index(args.command) + 1
        args = parser.parse_args([*argv[:i], *_config_flags(args, parser), *argv[i:]])
    try:
        return COMMANDS[args.command](args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
