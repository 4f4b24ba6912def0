import json
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from secluster import svgplot
from secluster.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_generate_writes_deterministic_csvs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("generate", "--n", "100", "--avg-degree", "6",
                   "--seed", "42", "--out-dir", str(out1)) == 0
    assert run_cli("generate", "--n", "100", "--avg-degree", "6",
                   "--seed", "42", "--out-dir", str(out2)) == 0
    assert (out1 / "nodes.csv").read_bytes() == (out2 / "nodes.csv").read_bytes()
    assert (out1 / "edges.csv").read_bytes() == (out2 / "edges.csv").read_bytes()


def test_generate_rejects_zero_n(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--n", "0", "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_generate_degree_twelve_band(tmp_path, capsys):
    assert run_cli("generate", "--n", "100", "--avg-degree", "12",
                   "--seed", "42", "--out-dir", str(tmp_path)) == 0
    line = capsys.readouterr().out.splitlines()[0]
    degree = float(line.split("avg_degree=")[1].split()[0])
    # pilot band for a single seed at target 12 (observed 8.6..12.0)
    assert 8.0 <= degree <= 13.0


def test_form_ideal_clustered(tmp_path, capsys):
    assert run_cli("form", "--n", "100", "--eta", "9", "--seed", "7",
                   "--out-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "dominators=10" in out
    assert "orphans_unreachable=0" in out
    for name in ("plan.csv", "clustermap.csv", "trace.csv"):
        assert (tmp_path / name).exists()
    cm_lines = (tmp_path / "clustermap.csv").read_text().splitlines()
    assert len(cm_lines) == 101


def test_form_uniform_reports_orphans(tmp_path, capsys):
    assert run_cli("form", "--n", "60", "--eta", "9", "--placement", "uniform",
                   "--avg-degree", "6", "--seed", "3",
                   "--out-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "wcds_valid=" in out
    rows = [r.split(",") for r in
            (tmp_path / "clustermap.csv").read_text().splitlines()[1:]]
    for node_id, rank, dominator, is_mediator, resolution in rows:
        if resolution == "UNREACHABLE":
            assert dominator == "-1"
        elif resolution == "PROMOTED":
            assert rank == "GDos" and dominator == node_id
        elif resolution.startswith("ADOPTED("):
            assert dominator == resolution[8:-1]
        else:
            assert resolution == ""


def test_sweep_is_byte_identical(tmp_path):
    args = ["sweep", "--n-range6", "20:60:20", "--n-range12", "40:60:20",
            "--seeds", "3", "--curve-n", "50:200:50", "--seed", "1"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(*args, "--out-dir", str(out1)) == 0
    assert run_cli(*args, "--out-dir", str(out2)) == 0
    for name in ("sweep.csv", "fig9.csv", "fig10.csv", "fig12.csv",
                 "fig9.svg", "fig10.svg", "fig11.svg", "fig12.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_sweep_accepts_a_config_shared_with_form(tmp_path):
    # rho_fraction is a form key; sweep has no such flag and must ignore it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho_fraction": 0.5}))
    args = ["sweep", "--n-range6", "20:40:20", "--n-range12", "40:40:20",
            "--seeds", "2", "--curve-n", "50:100:50"]
    plain, shared = tmp_path / "plain", tmp_path / "shared"
    assert run_cli(*args, "--out-dir", str(plain)) == 0
    assert run_cli(*args, "--config", str(cfg), "--out-dir", str(shared)) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in shared.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (shared / name).read_bytes(), name


def test_analyze_emits_connectivity_values(tmp_path):
    assert run_cli("analyze", "--curve-n", "100:100:1",
                   "--p-c", "0.999", "--out-dir", str(tmp_path)) == 0
    lines = (tmp_path / "fig12.csv").read_text().splitlines()
    assert lines[0] == "n,p_c,p,d,in_range"
    n, p_c, p, d, in_range = lines[1].split(",")
    assert n == "100"
    assert abs(float(d) - 11.39730100394669) < 1e-9
    assert abs(float(p) - 0.11512425256511808) < 1e-9
    assert in_range == "true"


def test_analyze_svg_has_no_timestamp(tmp_path):
    assert run_cli("analyze", "--curve-n", "10:100:10",
                   "--out-dir", str(tmp_path)) == 0
    svg = (tmp_path / "fig12.svg").read_text()
    assert svg.startswith("<svg")
    assert "date" not in svg.lower()
    assert "time" not in svg.lower()


@pytest.mark.parametrize("series", [(), (svgplot.Series("zero", ((0.0, 0.0), (0.0, 0.0))),)])
def test_a_chart_of_no_points_or_only_zeros_is_valid_svg(tmp_path, series):
    # a degenerate axis range is widened to one unit, not divided by
    svgplot.write_chart([svgplot.Panel("t", "x", "y", series)], tmp_path / "c.svg")
    root = ElementTree.parse(tmp_path / "c.svg").getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == len(series)


_bound = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(lo=_bound, hi=_bound)
def test_the_ticks_ascend_within_the_axis_range(lo, hi):
    assume(hi - lo >= 1e-6)
    ticks = svgplot._nice_ticks(lo, hi)
    assert ticks and all(a < b for a, b in zip(ticks, ticks[1:]))
    assert lo - 1e-9 <= ticks[0] and ticks[-1] <= hi + 1e-9


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 50, "seed": 9}))
    assert run_cli("generate", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "a")) == 0
    out = capsys.readouterr().out
    assert "n=50" in out
    assert run_cli("generate", "--config", str(cfg), "--n", "60",
                   "--out-dir", str(tmp_path / "b")) == 0
    out = capsys.readouterr().out
    assert "n=60" in out


def test_bad_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_unwritable_out_dir_fails_cleanly(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = run_cli("generate", "--n", "10", "--out-dir", str(blocker / "sub"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# -- every input is parsed and checked by argparse before any work ----------------

SMALL_SWEEP = ["sweep", "--n-range6", "20:40:20", "--n-range12", "40:40:20",
               "--seeds", "2", "--curve-n", "50:100:50"]


def read_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("flags", [
    ["--p-c", "1.5"],
    ["--eta-values", "x"],
    ["--n-range12", "5:1:1"],
    ["--width", "-5"],
    ["--key-bits", "100"],
    ["--n-range6", "1:10:1"],
    ["--seeds", "0"],
])
def test_bad_sweep_flag_exits_2_before_any_file(tmp_path, capsys, flags):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", *flags, "--out-dir", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flags[0]}:" in err and "Traceback" not in err
    assert not out.exists()


def test_radius_derivation_needs_two_sensors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--n", "1", "--out-dir", str(tmp_path / "a"))
    assert exc.value.code == 2
    assert "--radius" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    assert run_cli("generate", "--n", "1", "--radius", "10",
                   "--out-dir", str(tmp_path / "b")) == 0


def test_form_a_single_sensor(tmp_path, capsys):
    assert run_cli("form", "--n", "1", "--radius", "10",
                   "--out-dir", str(tmp_path)) == 0
    assert "dominators=1 " in capsys.readouterr().out
    assert (tmp_path / "trace.csv").read_text() == \
        "round,sender,kind,key_fingerprint,receivers\n"


def test_runtime_needs_only_the_standard_library(tmp_path):
    # numpy, scipy, networkx and hypothesis serve the tests only; a None
    # entry in sys.modules makes every import of them fail in the child
    form = ["form", "--n", "60", "--placement", "uniform", "--out-dir",
            str(tmp_path / "form")]
    sweep = ["sweep", "--n-range6", "20:40:20", "--n-range12", "40:40:20",
             "--seeds", "2", "--curve-n", "50:100:50", "--out-dir",
             str(tmp_path / "sweep")]
    code = ("import sys\n"
            "for m in ('numpy', 'scipy', 'networkx', 'hypothesis'):\n"
            "    sys.modules[m] = None\n"
            "from secluster.cli import main\n"
            f"sys.exit(main({form!r}) or main({sweep!r}))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_a_serial_run_never_imports_multiprocessing(tmp_path):
    # only `sweep --workers N` with N > 1 starts a process pool; importing
    # one costs every other command a fifth of its start-up
    sweep = ["sweep", "--n-range6", "20:20:20", "--n-range12", "40:40:20",
             "--seeds", "1", "--curve-n", "50:100:50", "--out-dir", str(tmp_path)]
    code = ("import sys\n"
            "import secluster.cli\n"
            "assert 'multiprocessing' not in sys.modules, 'on import'\n"
            f"assert secluster.cli.main({sweep!r}) == 0\n"
            "assert 'multiprocessing' not in sys.modules, 'after a serial sweep'\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_config_strings_parse_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "50", "avg_degree": "8"}))
    assert run_cli("form", "--config", str(cfg), "--out-dir", str(tmp_path / "a")) == 0
    assert run_cli("form", "--n", "50", "--avg-degree", "8",
                   "--out-dir", str(tmp_path / "b")) == 0
    assert read_files(tmp_path / "a") == read_files(tmp_path / "b")


def test_config_null_means_the_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta": None, "rho": None, "n": 40}))
    assert run_cli("form", "--config", str(cfg), "--out-dir", str(tmp_path / "a")) == 0
    assert run_cli("form", "--n", "40", "--out-dir", str(tmp_path / "b")) == 0
    assert read_files(tmp_path / "a") == read_files(tmp_path / "b")


def test_flags_win_over_config_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta": 4, "p_c": "0.5", "out_dir": str(tmp_path / "cfg")}))
    args = ["--curve-n", "50:100:50", "--eta", "6", "--p-c", "0.9"]
    assert run_cli("analyze", "--config", str(cfg), *args,
                   "--out-dir", str(tmp_path / "a")) == 0
    assert run_cli("analyze", *args, "--out-dir", str(tmp_path / "b")) == 0
    assert not (tmp_path / "cfg").exists()
    assert read_files(tmp_path / "a") == read_files(tmp_path / "b")


@pytest.mark.parametrize("content", [
    {"seeds": "x"},
    {"eta": -1},
    {"placement": "grid"},
    {"key_bits": 100},
    {"workers": 0},
    {"p_c": [0.9]},
    {"seed": True},
    {"out_dir": ["x"]},
    [1, 2],
])
def test_bad_config_value_exits_2_before_any_file(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*SMALL_SWEEP, "--config", str(cfg), "--out-dir", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err and "Traceback" not in err
    assert not out.exists()


def test_analyze_keeps_duplicate_list_entries_in_csv_but_draws_each_once(tmp_path):
    assert run_cli("analyze", "--key-bits-list", "64,64", "--eta-values", "0,3",
                   "--p-c", "0.9,0.9", "--curve-n", "50:100:50",
                   "--out-dir", str(tmp_path)) == 0
    fig10 = (tmp_path / "fig10.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:3] for row in fig10] == [["0", "64"], ["3", "64"]] * 2
    fig12 = (tmp_path / "fig12.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in fig12] == \
        [["50", "0.9"]] * 2 + [["100", "0.9"]] * 2
    for svg in ("fig10.svg", "fig12.svg"):
        assert (tmp_path / svg).read_text().count("<polyline") == 1, svg


def test_analyze_takes_any_positive_key_length(tmp_path):
    assert run_cli("analyze", "--key-bits", "512", "--key-bits-list", "64,1024",
                   "--curve-n", "50:100:50", "--out-dir", str(tmp_path)) == 0
    header, first = (tmp_path / "fig9.csv").read_text().splitlines()[:2]
    assert dict(zip(header.split(","), first.split(",")))["key_bits"] == "512"
    bits = {line.split(",")[2] for line in
            (tmp_path / "fig10.csv").read_text().splitlines()[1:]}
    assert bits == {"64", "1024"}


# -- the CLI surface: option strings as of the parser's last redesign, with the
#    default each option's help must show (None: no default to show)

COMMON = {"--out-dir": "out", "--config": None, "-h": None, "--help": None}
SEED = {"--seed": "0"}
FIELD = {"--width": "500.0", "--height": "500.0"}
SENSORS = {"--n": "100", "--radius": None, "--avg-degree": "6.0"}
FIGURES = {"--eta-values": "0,3,5,9,12,15", "--key-bits-list": "64,128,256",
           "--curve-n": "10:2000:10", "--p-c": "0.9,0.99,0.999,0.9999"}
SURFACE = {
    "generate": {**SENSORS, **FIELD, **SEED, **COMMON},
    "form": {**SENSORS, **FIELD, **SEED, **COMMON, "--eta": "9", "--key-bits": "128",
             "--placement": "clustered", "--rho": None, "--rho-fraction": "0.25"},
    "sweep": {**FIELD, **FIGURES, **SEED, **COMMON, "--n-range6": "20:200:20",
              "--n-range12": "40:200:20", "--seeds": "30", "--eta": "9",
              "--placement": "clustered", "--rho": None, "--key-bits": "128",
              "--workers": "1"},
    "analyze": {**FIGURES, **COMMON, "--n-range": "20:200:20", "--eta": "9",
                "--key-bits": "128"},
}


def help_blocks(text):
    """Option string -> its whitespace-normalised help entry."""
    blocks, current = {}, None
    for line in text.split("options:", 1)[1].splitlines():
        head = re.match(r"  (-\S.*?)(?:\s{2,}|$)", line)
        if head:
            current = re.findall(r"(?<!\S)(--?[a-z][\w-]*)", head.group(1))
            for opt in current:
                blocks[opt] = ""
        for opt in current or ():
            blocks[opt] = " ".join((blocks[opt] + " " + line).split())
    return blocks


@pytest.mark.parametrize("command", list(SURFACE))
def test_help_pins_the_options_and_shows_every_default(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    blocks = help_blocks(capsys.readouterr().out)
    assert set(blocks) == set(SURFACE[command])
    for opt, default in SURFACE[command].items():
        if default is not None:
            assert f"(default: {default})" in blocks[opt], (opt, blocks[opt])
