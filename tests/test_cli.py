import json

import pytest

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
