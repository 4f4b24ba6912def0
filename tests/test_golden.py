"""Golden digests of the files `secluster form` and `secluster sweep` write.

The digests were taken from the program as it was before floods were
stored as single trace records.  A change meant to keep every output
byte-identical must keep them; a change that alters an output on purpose
updates them and says why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from secluster.cli import main

FORM_DIGESTS = {
    ("uniform", 1): {
        "plan.csv": "407a09ff82c2110e2d88e6679a24ed2d421f1c207caeae328459de4a0780c877",
        "clustermap.csv": "9e00fa69c96d11c3e41176275b8c60ab0e576a6ad2877e20794c81598dee1667",
        "trace.csv": "c48d09d3144f0307aa702949c1f71ad593141557bcbb9f0cc52d360c2015b7ca",
    },
    ("uniform", 7): {
        "plan.csv": "c47b98f0c7a144360089cc04893c9de38685f4ed8c8fb3d5b3adc1b90c1db0bc",
        "clustermap.csv": "d6a28c8ed455f7090fe1e0bfd9bfa6927577e5a2d7177c89e18ffe942d9ef6d7",
        "trace.csv": "a074119dd85932d4e40cf413c504d2bfc7323c0099eba7cdfc84e3665b253765",
    },
    ("clustered", 1): {
        "plan.csv": "407a09ff82c2110e2d88e6679a24ed2d421f1c207caeae328459de4a0780c877",
        "clustermap.csv": "c2e2b5512cb292c4be7d4e06066d4e327410a7fde522246ca15d2340b52dbe05",
        "trace.csv": "2627ac9088034d753b471510146d5bc23d96a0ab49b373d7ae05012d762793a9",
    },
    ("clustered", 7): {
        "plan.csv": "c47b98f0c7a144360089cc04893c9de38685f4ed8c8fb3d5b3adc1b90c1db0bc",
        "clustermap.csv": "f6160d6e7d82ddb1d72823d17f0aaf62c5f58c2f781efc9b9c6381108f6c0c00",
        "trace.csv": "f0f81b092401abe33cdd1d682a78c86cb4d54eb247683063486191a1d5b404dd",
    },
}
SWEEP_CSV_DIGEST = "cfb01a386d6bd1ba6a4a3e3981cf439ec7fa5c7adb3d4550de100ef398a7f30d"


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(("placement", "seed"), list(FORM_DIGESTS))
def test_form_writes_the_golden_files(tmp_path, placement, seed):
    run("form", "--n", "300", "--placement", placement, "--seed", str(seed),
        "--out-dir", str(tmp_path))
    digests = FORM_DIGESTS[placement, seed]
    assert {name: sha256(tmp_path / name) for name in digests} == digests


def test_sweep_writes_the_golden_sweep_csv(tmp_path):
    run("sweep", "--seeds", "3", "--seed", "5", "--out-dir", str(tmp_path))
    assert sha256(tmp_path / "sweep.csv") == SWEEP_CSV_DIGEST


@pytest.mark.parametrize(("placement", "seed"), list(FORM_DIGESTS))
def test_form_writes_the_golden_files_from_a_config(tmp_path, placement, seed):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"n": 300, "placement": placement, "seed": seed,
                               "out_dir": str(out)}))
    run("form", "--config", str(cfg))
    digests = FORM_DIGESTS[placement, seed]
    assert {name: sha256(out / name) for name in digests} == digests


def test_sweep_writes_the_golden_sweep_csv_from_a_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": 3, "seed": 5}))
    run("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert sha256(tmp_path / "out" / "sweep.csv") == SWEEP_CSV_DIGEST
