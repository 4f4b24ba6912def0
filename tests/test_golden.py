"""Golden digests of every file `secluster form`, `sweep`, `generate` and
`analyze` write.

The `form` digests and the `sweep.csv` digest were taken from the program
as it was before floods were stored as single trace records.  The figure,
`generate` and `analyze` digests were taken from the program as it was
before the base-station vault kept a single key index and the key rings
became the only custody record.  The envelope digests, which cover what
`trace.csv` leaves out (payloads, group ids, flood reach), were taken
from the program as it was before every membership change went through
one enrol/withdraw pair, one rekey step and one key-delivery step.  The
adversary digests, which cover the replay's decryptions and forged joins,
were taken from the program as it was before envelopes became named
tuples sealed in one step.  The churned clustermap digests are a new pin,
taken once the dominator set and the mediators were read from the live
dominator record (before, a churned clustermap kept the mediators of
formation time).  A change meant to keep every output
byte-identical must keep them; a change that alters an output on purpose
updates them and says why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from secluster import protocol
from secluster.cli import main
from secluster.protocol import Rank
from secluster.trace import FloodEvent

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
# the closed-form figures; `sweep --seeds 3 --seed 5` and `analyze` at its
# defaults write the same fig9, fig10 and fig12 files
FIGURE_DIGESTS = {
    "fig9.csv": "846fa7104e23b7c7a1975a82609c64b682f5d875d18bd606e9887ace0e715d8c",
    "fig9.svg": "d850c9c0e979aec73db3162ce8cada7bec5ae6da150b685f2dfa8cfc1ea8eb7c",
    "fig10.csv": "5085a043a123e26f24a185dc5e9c4e2dbc234caaad7ba291d96f36b48ddf78b2",
    "fig10.svg": "4fa2133591737f1918e2bc8cd97c309fbfeae63174636eb6159ed79f65ee5bf9",
    "fig12.csv": "437352716c193f1ec3161e557710713108a3761fcc4efdc3d631ebc59ddebb72",
    "fig12.svg": "06f465c06f5b33cfa9805af7952ca3b7eb6a7a177b24bd7f57d3c947f58d3ec8",
}
SWEEP_FIG11_SVG_DIGEST = "7f8557d1ee92a155250b1b0045399567239349dfd64b0387ed25778efedf54b0"
# every trace record of churned_form_network(placement)
ENVELOPE_DIGESTS = {
    "uniform": "bc295eb2309d108197887a96e11c4c0d4123e98ba917463fecb9dffdec29ff8b",
    "clustered": "9923398b04a5323ff9b99f3b8576dec8bbf6bf4c9321e3979dba0b96c40d20f1",
}
# simulate_adversary on churned_form_network(placement), three profiles
ADVERSARY_DIGESTS = {
    "uniform": "47a2010ebe6d0b30ed2345495d8de02e24d0bce5a8cc6f0385df52aaa3c9ecac",
    "clustered": "f205d072f20c1861a8968664d34f081fbab3d4b0050e998ed33e2167f7831d0c",
}
# write_clustermap_csv of churned_form_network(placement)
CHURNED_CLUSTERMAP_DIGESTS = {
    "uniform": "0aa4e9bcf64ee26e3e69757b0c2212afa0effab95a24f4294fed232b2824c242",
    "clustered": "ca1b95eb5ee23c4ba321522993df7eaf1f162cb2ea8c889eb06c0a0b01a975f7",
}
GENERATE_DIGESTS = {  # generate --n 500 --seed 3
    "nodes.csv": "13e610c204775c1771d58c3f7370a83aa2234f9e39b9ad8785586b0c99b91224",
    "edges.csv": "2e02cad07c2299aed0ed33e72398e0b660051cbe46d8b5ff882f445b1e4b7dc3",
}


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


def digests_of(out):
    return {p.name: sha256(p) for p in out.iterdir()}


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    run("sweep", "--seeds", "3", "--seed", "5", "--out-dir", str(out))
    return out


def test_sweep_writes_the_golden_sweep_csv(sweep_out):
    assert sha256(sweep_out / "sweep.csv") == SWEEP_CSV_DIGEST


def test_sweep_writes_the_golden_figures(sweep_out):
    assert digests_of(sweep_out) == {**FIGURE_DIGESTS, "sweep.csv": SWEEP_CSV_DIGEST,
                                     "fig11.svg": SWEEP_FIG11_SVG_DIGEST}


def test_generate_writes_the_golden_graph(tmp_path):
    run("generate", "--n", "500", "--seed", "3", "--out-dir", str(tmp_path))
    assert digests_of(tmp_path) == GENERATE_DIGESTS


def test_analyze_writes_the_golden_figures(tmp_path):
    run("analyze", "--out-dir", str(tmp_path))
    assert digests_of(tmp_path) == FIGURE_DIGESTS


def test_analyze_ignores_a_seed_in_its_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    run("analyze", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert digests_of(tmp_path / "out") == FIGURE_DIGESTS


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


def envelope_digest(trace):
    h = hashlib.sha256()
    for rec in trace.records:
        env = rec.envelope
        if type(rec) is FloodEvent:
            on_air = ("reach", rec.reach, rec.nbrs[env.sender])
        else:
            on_air = ("transmitter", rec.transmitter, rec.receivers)
        h.update(repr((rec.round, env.kind.value, env.sender, *on_air, rec.group_id,
                       env.key_fingerprint, len(env.payload))).encode())
        h.update(env.payload)
    return h.hexdigest()


@pytest.mark.parametrize("placement", list(ENVELOPE_DIGESTS))
def test_a_churned_network_airs_the_golden_envelopes(churned_form_network, placement):
    state = churned_form_network(placement)
    assert envelope_digest(state.trace) == ENVELOPE_DIGESTS[placement]


def adversary_profiles(state):
    """Outsider; the lowest-numbered grouped ordinary sensor; and the first
    adopter still in a group, which holds a foreign individual key."""
    cm = state.cluster_map
    spy = min(v for v in cm.dominator_of if cm.ranks[v] is Rank.OS)
    adopter = next(e.adopter for e in cm.orphan_events
                   if e.resolution == "ADOPTED" and e.adopter in cm.dominator_of)
    return [protocol.AdversaryProfile.outsider(),
            protocol.AdversaryProfile.compromised_os(state, spy),
            protocol.AdversaryProfile.compromised_gd(state, state.group_of_node(adopter))]


def adversary_digest(state):
    h = hashlib.sha256()
    for i, profile in enumerate(adversary_profiles(state)):
        report = state.simulate_adversary(profile, 2000, seed=i)
        h.update(repr((profile.mode, report.decrypted,
                       [(a.claimed_id, a.target_group, a.admitted)
                        for a in report.attempts])).encode())
    return h.hexdigest()


@pytest.mark.parametrize("placement", list(ADVERSARY_DIGESTS))
def test_a_churned_network_gives_the_golden_adversary_reports(churned_form_network,
                                                               placement):
    state = churned_form_network(placement)
    assert adversary_digest(state) == ADVERSARY_DIGESTS[placement]


@pytest.mark.parametrize("placement", list(CHURNED_CLUSTERMAP_DIGESTS))
def test_a_churned_network_writes_the_golden_clustermap(churned_form_network,
                                                         placement, tmp_path):
    state = churned_form_network(placement)
    protocol.write_clustermap_csv(state.cluster_map, tmp_path / "clustermap.csv")
    assert sha256(tmp_path / "clustermap.csv") == CHURNED_CLUSTERMAP_DIGESTS[placement]
