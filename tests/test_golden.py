"""Golden digests of every file `secluster form`, `sweep`, `generate` and
`analyze` write.

The `sweep.csv` digest was taken from the program as it was before
floods were stored as single trace records.  The figure,
`generate` and `analyze` digests were taken from the program as it was
before the base-station vault kept a single key index and the key rings
became the only custody record.  The churned clustermap digests were
taken once the dominator set and the mediators were read from the live
dominator record (before, a churned clustermap kept the mediators of
formation time).

The `form` digests, the envelope digests, which cover what `trace.csv`
leaves out (payloads, group ids, flood reach), and the adversary digests,
which cover the replay's decryptions and forged joins, were re-pinned
when a key's id became the label it was derived from (`individual:17`)
in place of a 16-hex SHA-256 fingerprint of its secret.  Each id was
swapped one-for-one and ids are only compared for equality, so every
decision stayed the same: each old `form` file equalled the new one
once every fingerprint in it was replaced by its key's label, and the old
program, with each id swapped for its label, gave the new envelope and
adversary digests.  The ids are carried in `plan.csv`, `trace.csv` and
the key-delivery payloads, and `plan.csv` now holds no seed-dependent
field, so the four `form` runs share one `plan.csv` digest.  Before that, the `form` digests were taken
once `form` built its network through the sweep's one realisation path;
the envelope digests before every membership change went through one
enrol/withdraw pair, one rekey step and one key-delivery step; and the
adversary digests once a forged join stopped drawing a sealing key or
random bytes from the replay's generator, so that every profile makes
the same attempts under one seed.  Payloads are sealed by the tests'
reference cipher (`oracle.seal`), which seals as the library did when it
held the cipher.  A change meant to keep every output byte-identical
must keep them; a change that alters an output on purpose updates them
and says why.
"""

import contextlib
import csv
import hashlib
import io
import json

import pytest

from oracle import seal
from secluster import protocol
from secluster.cli import main
from secluster.trace import FloodEvent

FORM_DIGESTS = {
    ("uniform", 1): {
        "plan.csv": "331baec38ca8a065639f9ba13bb15466cde48f7dca65f9ca43d453a8cfcdea76",
        "clustermap.csv": "262963a8fdcb9d98d54de800836c4066ed8bd712a593c915306a48866d57786c",
        "trace.csv": "a83f6233c8abe8c09837faca7b4180d34eaff65ca82575d84eac5e0b7f5e5aae",
    },
    ("uniform", 7): {
        "plan.csv": "331baec38ca8a065639f9ba13bb15466cde48f7dca65f9ca43d453a8cfcdea76",
        "clustermap.csv": "8e05e5c5bdbc75d7eeee38260ad8ef0f1fcbd5a7916e28d79bb547cbf77befc6",
        "trace.csv": "56789dd66276b39dbfa97b11fbb30ac8fd154c0e2286d17b34cb014b40963184",
    },
    ("clustered", 1): {
        "plan.csv": "331baec38ca8a065639f9ba13bb15466cde48f7dca65f9ca43d453a8cfcdea76",
        "clustermap.csv": "e27358b5d5d873f2df1bb57b20024edf11e312a1f477c3b00be0220d04cde750",
        "trace.csv": "bbfc2b4023ec0265bc3b9b0a8bb1eb4a4bb2ecbe5233b9ebcc5566fb02d714a8",
    },
    ("clustered", 7): {
        "plan.csv": "331baec38ca8a065639f9ba13bb15466cde48f7dca65f9ca43d453a8cfcdea76",
        "clustermap.csv": "dcd48bc8cd74e3b1c1170f8c8c670e9a7e4bb02151daef235d0dcb285d32fc4e",
        "trace.csv": "69ea0e959e5c59a4ccb14dc48d959320208635e9797b95f083ca566174ed48d2",
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
    "uniform": "be72046172c11f073a92cd08140281d7b0fd1043658497a5f8f0628d20ab1728",
    "clustered": "5e487a2b77b3e069205da5764ed148c3a7bdff64d3176e027e47d4f914044dc8",
}
# simulate_adversary on churned_form_network(placement), three profiles
ADVERSARY_DIGESTS = {
    "uniform": "58f29fc5c9ec5b989c587fbf8b7c915082bfb0ca029a74fc7f8b0c0cfda3ced5",
    "clustered": "bd7d2dd8c4473d398fa06ba8a3779387c30e7e35d6f5a1feb1396b99d4b462d9",
}
# write_clustermap_csv of churned_form_network(placement)
CHURNED_CLUSTERMAP_DIGESTS = {
    "uniform": "5daad717a607b13533e7d8ed06566837e5d5bb7de4c739cc0529f632bb8f8800",
    "clustered": "c7947701dc38e5d343fef2ebd5140e26f818b38e9ca4358d1e10c06a4681fb93",
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


@pytest.mark.parametrize(("avg_degree", "n", "seed"), [(6, 40, 5), (12, 100, 6),
                                                     (6, 200, 7)])
def test_form_re_forms_a_sweep_row(sweep_out, tmp_path, avg_degree, n, seed):
    with open(sweep_out / "sweep.csv", newline="") as f:
        row, = [r for r in csv.DictReader(f)
                if (r["avg_degree_target"], r["n"], r["seed"]) == (str(avg_degree),
                                                                 str(n), str(seed))]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["form", "--n", str(n), "--seed", str(seed), "--avg-degree",
                     str(avg_degree), "--rho-fraction", "1",
                     "--out-dir", str(tmp_path)]) == 0
    assert (f"dominators={row['dominators_ours']} "
            f"wcds_valid={row['wcds_valid']} ") in printed.getvalue()


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


def envelope_digest(state):
    h = hashlib.sha256()
    for nonce, rec in enumerate(state.trace.records, 1):
        env, payload = rec.envelope, seal(rec.envelope, state.plan, nonce)
        if type(rec) is FloodEvent:
            on_air = ("reach", rec.reach, rec.nbrs[env.sender])
        else:
            on_air = ("transmitter", rec.transmitter, rec.receivers)
        h.update(repr((rec.round, env.kind.value, env.sender, *on_air, rec.group_id,
                       env.key_fingerprint, len(payload))).encode())
        h.update(payload)
    return h.hexdigest()


@pytest.mark.parametrize("placement", list(ENVELOPE_DIGESTS))
def test_a_churned_network_airs_the_golden_envelopes(churned_form_network, placement):
    state = churned_form_network(placement)
    assert envelope_digest(state) == ENVELOPE_DIGESTS[placement]


def adversary_profiles(state):
    """Outsider; the lowest-numbered grouped ordinary sensor; and the first
    adopter still in a group, which holds a foreign individual key."""
    cm = state.cluster_map
    spy = min(v for v, d in cm.dominator_of.items() if d != v)
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
