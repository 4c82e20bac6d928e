"""Byte pins on every file the CLI writes: train, probe, baseline, report.

One small run tree per module: eg, vb and me trained for 2 reps x 2
episodes x 300 steps with a checkpoint after each episode, adaptation and
reaction probes on each, a manual baseline on the benchmark's 4-resource
critical sim config, and a report over the whole tree. Each output's
sha256 is pinned; a manifest is hashed without its ``out_dir`` line, the
one line that names the temporary directory.

The digests were computed before the CLI's output paths were merged. A
refactor that keeps outputs byte-identical keeps these tests green.
"""

import hashlib
from pathlib import Path

import pytest

from punctrl.cli import main

TRAIN = """
[train]
episodes = 2
steps_per_episode = 300
hidden_dims = 16,16
checkpoint_every = 1

[run]
reps = 2
jobs = 1
"""

# the baseline_manual benchmark's sim section: critical requests on 4 resources
BASELINE = """
[sim]
n_resources = 4
p_occupy = 0.6
p_request = 0.3
p_critical = 0.3

[train]
episodes = 3
steps_per_episode = 1000

[run]
reps = 1
"""

DIGESTS = {
    "report/rewards.svg": "9efc882c031862024823a8fc6423f18e32b6f541f16e8ce4266a4e44fe164f57",
    "report/summary.csv": "32140d95ed4e20b4b7481ce0d6d17d6bfc3103f72667e0d7b2762190c1ba8853",
    "report/tx_interrupted.svg": "acfef5ae407104516cfcb8f009c3e1521218f17cff7f9cdb0f6341f57cb9da69",
    "report/urllc_missed.svg": "182b7e4119bae8b63a296bf20c3215f8540be9f043421a378c6e2489356fd31f",
    "runs/eg/checkpoints/eg-s5_ep001.ckpt": "12128532364d994c4b753aa28e59adea90440a2c945f51352e858bcc2c781c4d",
    "runs/eg/checkpoints/eg-s5_final.ckpt": "9e909d879c2558a7855ad419d838edc9b46a78cef7deec594f943108be002a39",
    "runs/eg/checkpoints/eg-s6_ep001.ckpt": "38f1f2e82af523e3250885f420f66c924f60ccf728207a378ff05ed893dc533a",
    "runs/eg/checkpoints/eg-s6_final.ckpt": "dfc4e8bfbeb80f465cef9a6b28ccafe1a6e78b6098d8c89eb8f80b5027beb04c",
    "runs/eg/episodes.csv": "c684993db5f297c355ac5a054e18e0752117959121b858f1f2bcbc7f97611cfd",
    "runs/eg/manifest.ini": "2b4dd71a76bade2c279fe01ff67614151f22ae724e0bfc27b0c9c83725714c46",
    "runs/eg/probes.csv": "189ef25ad32d5a679d9beb9888bc55ad14ce36eb4bec0654bec6969a85d6a183",
    "runs/eg/reaction/probes.csv": "ddd019cb404dd5c5eaeeb8ecffb86050d8eef685114c4a58ade8a3d71ded2041",
    "runs/manual/episodes.csv": "eb69911f6a53fb8bd185483fa98f362b740345203f7ead443bdab57412aa747b",
    "runs/manual/manifest.ini": "2af40a8110371b1ce3d298eac5cf6e396cf6c4eb8bd6e4926b06f870fcba7124",
    "runs/me/checkpoints/me-s5_ep001.ckpt": "39ef133ca4971eb1f8e04c245dbf3d4406600d10cc71745a855b596b325437a5",
    "runs/me/checkpoints/me-s5_final.ckpt": "9b838ce8b7c85898c869fcf75e666a0d6d9d96f971636bdd2fec02b2f6a04e80",
    "runs/me/checkpoints/me-s6_ep001.ckpt": "8f21869001113d20aac40a0aea35d0cac0f73e92f1590a7b9ea35f2843d64321",
    "runs/me/checkpoints/me-s6_final.ckpt": "1f1af75c7426841ee8235c5d7eb35274823a4756378983b9bb38bdb227ea9f44",
    "runs/me/episodes.csv": "c9945cb1951d2423ea1e5a8071465a34b53ca77877fcf440f4be1e016c868edc",
    "runs/me/manifest.ini": "6f5652a276253ce93ac1f92cfeb3f6eaf976ad401286d93a12df975dc8ce5640",
    "runs/me/probes.csv": "07725ff23b683f40dc1586750cdf9b0d140265246fb1a8a2e86e8d6f8267dfd9",
    "runs/me/reaction/probes.csv": "6503deb16f0d621418d4fd5e8eacd8726ddd521a99358d38bd983d5183f768b8",
    "runs/vb/checkpoints/vb-s5_ep001.ckpt": "e7252b91bd995a39e560bbcdbb082e5c557b82aff976a68c47b3e310a0d7dd36",
    "runs/vb/checkpoints/vb-s5_final.ckpt": "440f846c2cf39196c6650ddacb8221a56134ea2fd4d89ea68b317f2cb2e76f52",
    "runs/vb/checkpoints/vb-s6_ep001.ckpt": "25892275b682f44894d6232ec010759a0e9c74ee1384555d5b05cc3616ba8efd",
    "runs/vb/checkpoints/vb-s6_final.ckpt": "1e0de6ca999fb8777b3d0eb1c04ffcc575df9034f6aea523a65086c04188ac61",
    "runs/vb/episodes.csv": "26df7566f147d062eb45075218a0ac0002eb4214dd1d7c5f363194c9ccf61a4f",
    "runs/vb/manifest.ini": "56e8793558d35ab38f3c80e9ffc4efd8f1359df632e72019667461ddae45baa8",
    "runs/vb/probes.csv": "9e4e53ee403b45f075e5f313726701f346f3970e35a6898204c6a044df3418fe",
    "runs/vb/reaction/probes.csv": "dc7fe1526cc4d62ea7020d32e94af17f857c7e8d380dd9745b1f219fc4118353",
}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.ini":
        data = b"".join(
            line for line in data.splitlines(keepends=True) if not line.startswith(b"out_dir =")
        )
    return hashlib.sha256(data).hexdigest()


def cli(*argv):
    assert main(list(argv)) == 0, argv


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """relative path -> digest of every file the commands wrote."""
    root = tmp_path_factory.mktemp("pins")
    (root / "train.ini").write_text(TRAIN)
    (root / "baseline.ini").write_text(BASELINE)
    runs = root / "runs"
    for kind in ("eg", "vb", "me"):
        run_dir = str(runs / kind)
        cli("train", "--config", str(root / "train.ini"), "--agent", kind, "--seed", "5",
            "--out", run_dir)
        cli("probe", "--checkpoints", run_dir, "--mode", "adapt", "--reps", "3", "--cap", "40",
            "--seed", "2")
        cli("probe", "--checkpoints", run_dir, "--mode", "reaction")
    cli("baseline", "--config", str(root / "baseline.ini"), "--seed", "7",
        "--out", str(runs / "manual"))
    cli("report", "--in", str(runs), "--out", str(root / "report"))
    return {
        path.relative_to(root).as_posix(): digest(path)
        for top in (runs, root / "report")
        for path in sorted(top.rglob("*"))
        if path.is_file()
    }


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_pinned(outputs, name, host_numerics):
    assert outputs.get(name) == DIGESTS[name], host_numerics
