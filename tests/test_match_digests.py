"""Pin the bytes `trimatch match` writes: sha256 of stdout, and of the `--out`
file, for five calls on a seeded `gen` instance (40 bases, 160 lanes, seed 7;
lane l0010 at ell 0.8, where pruned finds 68 triangles). A change to these
digests is a change to the CLI's output and must be made on purpose."""

import hashlib

import pytest
from click.testing import CliRunner

from trimatch.cli import main

DIGESTS = [
    (["--algo", "pruned"],
     "b1d163e99b5020c2f98f54155b0c1c20bf57bca48a3073473e4a2f9e791a2dad"),
    (["--format", "csv", "--shapley"],
     "d4a3c3bd00c0e1c9d826308db0452acb07e9d5b03c89b8fa2475e44549c024e8"),
    (["--k", "5"],
     "abdca055dafdfa49c38740a33c8f1ba482355c3572e36beab6b0b10357883595"),
    (["--k", "5", "--format", "csv"],
     "7e3f3bd49d1382d50126f82d28a857bfdf28e3e69ea42d027e2b48a77198424f"),
    (["--algo", "brute", "--format", "csv"],
     "0204bcfdebea0549e60742040f4647261d6d99a92fff0b15e616f3ccc50a0487"),
]


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    res = CliRunner().invoke(main, ["gen", "--n-bases", "40", "--n-lanes", "160",
                                    "--seed", "7", "--out", str(root)])
    assert res.exit_code == 0, res.output
    return root


@pytest.mark.parametrize("extra,digest", DIGESTS, ids=[" ".join(e) for e, _ in DIGESTS])
def test_match_stdout_digest(instance, extra, digest):
    res = CliRunner().invoke(main, ["match", "l0010", "--bases", str(instance / "bases.csv"),
                                    "--lanes", str(instance / "lanes.csv"), "--l", "0.8", *extra])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("extra,digest", DIGESTS, ids=[" ".join(e) for e, _ in DIGESTS])
def test_match_out_file_digest(instance, tmp_path, extra, digest):
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["match", "l0010", "--bases", str(instance / "bases.csv"),
                                    "--lanes", str(instance / "lanes.csv"), "--l", "0.8", *extra,
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == b""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
