"""Frozen SHA-256 digests of CLI output bytes and of parser diagnostics.

Each digest was taken once from `--samples 2000 --seed 42` on a bundled
fixture, from `--samples 49159 --seed 42` on wam (3 * 16384 + 7 rows, so
the last 16384-row block is partial), or from `fk` at a configuration whose
transform prints a `-0.000000000` entry. A change that moves a byte of any output must update the digest
here on purpose and say why in CHANGES.md; a test that only compares a run
with a second run of the same code cannot catch such drift. One test also
recomputes the fk digests and a CSV digest in a child process whose numpy
dispatches no AVX2 or AVX-512 code. Two more digests cover the parser:
the model and every diagnostic `parse_robot` gives for a seeded corpus of
description files, and the exit code and stderr of `validate` on each file.
"""

import functools
import hashlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dhworkspace import fixture_source, parse_robot
from dhworkspace.cli import main
from test_robotfile import MALFORMED

FIXTURES = ("smokie", "wam", "wam-code-variant")
SAMPLING = ("--samples", "2000", "--seed", "42")

#: (fixture, output) -> sha256 hex digest of the output bytes
GOLDEN = {
    ("smokie", "csv"):
        "b26a80e25c17d8528c20ae5e01500bd6d5b2f8104ddd0d71e6c038ebf9493260",
    ("smokie", "ply"):
        "27ec32c14655400158e60e93d0f49bd2920cc570e3825a58b68629c405ac7c96",
    ("smokie", "xy"):
        "41991c9aba630d7974dd5e7e36ffb7208eb8d617b3b2c6d70374c8d515cdf3f4",
    ("smokie", "xz"):
        "5b8f9da2ad0ecab72d1cb681d9858f965174190b6bd19b872c9081bfcdbb2b67",
    ("smokie", "yz"):
        "ca4010e15a5e6ce786f54d2f8547c98d0d04d7cf33f9c979a07f5687c61d7ab3",
    ("smokie", "volume"):
        "b1069c710d5da08a557f5094a905b04cc226509e485fb63adf0de4b9a3ed6d41",
    ("wam", "csv"):
        "d517fe17b8a16fa9df5368a051e5e973a86631b51281cd338b1eb48d58a2a78a",
    ("wam", "ply"):
        "b449c6cf49080293a79e794ffbeaa741bcb31993b2926175b38b1262e52c2ead",
    ("wam", "xy"):
        "deaf914b343da5f284b63081548031af4bd55944bb5ec5b1b60f0f0b16547de5",
    ("wam", "xz"):
        "1c6b49e2144c7d1ca4dbe2bf006b309dead8487f003505ecad1ba5bedb28b647",
    ("wam", "yz"):
        "15a549c1cab1710cdbf307e314193598b08e64926a0aff9d2243df106e48c4ba",
    ("wam", "volume"):
        "6ea7754723989d384f255d1c63f5e7c938da6499067d434ade221eaf807a9abc",
    ("wam-code-variant", "csv"):
        "88bc0c204ab12439277fa4901e02d704191132e3a3adf5bb8ad6d0f6f42728e0",
    ("wam-code-variant", "ply"):
        "cd0650f7a0b7dc4cd6dcfbb5129eb529e32f5a68cf30efa3cb57ed3b5f8a8097",
    ("wam-code-variant", "xy"):
        "50c8bbb280203c3e3d653b28fbcca24f09626eac747437328c823fd38cf3b0f1",
    ("wam-code-variant", "xz"):
        "e469a2d5d7fa26bdd1442a957daea9d47d36cdf72c1b816682929484b3f16e00",
    ("wam-code-variant", "yz"):
        "e4eb128ecd02ef6d0f9c2f94c64fc46357d28e9631a7209e7a88d86f5592b474",
    ("wam-code-variant", "volume"):
        "2fc14f76ec0bb3f34d2cf7ccbe066c657e9a16de530656563d21ebaf5cd86f6d",
}


#: three full 16384-row blocks and a partial one
BLOCK_SAMPLING = ("--samples", "49159", "--seed", "42")

#: output -> sha256 hex digest for builtin:wam at BLOCK_SAMPLING
GOLDEN_BLOCKS = {
    "csv": "e99a629eb6eada3dc157f3dc53beb85a4546fea482947a027998293082c35d7a",
    "ply": "c8fb897a19616189f8a798670466584f481c8d1cece525a4a873383b3d046782",
    "xz": "12c9d5da71611ea63fbfe96fdae4a4dd468521ab7f5d7651dc31782908d028ba",
}

#: fixture -> (--q in degrees, sha256 hex digest of the fk stdout)
GOLDEN_FK = {
    "smokie": ("30,30,30,30,30,-90",
               "c701564762383410d54a38151033bff96b37cdc9bfa5444a0e304a5a57306d2c"),
    "wam": ("30,30,30,-90,-90,-30",
            "ecd3736dc8364c956e21d8df5741a86718af34552a77f88581d411b243f7a9ec"),
    "wam-code-variant": ("30,30,30,-90,90,-30",
                         "cfe215d5824f88e68a2288de42cade61e9b9f0f703868249eeb56eddb0f13eeb"),
}


def _output_bytes(tmp_path, capsys, fixture, output, sampling=SAMPLING):
    robot = f"builtin:{fixture}"
    if output == "volume":
        assert main(["volume", robot, *sampling]) == 0
        return capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "out"
    if output in ("csv", "ply"):
        argv = ["workspace", robot, *sampling, "--format", output, "--out", str(out)]
    else:
        argv = ["project", robot, *sampling, "--plane", output, "--out", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("output", ("csv", "ply", "xy", "xz", "yz", "volume"))
def test_output_digest_is_frozen(tmp_path, capsys, fixture, output):
    data = _output_bytes(tmp_path, capsys, fixture, output)
    assert hashlib.sha256(data).hexdigest() == GOLDEN[fixture, output]


@pytest.mark.parametrize("output", sorted(GOLDEN_BLOCKS))
def test_block_crossing_digest_is_frozen(tmp_path, capsys, output):
    data = _output_bytes(tmp_path, capsys, "wam", output, BLOCK_SAMPLING)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_BLOCKS[output]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fk_digest_is_frozen(capsys, fixture):
    q, digest = GOLDEN_FK[fixture]
    assert main(["fk", f"builtin:{fixture}", f"--q={q}", "--degrees"]) == 0
    out = capsys.readouterr().out
    assert "-0.000000000" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: numpy's SIMD dispatch cut to the x86-64-v2 baseline, as on an older CPU
BASELINE_SIMD = "AVX512_ICL AVX512_SPR X86_V4 X86_V3"

#: recomputes digests in a child process; argv[1] is a JSON list of
#: [argv, out_path_or_null] jobs, stdout is the JSON list of digests and the
#: dispatch features still enabled
_CHILD = """
import contextlib, hashlib, io, json, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__
from dhworkspace.cli import main

digests = []
for argv, out in json.loads(sys.argv[1]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    data = open(out, "rb").read() if out else stdout.getvalue().encode("utf-8")
    digests.append(hashlib.sha256(data).hexdigest())
enabled = [f for f in sys.argv[2].split() if __cpu_features__.get(f)]
print(json.dumps({"digests": digests, "enabled": enabled}))
"""


def test_digests_hold_with_baseline_simd(tmp_path, child_env):
    """The fk digests and the block-crossing CSV digest, recomputed in a
    child process whose numpy may not dispatch to AVX2 or AVX-512 code."""
    out = str(tmp_path / "cloud.csv")
    jobs = [[["fk", f"builtin:{fixture}", f"--q={q}", "--degrees"], None]
            for fixture, (q, _) in sorted(GOLDEN_FK.items())]
    jobs.append([["workspace", "builtin:wam", *BLOCK_SAMPLING, "--out", out], out])
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(jobs), BASELINE_SIMD],
                           env=child_env(NPY_DISABLE_CPU_FEATURES=BASELINE_SIMD),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["enabled"] == []
    expected = [digest for _, (_, digest) in sorted(GOLDEN_FK.items())]
    assert result["digests"] == expected + [GOLDEN_BLOCKS["csv"]]


#: sha256 over repr(model) and str() of each diagnostic, file by file, of
#: diagnostic_corpus(); the model and messages it freezes are what
#: `validate` prints and what every other command starts from
GOLDEN_DIAGNOSTICS = "02d9a922d0c2a269f6df3f1a2826d95ff71a522957e1d15c324b8a010bb759de"

#: the MALFORMED cases the corpus was frozen with: a case added later is one
#: more piece, which would change every file the seed draws
CORPUS_MALFORMED = 29

#: characters a mutation inserts: the format's own, and line ends
MUTATION_ALPHABET = '0123456789 .-+eE=#"/pi\n\r\tabcdfmnorstuxy'


@functools.cache
def diagnostic_corpus():
    """The fixtures, the first CORPUS_MALFORMED sources of MALFORMED, and
    2000 files built from their lines with one to three single-character
    edits each.

    Half the files start from a fixture, so that some still parse and their
    models are frozen too. Only random(), randrange() and choice() draw, so
    every supported Python builds the same files from the seed."""
    fixtures = [fixture_source(f) for f in FIXTURES]
    pieces = fixtures + [source for _, source, *_ in MALFORMED[:CORPUS_MALFORMED]]
    rng = random.Random(2017)
    corpus = list(pieces)
    for _ in range(2000):
        lines = rng.choice(fixtures if rng.random() < 0.5 else pieces).splitlines(keepends=True)
        if rng.random() < 0.3:  # splice in a line of another piece
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(rng.choice(pieces).splitlines(keepends=True)))
        text = "".join(lines)
        for _ in range(1 + rng.randrange(3)):
            at, edit = rng.randrange(len(text) + 1), rng.random()
            if edit < 1 / 3:  # delete
                text = text[:at] + text[at + 1:]
            elif edit < 2 / 3:  # insert
                text = text[:at] + rng.choice(MUTATION_ALPHABET) + text[at:]
            else:  # replace
                text = text[:at] + rng.choice(MUTATION_ALPHABET) + text[at + 1:]
        corpus.append(text)
    return corpus


def test_diagnostic_digest_is_frozen():
    h = hashlib.sha256()
    for source in diagnostic_corpus():
        model, diags = parse_robot(source)
        h.update("\n".join([repr(model), *map(str, diags), ""]).encode("utf-8"))
    assert h.hexdigest() == GOLDEN_DIAGNOSTICS


#: sha256 over the exit code and stderr of `validate` on each file of
#: diagnostic_corpus(): which exit code the diagnostics above give
GOLDEN_VALIDATE = "14a432b94457f0aad163ae0d79a7c79fc11bd9042896a18f42cd09b844b738c0"


def test_validate_exit_digest_is_frozen(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # stderr names the file by the path given
    h = hashlib.sha256()
    for source in diagnostic_corpus():
        Path("corpus.robot").write_bytes(source.encode("utf-8"))
        code = main(["validate", "corpus.robot"])
        h.update(f"{code}\n{capsys.readouterr().err}\0".encode("utf-8"))
    assert h.hexdigest() == GOLDEN_VALIDATE


def test_readme_lists_exactly_the_codes_the_corpus_reaches():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    listed = readme.split("Diagnostic codes the parser can emit:", 1)[1].split("\n\n", 1)[0]
    reached = {d.code for source in diagnostic_corpus() for d in parse_robot(source)[1]}
    assert reached == set(re.findall(r"`([a-z-]+)`", listed))
