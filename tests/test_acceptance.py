"""Acceptance suite: one test per shipped guarantee.

Where a reference computation is needed it is written out in plain Python
(list-of-lists matrices in fk_reference.py, a scratch splitmix64 here), so
nothing is checked against the code under test itself.
Timed guarantees assert wall-clock budgets via time.perf_counter.
"""

import json
import math
import time

import numpy as np
import pytest

from dhworkspace import (
    PRISMATIC,
    REVOLUTE,
    DHRow,
    RobotModel,
    SampleSpec,
    SplitMix64,
    builtin_fixture,
    bulk_unit,
    fk_batch,
    forward_kinematics,
    generate_cloud,
    fixture_source,
    joint_samples,
    parse_robot,
    reach_bound,
    summarize,
    voxelize,
)
from dhworkspace.cli import main
from fk_reference import ref_ee, ref_link

# ----------------------------------------------------------------------------
# reference implementations (independent of the library internals)

def scratch_splitmix64(seed):
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


# ----------------------------------------------------------------------------

def test_link_transform_matches_elementary_factor_product():
    """1000 random one-link chains: forward_kinematics agrees entrywise with
    the reference Rz*Tz*Tx*Rx to 1e-12, < 1 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        kind = REVOLUTE if rng.random() < 0.5 else PRISMATIC
        a, d = rng.uniform(-2.0, 2.0, size=2)
        alpha, offset = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=2)
        q = float(rng.uniform(-3.0, 3.0))
        row = DHRow(kind=kind, a=float(a), alpha=float(alpha),
                    d=float(d), theta_offset=float(offset), limits=(-10.0, 10.0))
        got = forward_kinematics(RobotModel(name="link", rows=(row,)), [q])
        theta = offset + (q if kind == REVOLUTE else 0.0)
        depth = d + (0.0 if kind == REVOLUTE else q)
        want = ref_link(float(a), float(alpha), depth, theta)
        worst = max(worst, float(np.abs(got - np.array(want)).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_rotation_blocks_stay_orthonormal_across_fixtures():
    """10000 sampled configs per fixture: ||R R^T - I||_inf <= 1e-9 and
    |det R - 1| <= 1e-9, < 5 s total."""
    t0 = time.perf_counter()
    for name in ("smokie", "wam", "wam-code-variant"):
        model = builtin_fixture(name)
        Q = joint_samples(model, SampleSpec(n=10000, seed=7))
        R = fk_batch(model, Q)[:, :3, :3]
        gram_err = np.abs(R @ np.swapaxes(R, 1, 2) - np.eye(3)).max()
        det_err = np.abs(np.linalg.det(R) - 1.0).max()
        assert gram_err <= 1e-9, name
        assert det_err <= 1e-9, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0


def test_zero_config_end_effector_positions():
    """Zero-config EE positions match the independent reference and the
    frozen literals: WAM (0, 0, 0.91), Smokie (0.766, -0.230, -0.145),
    all within 1e-12."""
    cases = {
        "wam": (0.0, 0.0, 0.91),
        "smokie": (0.766, -0.230, -0.145),
    }
    for name, literal in cases.items():
        model = builtin_fixture(name)
        zeros = [0.0] * model.movable_count
        got = forward_kinematics(model, zeros)[:3, 3]
        want = ref_ee(model, zeros)
        assert np.abs(got - np.array(want)).max() <= 1e-12, name
        assert np.abs(got - np.array(literal)).max() <= 1e-12, name


def test_wam_cloud_respects_reach_envelope():
    """WAM, 20000 samples, seed 42: every point has norm <= 1.0 and the
    sampled max reach lands in [0.85, 1.0]; the lower bound is justified by
    a 9x9x9 reference-FK grid over joints 2-4. Under 2 s."""
    t0 = time.perf_counter()
    model = builtin_fixture("wam")
    cloud = generate_cloud(model, SampleSpec(n=20000, seed=42))
    radii = np.linalg.norm(cloud.points, axis=1)
    assert float(radii.max()) <= 1.0
    assert reach_bound(model) <= 1.0 + 1e-12
    assert 0.85 <= float(radii.max()) <= 1.0

    grid_max = 0.0
    axis2 = [-2.0 + i * 0.5 for i in range(9)]
    axis3 = [-2.8 + i * 0.7 for i in range(9)]
    axis4 = [-0.9 + i * 0.5 for i in range(9)]
    for q2 in axis2:
        for q3 in axis3:
            for q4 in axis4:
                x, y, z = ref_ee(model, [q2, q3, q4, 0.0, 0.0, 0.0])
                grid_max = max(grid_max, math.sqrt(x * x + y * y + z * z))
    assert grid_max >= 0.85
    assert float(radii.max()) >= grid_max - 0.05  # sampling reaches near the grid optimum
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0


def test_smokie_large_sample_reach():
    """Smokie, 200000 samples, seed 42: max reach within [0.85, 1.141]
    (the upper end is the serial-chain length bound). Under 10 s."""
    t0 = time.perf_counter()
    model = builtin_fixture("smokie")
    cloud = generate_cloud(model, SampleSpec(n=200000, seed=42))
    radii = np.linalg.norm(cloud.points, axis=1)
    assert 0.85 <= float(radii.max()) <= 1.141
    assert float(radii.max()) <= reach_bound(model) + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    """Re-running `workspace` with equal flags produces byte-identical CSV
    and PLY files, and the voxel occupancy of a 5000-sample prefix is a
    subset of the 20000-sample run at 0.02 m resolution. Under 5 s."""
    t0 = time.perf_counter()
    paths = {key: tmp_path / f"{key}.out" for key in "abcd"}
    for key in "ab":
        code = main(["workspace", "builtin:wam", "--out", str(paths[key])])
        assert code == 0
    for key in "cd":
        code = main(["workspace", "builtin:wam", "--format", "ply",
                     "--out", str(paths[key])])
        assert code == 0
    capsys.readouterr()
    assert paths["a"].read_bytes() == paths["b"].read_bytes()
    assert paths["c"].read_bytes() == paths["d"].read_bytes()

    model = builtin_fixture("wam")
    small = voxelize(generate_cloud(model, SampleSpec(n=5000, seed=42)), 0.02)
    large = voxelize(generate_cloud(model, SampleSpec(n=20000, seed=42)), 0.02)
    assert small.occupied <= large.occupied
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0


def test_sampling_respects_joint_limits():
    """Every sampled WAM config lies inside the declared limits (frozen
    here as literals), and the fk subcommand rejects an out-of-range value
    with exit code 4."""
    wam_limits = [(-2.6, 2.6), (-2.0, 2.0), (-2.8, 2.8), (-0.9, 3.1),
                  (-4.8, 1.3), (-1.6, 1.6), (-2.2, 2.2)]
    model = builtin_fixture("wam")
    assert [row.limits for row in model.rows] == wam_limits

    Q = joint_samples(model, SampleSpec(n=20000, seed=42))
    movable = [row for row in model.rows if row.fixed is None]
    assert Q.shape == (20000, len(movable))
    for j, row in enumerate(movable):
        lo, hi = row.limits
        assert float(Q[:, j].min()) >= lo
        assert float(Q[:, j].max()) < hi  # half-open draw never hits max

    assert main(["fk", "builtin:wam", "--q", "3,0,0,0,0,0"]) == 4


MALFORMED = [
    ('units m\njoint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n',
     "missing-robot-header", 2),
    ('robot "T"\njoint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n',
     "missing-units-header", 2),
    ('robot "T"\nunits furlongs\njoint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n',
     "bad-units", 2),
    ('robot T\nunits m\njoint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n',
     "bad-robot-name", 1),
    ('robot "T"\nunits m\nwheel 1\njoint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n',
     "unknown-directive", 3),
    ('robot "T"\nunits m\njoint one type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n',
     "bad-joint-index", 3),
    ('robot "T"\nunits m\njoint 1 type=helical a=0 alpha=0 d=0 offset=0 min=-1 max=1\n',
     "bad-kind", 3),
    ('robot "T"\nunits m\njoint 1 type=revolute a=0 alpha=0 d=0 min=-1 max=1\n',
     "missing-field", 3),
    ('robot "T"\nunits m\njoint 1 type=revolute a=zero alpha=0 d=0 offset=0 min=-1 max=1\n',
     "bad-number", 3),
    ('robot "T"\nunits m\njoint 1 type=revolute a=pi alpha=0 d=0 offset=0 min=-1 max=1\n',
     "bad-number", 3),
    ('robot "T"\nunits m\njoint 1 type=revolute a=0 alpha=tau d=0 offset=0 min=-1 max=1\n',
     "bad-angle", 3),
    ('robot "T"\nunits m\njoint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=2 max=1\n',
     "limits-inverted", 3),
    ('robot "T"\nunits m\njoint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1 fixed=5\n',
     "fixed-out-of-range", 3),
    ('robot "T"\nunits m\n'
     'joint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n'
     'joint 3 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n',
     "noncontiguous-indices", 4),
    ('robot "T"\nunits m\n', "no-joints", 1),
]


def test_parser_accepts_fixtures_and_rejects_malformed():
    """The three bundled fixtures parse with no diagnostics; 15 malformed
    inputs each yield the expected diagnostic code at the expected line;
    10000 fuzzed inputs never raise and never yield a model together with
    errors. Under 10 s."""
    t0 = time.perf_counter()
    for name in ("smokie", "wam", "wam-code-variant"):
        model, diags = parse_robot(fixture_source(name))
        assert not diags
        assert model == builtin_fixture(name)

    for source, code, line in MALFORMED:
        model, diags = parse_robot(source)
        assert model is None, code
        hits = [d for d in diags if d.code == code]
        assert hits, (code, diags)
        assert hits[0].line == line, code

    rng = np.random.default_rng(0xACCE97)
    vocab = ["robot", "units", "joint", "type=revolute", "type=prismatic",
             '"T"', "m", "cm", "mm", "a=0", "alpha=pi/2", "d=1", "offset=0",
             "min=-pi", "max=pi", "fixed=0", "#", "1", "2", "=", "pi", "\n"]
    for i in range(10000):
        if i % 2 == 0:
            raw = rng.integers(0, 256, size=int(rng.integers(0, 120)), dtype=np.uint8)
            source = raw.tobytes().decode("latin-1")
        else:
            k = int(rng.integers(0, 24))
            source = " ".join(vocab[j] for j in rng.integers(0, len(vocab), size=k))
        model, diags = parse_robot(source)
        errors = [d for d in diags if d.severity == "error"]
        assert (model is None) == bool(errors)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0


def test_rng_reference_vectors_and_uniformity():
    """splitmix64 with seed 0 opens with the published reference outputs;
    1e6 unit draws all land in [0, 1) with mean within 0.005 of 0.5."""
    reference = scratch_splitmix64(0)
    first4 = [next(reference) for _ in range(4)]
    assert first4 == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                      0x06C45D188009454F, 0xF88BB8A8724C81EC]
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(4)] == first4

    units = bulk_unit(0, 10**6)
    scalar = SplitMix64(0)
    head = np.array([scalar.next_unit() for _ in range(1000)])
    assert np.array_equal(units[:1000], head)
    assert float(units.min()) >= 0.0
    assert float(units.max()) < 1.0
    assert abs(float(units.mean()) - 0.5) < 0.005
