"""Link transforms, chain composition, and the joint-value contract, checked
against the pure-Python reference in fk_reference.py."""

import math

import numpy as np
import numpy.testing as nt
import pytest

from dhworkspace import (
    PRISMATIC,
    REVOLUTE,
    DHRow,
    JointArityError,
    JointLimitError,
    KinematicsError,
    RobotModel,
    builtin_fixture,
    fk_batch,
    forward_kinematics,
    reach_bound,
)
from dhworkspace.kinematics import _BLOCK as BLOCK
from fk_reference import ref_fk

#: entrywise bound on the kernel's distance from the pure-Python reference
TOL = 1e-14


def row(kind=REVOLUTE, a=0.0, alpha=0.0, d=0.0, offset=0.0,
        limits=(-math.pi, math.pi), fixed=None):
    return DHRow(kind=kind, a=a, alpha=alpha, d=d,
                 theta_offset=offset, limits=limits, fixed=fixed)


def one_joint(r):
    return RobotModel(name="test", rows=(r,))


# --- one link ---------------------------------------------------------------

def test_zero_row_is_identity():
    assert np.array_equal(forward_kinematics(one_joint(row()), [0.0]), np.eye(4))


def test_quarter_turn_twist_golden():
    # a=0, alpha=pi/2, d=0, q=pi/2: z axis maps onto x, well-known corner case
    T = forward_kinematics(one_joint(row(alpha=math.pi / 2)), [math.pi / 2])
    expected = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    nt.assert_allclose(T, expected, atol=1e-12)


def test_revolute_variable_goes_to_theta():
    T = forward_kinematics(one_joint(row(a=2.0)), [math.pi / 2])
    # rotation about z plus the link offset a along the rotated x
    nt.assert_allclose(T[:3, 3], [0.0, 2.0, 0.0], atol=1e-12)
    nt.assert_allclose(T[:2, :2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_prismatic_variable_goes_to_d():
    r = row(kind=PRISMATIC, d=0.5, limits=(-1.0, 1.0))
    T = forward_kinematics(one_joint(r), [0.25])
    assert T[2, 3] == 0.75
    nt.assert_allclose(T[:3, :3], np.eye(3))


def test_theta_offset_adds_to_revolute_q():
    assert np.array_equal(
        forward_kinematics(one_joint(row(offset=0.3)), [0.4]),
        forward_kinematics(one_joint(row()), [0.7]),
    )


def test_prismatic_theta_offset_is_constant_rotation():
    r = row(kind=PRISMATIC, offset=math.pi / 2, limits=(0.0, 1.0))
    T = forward_kinematics(one_joint(r), [0.0])
    nt.assert_allclose(T[:2, :2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_nonfinite_q_rejected():
    # named as not finite, although an infinite value also breaks a limit
    wam = builtin_fixture("wam")
    for bad in (math.inf, -math.inf):
        with pytest.raises(KinematicsError, match="joint 3: value must be finite"):
            forward_kinematics(wam, [0.0, bad, 0.0, 0.0, 0.0, 0.0])


def test_rotation_block_orthonormal_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = row(a=rng.uniform(-2, 2), alpha=rng.uniform(-4, 4),
                d=rng.uniform(-2, 2), offset=rng.uniform(-4, 4))
        R = forward_kinematics(one_joint(r), [rng.uniform(-3, 3)])[:3, :3]
        nt.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        nt.assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)


# --- DHRow / RobotModel validation ----------------------------------------

def test_row_rejects_unknown_kind():
    with pytest.raises(ValueError):
        row(kind="helical")


def test_row_rejects_inverted_limits():
    with pytest.raises(ValueError):
        row(limits=(1.0, -1.0))


def test_row_rejects_fixed_outside_limits():
    with pytest.raises(ValueError):
        row(limits=(-1.0, 1.0), fixed=2.0)


def test_row_rejects_nonfinite_parameters():
    with pytest.raises(ValueError):
        row(a=math.inf)
    with pytest.raises(ValueError):
        row(limits=(-math.inf, 0.0))


def test_model_rejects_empty_chain():
    with pytest.raises(ValueError):
        RobotModel(name="empty", rows=())


def test_all_fixed_chain_is_constructible():
    # zero degrees of freedom is rejected by the parser, not by the type
    m = RobotModel(name="frozen", rows=(row(fixed=0.0),))
    assert m.movable_count == 0
    nt.assert_allclose(forward_kinematics(m, []), np.eye(4))


# --- chains and the joint-value contract ----------------------------------

def test_frame_chain_accumulates():
    # forward_kinematics is the ordered product of the link transforms,
    # fixed rows at their constant
    mixed = RobotModel(name="mixed", rows=(
        row(a=0.3, alpha=0.5, d=0.1),
        row(kind=PRISMATIC, alpha=-1.2, d=0.2, limits=(0.0, 1.0), fixed=0.4),
        row(a=-0.7, d=0.05, offset=0.3, fixed=-0.9),
        row(kind=PRISMATIC, a=0.2, alpha=2.0, limits=(-0.5, 0.5)),
    ))
    wam = builtin_fixture("wam")  # row 1 fixed at 0
    cases = [(mixed, [0.8, -0.25]), (wam, [0.1, -0.2, 0.3, 0.0, 0.5, -0.6])]
    for model, q in cases:
        nt.assert_allclose(forward_kinematics(model, q), ref_fk(model, q), rtol=0, atol=TOL)


def test_fixed_rows_consume_no_values():
    wam = builtin_fixture("wam")
    assert wam.movable_count == 6
    with pytest.raises(JointArityError):
        forward_kinematics(wam, [0.0] * 7)


def test_fixed_row_uses_stored_constant():
    base = row(a=1.0)
    m_fixed = one_joint(row(a=1.0, fixed=0.8))
    m_free = one_joint(base)
    assert np.array_equal(forward_kinematics(m_fixed, []),
                          forward_kinematics(m_free, [0.8]))


def test_limit_violation_raises_not_clamps():
    m = one_joint(row(limits=(-1.0, 2.0)))
    with pytest.raises(JointLimitError) as info:
        forward_kinematics(m, [2.5])
    assert info.value.index == 1
    assert info.value.which == "max"
    assert info.value.bound == 2.0
    with pytest.raises(JointLimitError) as info:
        forward_kinematics(m, [-1.5])
    assert info.value.which == "min"
    # a joint's number is its row's place in the chain, fixed rows included
    chain = RobotModel(name="chain", rows=(row(fixed=0.0), row(limits=(-1.0, 2.0))))
    with pytest.raises(JointLimitError) as info:
        forward_kinematics(chain, [2.5])
    assert info.value.index == 2


def test_limits_are_inclusive_at_the_boundary():
    m = one_joint(row(limits=(-1.0, 2.0)))
    forward_kinematics(m, [-1.0])
    forward_kinematics(m, [2.0])


def test_nonfinite_config_rejected():
    m = one_joint(row())
    with pytest.raises(KinematicsError):
        forward_kinematics(m, [math.nan])
    chain = RobotModel(name="chain", rows=(row(fixed=0.0), row()))
    with pytest.raises(KinematicsError, match="joint 2:"):
        forward_kinematics(chain, [math.inf])


# --- fk_batch --------------------------------------------------------------

def test_fk_batch_matches_scalar_path():
    rng = np.random.default_rng(11)
    for name in ("smokie", "wam", "wam-code-variant"):
        model = builtin_fixture(name)
        lims = np.array([r.limits for r in model.movable_rows])
        Q = rng.uniform(lims[:, 0], lims[:, 1], size=(40, len(lims)))
        batch = fk_batch(model, Q)
        for k in range(Q.shape[0]):
            nt.assert_allclose(batch[k], ref_fk(model, Q[k]), rtol=0, atol=TOL)


def test_fk_batch_prefix_is_bitwise_stable():
    model = builtin_fixture("wam")
    lims = np.array([r.limits for r in model.movable_rows])
    Q = np.random.default_rng(3).uniform(lims[:, 0], lims[:, 1],
                                         size=(BLOCK + 64, 6))
    full = fk_batch(model, Q)
    # 16 rows sit inside the first block; BLOCK + 1 rows cross its boundary
    for n in (16, BLOCK + 1):
        assert np.array_equal(fk_batch(model, Q[:n]), full[:n])


def test_fk_batch_checks_shape():
    model = builtin_fixture("wam")
    with pytest.raises(JointArityError):
        fk_batch(model, np.zeros((5, 7)))
    with pytest.raises(JointArityError):
        fk_batch(model, np.zeros(6))


def test_fk_batch_handles_prismatic_and_fixed_rows():
    rows = (
        row(kind=REVOLUTE, a=0.2, alpha=math.pi / 2),
        row(kind=PRISMATIC, d=0.1, limits=(0.0, 1.0)),
        row(kind=REVOLUTE, a=0.4, fixed=0.5),
    )
    m = RobotModel(name="mixed", rows=rows)
    Q = np.array([[0.3, 0.7], [-1.2, 0.05]])
    batch = fk_batch(m, Q)
    for k in range(2):
        nt.assert_allclose(batch[k], ref_fk(m, Q[k]), rtol=0, atol=TOL)


def test_fk_batch_matches_scalar_path_across_block_boundaries():
    rows = (
        row(kind=REVOLUTE, a=0.2, alpha=math.pi / 2, d=0.1),
        row(kind=PRISMATIC, alpha=-math.pi / 2, d=0.1, limits=(0.0, 1.0)),
        row(kind=REVOLUTE, a=0.4, alpha=0.3, fixed=0.5),
        row(kind=REVOLUTE, a=-0.1, d=0.3, offset=0.7),
        row(kind=PRISMATIC, a=0.05, offset=-0.2, limits=(0.0, 1.0),
            fixed=0.25),
    )
    m = RobotModel(name="mixed", rows=rows)
    sizes = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)
    lims = np.array([r.limits for r in m.movable_rows])
    Q = np.random.default_rng(17).uniform(lims[:, 0], lims[:, 1],
                                          size=(max(sizes), len(lims)))
    full = fk_batch(m, Q)
    # the pure-Python reference is slow, so it checks the full batch on
    # either side of every block boundary and at random rows; each shorter
    # batch must equal the full batch's prefix
    picks = {0, len(Q) - 1}
    for edge in range(BLOCK, len(Q), BLOCK):
        picks |= {edge - 2, edge - 1, edge, edge + 1}
    picks |= set(np.random.default_rng(18).choice(len(Q), 32, replace=False).tolist())
    for k in sorted(picks):
        nt.assert_allclose(full[k], ref_fk(m, Q[k]), rtol=0, atol=TOL)
    for n in sizes:
        batch = fk_batch(m, Q[:n])
        assert batch.shape == (n, 4, 4)
        assert np.array_equal(batch, full[:n])


# --- reach_bound ------------------------------------------------------------

def test_reach_bound_fixtures():
    assert reach_bound(builtin_fixture("smokie")) == pytest.approx(1.141, abs=1e-12)
    assert reach_bound(builtin_fixture("wam")) == pytest.approx(1.0, abs=1e-12)


def test_reach_bound_prismatic_extension():
    free = one_joint(row(kind=PRISMATIC, d=0.1, limits=(-0.5, 2.0)))
    assert reach_bound(free) == pytest.approx(2.1)
    fixed = one_joint(row(kind=PRISMATIC, d=0.1, limits=(-0.5, 2.0), fixed=-0.5))
    assert reach_bound(fixed) == pytest.approx(0.4)


def test_reach_bound_dominates_sampled_points():
    rng = np.random.default_rng(5)
    for name in ("smokie", "wam"):
        model = builtin_fixture(name)
        bound = reach_bound(model)
        lims = np.array([r.limits for r in model.movable_rows])
        Q = rng.uniform(lims[:, 0], lims[:, 1], size=(500, len(lims)))
        p = fk_batch(model, Q)[:, :3, 3]
        assert np.linalg.norm(p, axis=1).max() <= bound + 1e-12
