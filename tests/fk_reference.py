"""The tests' one forward-kinematics reference, independent of the package.

Each link is the product of its four elementary factors,
Rz(theta) * Tz(d) * Tx(a) * Rx(alpha), written out as list-of-lists
matrices with math.cos and math.sin, and a chain is the ordered product
of its links. Nothing here calls the kernel that the tests check.
"""

import math

from dhworkspace import REVOLUTE

IDENTITY4 = [[1.0, 0.0, 0.0, 0.0],
             [0.0, 1.0, 0.0, 0.0],
             [0.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 0.0, 1.0]]


def ref_matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)]


def ref_rot_z(t):
    c, s = math.cos(t), math.sin(t)
    return [[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]


def ref_rot_x(t):
    c, s = math.cos(t), math.sin(t)
    return [[1.0, 0.0, 0.0, 0.0], [0.0, c, -s, 0.0],
            [0.0, s, c, 0.0], [0.0, 0.0, 0.0, 1.0]]


def ref_translate(x, z):
    return [[1.0, 0.0, 0.0, x], [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, z], [0.0, 0.0, 0.0, 1.0]]


def ref_link(a, alpha, d, theta):
    # Rz(theta) * Tz(d) * Tx(a) * Rx(alpha), composed pairwise
    left = ref_matmul(ref_rot_z(theta), ref_translate(0.0, d))
    right = ref_matmul(ref_translate(a, 0.0), ref_rot_x(alpha))
    return ref_matmul(left, right)


def ref_fk(model, config):
    """Base-to-end-effector 4x4 (a list of rows) for one value per movable
    row, in row order; fixed rows use their stored constant."""
    values = iter(config)
    T = IDENTITY4
    for row in model.rows:
        q = row.fixed if row.fixed is not None else float(next(values))
        theta = row.theta_offset + (q if row.kind == REVOLUTE else 0.0)
        d = row.d + (0.0 if row.kind == REVOLUTE else q)
        T = ref_matmul(T, ref_link(row.a, row.alpha, d, theta))
    return T


def ref_ee(model, config):
    """End-effector position (x, y, z) of ref_fk."""
    T = ref_fk(model, config)
    return T[0][3], T[1][3], T[2][3]
