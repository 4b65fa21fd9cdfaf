"""The benchmark's workloads, the inputs it derives from a seed, and the
checks it makes on every output.

Checks never run inside a timed region. Each returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

#: splitmix64 increment; sample k of a stream with m draws per sample
#: starts from state seed + k*m*GOLDEN
GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

VOXEL = 0.02
CSV_ROWS_CHECKED = 64
CSV_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    robot: str  # packaged fixture name
    n: int  # sampled configurations

    def argv(self, seed: int, out: str) -> list[str]:
        """dhworkspace CLI arguments; `out` is the file the cloud is
        written to."""
        if self.name == "cloud-csv":
            return ["workspace", f"builtin:{self.robot}", "--samples", str(self.n),
                    "--seed", str(seed), "--format", "csv", "--out", out]
        return ["volume", f"builtin:{self.robot}", "--samples", str(self.n),
                "--seed", str(seed), "--voxel", repr(VOXEL)]


# Each layer has a workload where it does most of the work and one where it
# does almost none (see README.md): cloud-csv runs fk_batch and CSV text but no
# voxelize; volume runs fk_batch and voxelize but no text formatting and uses
# the most memory.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cloud-csv", "wam", 200_000),
        Workload("volume", "smokie", 1_000_000),
    )
}


def reference_point(model, seed: int, k: int) -> np.ndarray:
    """End-effector position of sample k (0-based) by the scalar path:
    SplitMix64.next_unit, scaled into the limits, then forward_kinematics."""
    from dhworkspace import SplitMix64, forward_kinematics

    movable = model.movable_rows
    rng = SplitMix64((seed + k * len(movable) * GOLDEN) & MASK64)
    q = [row.limits[0] + (row.limits[1] - row.limits[0]) * rng.next_unit()
         for row in movable]
    return forward_kinematics(model, q)[:3, 3]


def check_csv(text: str, model, seed: int, n: int) -> list[str]:
    """Row count, and sampled rows against the scalar reference.

    Lines starting with '#' and a non-numeric header before the first data
    row are skipped, so provenance or header changes are not failures.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            if rows:
                return [f"csv line {lineno}: not numeric: {line[:60]!r}"]
    if len(rows) != n:
        return [f"csv has {len(rows)} data rows, expected {n}"]
    picks = [0, n - 1] + random.Random(seed).sample(range(n), min(n, CSV_ROWS_CHECKED - 2))
    problems = []
    for k in picks:
        row = np.array(rows[k])
        if row.shape != (3,):
            problems.append(f"csv row {k}: {len(row)} fields, expected 3")
            continue
        err = float(np.abs(row - reference_point(model, seed, k)).max())
        if not err <= CSV_TOL:
            problems.append(f"csv row {k}: off the scalar reference by {err:.3g}")
    return problems


def volume_reference(model, seed: int, n: int, voxel: float = VOXEL) -> dict:
    """Expected volume fields, from an independent count on the same cloud:
    np.unique over packed floor keys. "problems" lists rows of the cloud
    that disagree with the scalar reference."""
    from dhworkspace import SampleSpec, generate_cloud, reach_bound

    points = np.array(generate_cloud(model, SampleSpec(n=n, seed=seed)).points)
    problems = []
    for k in (0, n // 2, n - 1):
        err = float(np.abs(points[k] - reference_point(model, seed, k)).max())
        if not err <= CSV_TOL:
            problems.append(f"cloud row {k}: off the scalar reference by {err:.3g}")
    idx = np.floor(points / voxel).astype(np.int64)
    lo = idx.min(axis=0)
    span = idx.max(axis=0) - lo + 1
    keys = ((idx[:, 0] - lo[0]) * span[1] + (idx[:, 1] - lo[1])) * span[2] + (idx[:, 2] - lo[2])
    return {
        "n": n,
        "seed": seed,
        "voxel": voxel,
        "occupied_count": int(np.unique(keys).size),
        "reach_bound": reach_bound(model),
        "max_reach_m": float(np.linalg.norm(points, axis=1).max()),
        "bbox_min": points.min(axis=0).tolist(),
        "bbox_max": points.max(axis=0).tolist(),
        "problems": problems,
    }


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_volume(text: str, expected: dict) -> list[str]:
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
        json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        return [f"volume output is not strict JSON: {exc}"]
    if not isinstance(payload, dict):
        return ["volume output is not a JSON object"]
    try:
        occupied = payload["occupied_count"]
        volume = payload["volume_m3"]
        reach = payload["max_reach_m"]
        fields = (payload["n"], payload["seed"], payload["voxel_resolution"])
        bbox = (payload["bbox_min"], payload["bbox_max"])
    except KeyError as exc:
        return [f"volume output lacks {exc}"]
    voxel = expected["voxel"]
    problems = list(expected["problems"])
    if fields != (expected["n"], expected["seed"], voxel):
        problems.append(f"n/seed/voxel_resolution {fields} do not echo the request")
    if occupied != expected["occupied_count"]:
        problems.append(f"occupied_count {occupied} != np.unique recount "
                        f"{expected['occupied_count']}")
    if not math.isclose(volume, occupied * voxel ** 3, rel_tol=1e-12):
        problems.append(f"volume_m3 {volume} != occupied_count * voxel^3")
    if not reach <= expected["reach_bound"]:
        problems.append(f"max_reach_m {reach} exceeds reach_bound {expected['reach_bound']}")
    if not math.isclose(reach, expected["max_reach_m"], rel_tol=1e-12):
        problems.append(f"max_reach_m {reach} != {expected['max_reach_m']} of the cloud")
    if not np.allclose(bbox, (expected["bbox_min"], expected["bbox_max"]), rtol=0, atol=1e-12):
        problems.append("bbox_min/bbox_max differ from the cloud's")
    return problems
