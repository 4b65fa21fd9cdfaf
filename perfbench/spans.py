"""In-memory spans around the calls between dhworkspace's layers.

The benchmark never edits the package. It replaces public functions, by
attribute name, on the modules that call them (`dhworkspace.cli` and
`dhworkspace.workspace`), so each call records one span: name, start, end and
the span that was open when it started. A name that a later version of the
package no longer has is skipped and reported as missing.
"""

from __future__ import annotations

import importlib
import os
import resource
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fk_batch_counts(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    n = len(result)
    # one 4x4 float64 (128 B) for the link matrix, the running product and
    # the new product, per row of the chain and per sample
    return {"samples": n, "bytes_computed": len(model.rows) * n * 3 * 128}


def _bulk_unit_counts(args, kwargs, result):
    return {"draws": int(result.size)}


def _voxelize_counts(args, kwargs, result):
    cloud = args[0] if args else kwargs["cloud"]
    return {"occupied": int(result.occupied_count), "points": len(cloud.points)}


def _write_out_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    text = args[1] if len(args) > 1 else kwargs.get("text")
    counts = {"bytes": os.path.getsize(path)}
    if isinstance(text, str):
        counts["text_bytes"] = len(text.encode("utf-8"))
    elif isinstance(text, (bytes, bytearray)):
        counts["text_bytes"] = len(text)
    return counts


#: (module, attribute, span name, counter, record ru_maxrss at span end)
TARGETS = (
    ("dhworkspace.cli", "main", "cli.main", None, False),
    ("dhworkspace.cli", "parse_robot", "robotfile.parse_robot", None, False),
    ("dhworkspace.cli", "generate_cloud", "workspace.generate_cloud", None, False),
    ("dhworkspace.cli", "summarize", "workspace.summarize", None, False),
    ("dhworkspace.cli", "project", "workspace.project", None, False),
    ("dhworkspace.cli", "_write_out", "cli.write_out", _write_out_counts, True),
    ("dhworkspace.workspace", "joint_samples", "workspace.joint_samples", None, False),
    ("dhworkspace.workspace", "bulk_unit", "rng.bulk_unit", _bulk_unit_counts, False),
    ("dhworkspace.workspace", "fk_batch", "kinematics.fk_batch", _fk_batch_counts, True),
    ("dhworkspace.workspace", "voxelize", "workspace.voxelize", _voxelize_counts, True),
    ("dhworkspace.robotfile", "parse_robot", "robotfile.parse_robot", None, False),
)


class Recorder:
    """Spans of one process, kept in memory until `summary` is called."""

    def __init__(self):
        # [name, start_ns, end_ns, parent index, counts, rss_mb]
        self.spans = []
        self._open = []
        self._restore = []
        #: span names whose counter failed on what a later version returns
        self.uncounted = set()

    def wrap(self, fn, name, counter=None, rss=False):
        spans, open_, uncounted = self.spans, self._open, self.uncounted
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, open_[-1] if open_ else -1, None, None]
            spans.append(record)
            open_.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()
            if counter is not None:
                try:
                    record[4] = counter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, OSError):
                    uncounted.add(name)
            if rss:
                record[5] = _rss_mb()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; return 'module.attr' of the rest."""
        missing = []
        for module_name, attr, name, counter, rss in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, counter, rss))
        return missing

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts, and
        highest ru_maxrss at a span end."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for index, (name, start, end, _, counts, rss) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "counts": {}, "rss_mb": None})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
            for key, value in (counts or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
            if rss is not None:
                entry["rss_mb"] = max(rss, entry["rss_mb"] or 0.0)
        return out


def _field(span, key):
    """A value from the span's summary entry."""
    return lambda summary, out: summary.get(span, {}).get(key) or 0.0


def _count(span, key):
    """A count summed over the span's calls."""
    return lambda summary, out: summary.get(span, {}).get("counts", {}).get(key, 0)


def _ratio(num, den):
    def ratio(summary, out):
        d = den(summary, out)
        return num(summary, out) / d if d else 0.0

    return ratio


FK = "kinematics.fk_batch"
VOX = "workspace.voxelize"
WRITE = "cli.write_out"

#: per-layer metric -> (unit, value from a span summary and the bytes the
#: CLI printed on stdout). A layer that did not run reads 0.
LAYER_METRICS = {
    "kinematics.fk_batch.s": ("s", _field(FK, "total_s")),
    "kinematics.fk_batch.ns_per_sample": ("ns", _ratio(
        lambda summary, out: 1e9 * _field(FK, "total_s")(summary, out), _count(FK, "samples"))),
    "kinematics.fk_batch.bytes_computed": ("B", _count(FK, "bytes_computed")),
    "kinematics.fk_batch.rss_mb": ("MB", _field(FK, "rss_mb")),
    "workspace.voxelize.s": ("s", _field(VOX, "total_s")),
    "workspace.voxelize.occupied": ("count", _count(VOX, "occupied")),
    "workspace.voxelize.distinct_ratio": ("ratio", _ratio(_count(VOX, "occupied"),
                                                          _count(VOX, "points"))),
    "workspace.voxelize.rss_mb": ("MB", _field(VOX, "rss_mb")),
    "workspace.summarize.self_s": ("s", _field("workspace.summarize", "self_s")),
    "workspace.generate_cloud.self_s": ("s", _field("workspace.generate_cloud", "self_s")),
    "workspace.joint_samples.self_s": ("s", _field("workspace.joint_samples", "self_s")),
    "rng.bulk_unit.s": ("s", _field("rng.bulk_unit", "total_s")),
    "rng.bulk_unit.draws": ("count", _count("rng.bulk_unit", "draws")),
    # self time of cli.main: argparse, %.9f text, json.dumps
    "cli.format.self_s": ("s", _field("cli.main", "self_s")),
    "cli.format.bytes": ("B", lambda summary, out:
                         _count(WRITE, "text_bytes")(summary, out) + out),
    "cli.write_out.s": ("s", _field(WRITE, "total_s")),
    "cli.write_out.bytes": ("B", _count(WRITE, "bytes")),
    "cli.write_out.rss_mb": ("MB", _field(WRITE, "rss_mb")),
    "robotfile.parse_robot.s": ("s", _field("robotfile.parse_robot", "total_s")),
}

#: metrics that count work; they must repeat exactly between traced runs
#: of one seed
EXACT_COUNTS = (
    "kinematics.fk_batch.bytes_computed",
    "workspace.voxelize.occupied",
    "rng.bulk_unit.draws",
    "cli.format.bytes",
    "cli.write_out.bytes",
)


def layer_metrics(summary: dict, stdout_bytes: int) -> dict:
    return {name: fn(summary, stdout_bytes) for name, (_, fn) in LAYER_METRICS.items()}
