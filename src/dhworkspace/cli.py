"""Command-line front end.

Subcommands: validate (diagnostics for a description file), fk (one
transform), workspace (point cloud as CSV or PLY), project (2D CSV),
volume (JSON summary on stdout). Robots are given as a file path or as
`builtin:<name>` for a packaged fixture.

Exit codes: 0 success, 1 usage error, 2 parse error in the robot file,
3 validation error (the file is well-formed but the model is rejected),
4 FK domain error (wrong arity or out-of-limit joint value), 5 I/O error.
Diagnostics and error messages go to stderr; output files are written
atomically (temp file + rename). Every number in CSV, PLY and fk output is
printed `%.9f` by one helper, `_rows_text`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .kinematics import REVOLUTE, KinematicsError, forward_kinematics
from .rng import MASK64
from .robotfile import _SEMANTIC_CODES, ERROR, fixture_names, fixture_source, parse_robot
from .workspace import _BLOCK, SampleSpec, generate_cloud, project, summarize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_FK_DOMAIN = 4
EXIT_IO = 5

class _Failure(Exception):
    """Abort the command with a message on stderr and a specific exit code."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Failure(EXIT_USAGE, message)


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _seed(raw: str) -> int:
    value = int(raw)
    if not 0 <= value <= MASK64:  # as SampleSpec requires
        raise argparse.ArgumentTypeError("must be in 0 .. 2**64 - 1")
    return value


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def _read_source(source_arg: str):
    """Description text for a path or builtin:<name> argument."""
    if source_arg.startswith("builtin:"):
        try:
            return fixture_source(source_arg[len("builtin:"):]), source_arg
        except ValueError as exc:
            raise _Failure(EXIT_USAGE, str(exc)) from None
    try:
        with open(source_arg, encoding="utf-8-sig") as handle:  # drops a leading BOM
            return handle.read(), source_arg
    except UnicodeDecodeError:
        raise _Failure(EXIT_PARSE, f"{source_arg}: not valid UTF-8 text") from None
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read {source_arg}: {exc.strerror or exc}") from None


def _report(diags, label):
    for diag in diags:
        print(f"{label}:{diag}", file=sys.stderr)


def _classify(diags) -> int:
    errors = [d for d in diags if d.severity == ERROR]
    if not errors:
        return EXIT_OK
    if all(d.code in _SEMANTIC_CODES for d in errors):
        return EXIT_VALIDATION
    return EXIT_PARSE


def _require_model(source_arg: str):
    text, label = _read_source(source_arg)
    model, diags = parse_robot(text)
    _report(diags, label)
    if model is None:
        raise _Failure(_classify(diags), f"{label}: robot description rejected")
    return model


def _write_out(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".")
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException as exc:  # MemoryError or KeyboardInterrupt too: no temp file stays
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if not isinstance(exc, OSError):
            raise
        raise _Failure(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}") from None


def _rows_text(values, sep: str) -> str:
    """One `%.9f` line per row of a 2-D float64 array, values joined by sep.

    Each block of workspace._BLOCK rows is one % operation on one format
    string; + 0.0 folds negative zero into "0.000000000".
    """
    row_fmt = sep.join(["%.9f"] * values.shape[1]) + "\n"
    parts = []
    for start in range(0, values.shape[0], _BLOCK):
        block = values[start:start + _BLOCK] + 0.0
        parts.append((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _csv_lines(header: str, values) -> str:
    return header + "\n" + _rows_text(values, ",")


def _ply_text(cloud) -> str:
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment robot={cloud.robot} seed={cloud.seed} n={len(cloud.points)}",
        f"element vertex {len(cloud.points)}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    return "\n".join(lines) + "\n" + _rows_text(cloud.points, " ")


def _cmd_validate(args) -> int:
    text, label = _read_source(args.robot)
    _, diags = parse_robot(text)
    _report(diags, label)
    return _classify(diags)


def _cmd_fk(args) -> int:
    model = _require_model(args.robot)
    try:
        q = [float(tok) for tok in args.q.split(",")]
    except ValueError:
        raise _Failure(EXIT_USAGE, f"--q expects comma-separated numbers, got {args.q!r}") from None
    movable = model.movable_rows
    if len(q) != len(movable):
        raise _Failure(EXIT_FK_DOMAIN,
                       f"robot has {len(movable)} movable joints, --q gave {len(q)} values")
    if args.degrees:
        q = [math.radians(v) if row.kind == REVOLUTE else v
             for row, v in zip(movable, q)]
    try:
        T = forward_kinematics(model, q)
    except KinematicsError as exc:
        raise _Failure(EXIT_FK_DOMAIN, str(exc)) from None
    sys.stdout.write(_rows_text(T, " ") + _rows_text(T[None, :3, 3], " "))
    return EXIT_OK


def _cmd_workspace(args) -> int:
    model = _require_model(args.robot)
    cloud = generate_cloud(model, SampleSpec(n=args.samples, seed=args.seed))
    if args.format == "csv":
        text = _csv_lines("x,y,z", cloud.points)
    else:
        text = _ply_text(cloud)
    _write_out(args.out, text)
    return EXIT_OK


def _cmd_project(args) -> int:
    model = _require_model(args.robot)
    cloud = generate_cloud(model, SampleSpec(n=args.samples, seed=args.seed))
    uv = project(cloud, args.plane)
    _write_out(args.out, _csv_lines("u,v", uv))
    return EXIT_OK


def _cmd_volume(args) -> int:
    model = _require_model(args.robot)
    cloud = generate_cloud(model, SampleSpec(n=args.samples, seed=args.seed))
    try:
        text = json.dumps(summarize(cloud, args.voxel), allow_nan=False)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from None
    print(text)
    return EXIT_OK


def _add_sampling_args(p):
    p.add_argument("--samples", type=_positive_int, default=20000,
                   help="number of sampled configurations (default 20000)")
    p.add_argument("--seed", type=_seed, default=42,
                   help="stream seed (default 42)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dhworkspace",
                     description="Forward kinematics and workspace mapping for serial arms")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("robot",
                       help="description file path, or builtin:<%s>" % "|".join(fixture_names()))
        return p

    p = add("validate", "parse a robot description and report diagnostics")
    p.set_defaults(handler=_cmd_validate)

    p = add("fk", "print the 4x4 base-to-end-effector transform and position")
    p.add_argument("--q", required=True,
                   help="comma-separated joint values, one per movable joint "
                        "(use --q=-0.5,... when the first value is negative)")
    p.add_argument("--degrees", action="store_true",
                   help="interpret revolute joint values as degrees")
    p.set_defaults(handler=_cmd_fk)

    p = add("workspace", "sample the reachable workspace and write the point cloud")
    _add_sampling_args(p)
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "ply"), default="csv")
    p.set_defaults(handler=_cmd_workspace)

    p = add("project", "write a planar projection of the sampled cloud as CSV")
    _add_sampling_args(p)
    p.add_argument("--plane", choices=("xy", "xz", "yz"), required=True,
                   help="projection plane (xy drops z, xz drops y, yz drops x)")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(handler=_cmd_project)

    p = add("volume", "print a JSON workspace summary on stdout")
    _add_sampling_args(p)
    p.add_argument("--voxel", type=_positive_float, default=0.02,
                   help="voxel edge length in meters (default 0.02)")
    p.set_defaults(handler=_cmd_volume)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        samples = getattr(args, "samples", None)
        if samples is None:
            raise
        print(f"error: not enough memory for --samples {samples}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
