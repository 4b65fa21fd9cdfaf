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
the `%.9f` text of its value, written by one helper, `_rows_text`, as bytes
into one buffer that starts with the output's header: digits come from integer
lookup tables, and a block holding a value that rounds to 1000 or more, is not
finite or lies near a rounding tie is printed with `%` instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
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


def _flag_type(convert, accept, expected: str):
    """An argparse type: convert(raw) if that succeeds and accept takes it;
    otherwise an error that says what the flag expects."""
    def parse(raw: str):
        try:
            value = convert(raw)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
    return parse


_positive_int = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
_seed = _flag_type(int, lambda v: 0 <= v <= MASK64, "an integer in 0 .. 2**64 - 1")  # as SampleSpec requires
_positive_float = _flag_type(float, lambda v: v > 0 and math.isfinite(v), "a finite number > 0")


def _read_source(source_arg: str) -> str:
    """Description text for a path or builtin:<name> argument."""
    try:
        if source_arg.startswith("builtin:"):
            return fixture_source(source_arg[len("builtin:"):])
        with open(source_arg, encoding="utf-8-sig") as handle:  # drops a leading BOM
            return handle.read()
    except UnicodeDecodeError:
        raise _Failure(EXIT_PARSE, f"{source_arg}: not valid UTF-8 text") from None
    except ValueError as exc:  # an unknown fixture name
        raise _Failure(EXIT_USAGE, str(exc)) from None
    except OSError as exc:  # a packaged fixture's file may be missing too
        raise _Failure(EXIT_IO, f"cannot read {source_arg}: {exc.strerror or exc}") from None


def _print(text: str) -> None:
    """Write text to stdout and flush it; a failed write is exit 5. What
    stays buffered then goes to os.devnull, so the interpreter's own flush
    at exit prints nothing more."""
    if sys.stdout is None:  # the process started with no stdout
        raise _Failure(EXIT_IO, "cannot write stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _Failure(EXIT_IO, f"cannot write stdout: {exc.strerror or exc}") from None


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
    model, diags = parse_robot(_read_source(source_arg))
    _report(diags, source_arg)
    if model is None:
        raise _Failure(_classify(diags), f"{source_arg}: robot description rejected")
    return model


def _write_out(path: str, data: bytes) -> None:
    """Write data to path, or to the file that a symlink at path names. A new
    or regular file is replaced atomically (temp file + rename); any other kind
    (a FIFO, a device) is written in place, where a rename would replace it."""
    target, tmp = os.path.realpath(path), None
    try:
        try:
            in_place = not stat.S_ISREG(os.stat(target).st_mode)
        except FileNotFoundError:
            in_place = False
        if not in_place:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=os.path.basename(target) + ".")
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
        with open(target, "wb") if in_place else os.fdopen(fd, "wb") as handle:
            handle.write(data)
        if not in_place:
            os.replace(tmp, target)
    except BaseException as exc:  # MemoryError or KeyboardInterrupt too: no temp file stays
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if not isinstance(exc, OSError):
            raise
        raise _Failure(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}") from None


@functools.cache
def _digit_words():
    """The lookup words of _digit_text, built on its first call.

    Four 4-byte words spell one `%.9f` value and what follows it: sign and
    integer digits ("-ddd", indexed by the integer part, + 1000 when
    negative), ".ddd", "ddd" and "ddd" + separator. NUL bytes stand for an
    absent sign, leading zeros and the filler after the middle group; the
    formatter deletes them. Returns the tables (head, point, middle, {sep: last}).
    """
    import numpy as np

    def words(*columns):  # one native uint32 per entry, its bytes the columns' codes
        return np.stack(np.broadcast_arrays(*columns), axis=1).astype(np.uint8).view(np.uint32).ravel()

    n = np.arange(1000)
    digits = (48 + n // 100, 48 + n // 10 % 10, 48 + n % 10)
    integer = (np.where(n >= 100, digits[0], 0), np.where(n >= 10, digits[1], 0), digits[2])
    head = np.concatenate([words(0, *integer), words(ord("-"), *integer)])
    last = {sep: words(*digits, ord(sep)) for sep in ", \n"}
    return head, words(ord("."), *digits), words(*digits, 0), last


def _digit_text(block, sep: str):
    """ASCII `%.9f` lines of a 2-D float64 block built from integer digits, or None.

    k = rint(|x| * 1e9) is x's nine-decimal rounding unless the exact product
    lies near a tie, where the rounding of the product may decide it: such a
    block gives None, as does one with a value that rounds to 1000 or more or
    is not finite. sep is "," or " ".
    """
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan and 1e300 fail the range test
        scaled = np.abs(block) * 1e9
        k = np.rint(scaled)
        if not (k < 1e12).all():
            return None
    # rounding the product moved it by at most scaled * 2**-53 (exact, like the
    # distance to the nearest half-integer, as scaled < 2**40)
    if (np.abs(np.abs(scaled - k) - 0.5) <= scaled * 2.0 ** -53).any():
        return None
    k = k.astype(np.intp)  # split with // and a product: np.divmod is several times slower
    thousands = k // 1000
    last = k - thousands * 1000
    millions = thousands // 1000
    middle = thousands - millions * 1000
    head = millions // 1000
    point = millions - head * 1000
    head += (block < 0) * 1000  # -0.0 is not < 0, so it prints as 0.000000000
    head_words, point_words, middle_words, last_words = _digit_words()
    words = np.empty(block.shape + (4,), np.uint32)
    np.take(head_words, head, out=words[:, :, 0])
    np.take(point_words, point, out=words[:, :, 1])
    np.take(middle_words, middle, out=words[:, :, 2])
    np.take(last_words[sep], last[:, :-1], out=words[:, :-1, 3])
    np.take(last_words["\n"], last[:, -1], out=words[:, -1, 3])
    return words.tobytes().translate(None, b"\0")


def _rows_text(head: str, values, sep: str) -> bytearray:
    """head as UTF-8, then one `%.9f` line per row of a 2-D float64 array,
    values joined by sep, in one buffer.

    Each block of workspace._BLOCK rows is built from integer digits by
    _digit_text or, where that declines, by one % operation on one format
    string; + 0.0 folds negative zero into "0.000000000".
    """
    row_fmt = sep.join(["%.9f"] * values.shape[1]) + "\n"
    text = bytearray(head.encode("utf-8"))
    for start in range(0, values.shape[0], _BLOCK):
        block = values[start:start + _BLOCK]
        digits = _digit_text(block, sep)
        if digits is None:
            block = block + 0.0
            digits = ((row_fmt * len(block)) % tuple(block.ravel().tolist())).encode()
        text += digits
    return text


def _ply_text(cloud) -> bytearray:
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
    return _rows_text("\n".join(lines) + "\n", cloud.points, " ")


def _cmd_validate(args) -> int:
    _, diags = parse_robot(_read_source(args.robot))
    _report(diags, args.robot)
    return _classify(diags)


def _cmd_fk(args) -> int:
    model = _require_model(args.robot)
    try:
        q = [float(tok) for tok in args.q.split(",")]
    except ValueError:
        raise _Failure(EXIT_USAGE, f"--q expects comma-separated numbers, got {args.q!r}") from None
    movable = model.movable_rows
    if args.degrees and len(q) == len(movable):  # otherwise forward_kinematics refuses the count
        q = [math.radians(v) if row.kind == REVOLUTE else v
             for row, v in zip(movable, q)]
    try:
        T = forward_kinematics(model, q)
    except KinematicsError as exc:
        raise _Failure(EXIT_FK_DOMAIN, str(exc)) from None
    _print((_rows_text("", T, " ") + _rows_text("", T[None, :3, 3], " ")).decode())
    return EXIT_OK


def _cmd_workspace(args) -> int:
    model = _require_model(args.robot)
    cloud = generate_cloud(model, SampleSpec(n=args.samples, seed=args.seed))
    data = _rows_text("x,y,z\n", cloud.points, ",") if args.format == "csv" else _ply_text(cloud)
    _write_out(args.out, data)
    return EXIT_OK


def _cmd_project(args) -> int:
    model = _require_model(args.robot)
    cloud = generate_cloud(model, SampleSpec(n=args.samples, seed=args.seed))
    _write_out(args.out, _rows_text("u,v\n", project(cloud, args.plane), ","))
    return EXIT_OK


def _cmd_volume(args) -> int:
    model = _require_model(args.robot)
    cloud = generate_cloud(model, SampleSpec(n=args.samples, seed=args.seed))
    try:
        text = json.dumps(summarize(cloud, args.voxel), allow_nan=False)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from None
    _print(text + "\n")
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
    if "numpy" not in sys.modules:  # no BLAS call here: keep OpenBLAS's idle threads off the sampler's CPUs
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
