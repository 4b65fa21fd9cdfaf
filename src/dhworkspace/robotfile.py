"""Robot description files: parsing, validation and the packaged fixtures.

The format is line-oriented. `#` starts a comment running to end of line,
blank lines are ignored. A file holds two header directives followed by one
line per joint:

    robot "<name>"
    units <m|cm|mm>
    joint <i> type=<revolute|prismatic> a=<num> alpha=<angle> d=<num>
              offset=<angle> min=<angle-or-num> max=<angle-or-num>
              [fixed=<angle-or-num>]

(joint lines are single lines; wrapped above for readability). <num> is a
decimal with optional sign and exponent; <angle> additionally accepts
`pi`, `-pi`, `pi/<int>`, `-pi/<int>`. Angles are radians. Lengths are in
the declared unit and converted to meters at load; for prismatic joints
the limits and fixed value are lengths, so they convert too. Every
joint's max - min, and the sum of link lengths that bounds the reach, must
be finite floats once converted, and so must offset + min and offset + max
of a revolute joint, which bound its angle.

Parsing never raises on bad input: it reports Diagnostics with stable
codes and 1-based line/column positions, and returns a model only when
no error was found.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
import re

from .kinematics import JOINT_KINDS, PRISMATIC, DHRow, RobotModel, _Record, _reach_sums

UNIT_FACTORS = {"m": 1.0, "cm": 0.01, "mm": 0.001}

ERROR = "error"
WARNING = "warning"

#: codes for files that are well-formed text but describe a rejected model;
#: any other error code means the text itself is broken
_SEMANTIC_CODES = frozenset({"limits-inverted", "fixed-out-of-range", "all-joints-fixed", "range-overflow"})

_NUM_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\Z")
#: pi/<den> needs den >= 1 and below float's range, so at most 308 digits
_PI_RE = re.compile(r"(-?)pi(?:/0*([1-9]\d{0,307}))?\Z")
_TOKEN_RE = re.compile(r"\S+")
#: the line ends of universal-newlines mode; str.splitlines would also break
#: at form feeds, U+0085, U+2028 and other characters inside a comment
_LINE_END_RE = re.compile(r"\r\n|\r|\n")
_ROBOT_RE = re.compile(r"\s*robot\s+\"([^\"]*)\"\s*\Z")

#: value syntax per joint field: plain number, or number-or-pi-fraction
_FIELD_SYNTAX = {
    "type": "kind",
    "a": "num",
    "alpha": "angle",
    "d": "num",
    "offset": "angle",
    "min": "angle",
    "max": "angle",
    "fixed": "angle",
}
_REQUIRED_FIELDS = ("type", "a", "alpha", "d", "offset", "min", "max")


class Diagnostic(_Record):
    """One parse/validation finding at a 1-based line and column: severity
    "error" or "warning", and code a stable identifier, safe to assert on."""

    __slots__ = _fields = ("severity", "line", "column", "message", "code")

    def __init__(self, severity: str, line: int, column: int, message: str, code: str):
        self._set(severity, line, column, message, code)

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message} [{self.code}]"


def _err(line, column, message, code):
    return Diagnostic(ERROR, line, column, message, code)


def _parse_value(raw: str, allow_pi: bool) -> float | None:
    """Parse a numeric token, optionally accepting pi-fraction forms."""
    if allow_pi:
        m = _PI_RE.match(raw)
        if m:
            value = math.pi / int(m.group(2)) if m.group(2) else math.pi
            return -value if m.group(1) else value
    if _NUM_RE.match(raw):
        value = float(raw)
        if math.isfinite(value):
            return value
    return None


def parse_robot(source: str):
    """Parse description text into (RobotModel, diagnostics).

    The model is None iff the diagnostics contain at least one error;
    warnings may accompany a successful parse. Diagnostics are sorted by
    position.
    """
    diags = []
    name = None
    units = None
    header_lines = {}  # directive -> line of its first occurrence
    first_joint = None  # (line, column) of the first joint line
    joints = []

    for lineno, raw in enumerate(_LINE_END_RE.split(source), start=1):
        text = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(text)]
        if not tokens:
            continue
        word, col = tokens[0]

        if word in ("robot", "units"):
            if word in header_lines:
                diags.append(_err(lineno, col, f"duplicate {word!r} directive", "duplicate-directive"))
                continue
            header_lines[word] = lineno
            at = tokens[1][1] if len(tokens) > 1 else col
            if word == "robot":
                m = _ROBOT_RE.match(text)
                if m is None or not m.group(1):
                    diags.append(_err(lineno, at, 'expected: robot "<name>"', "bad-robot-name"))
                else:
                    name = m.group(1)
            elif len(tokens) != 2 or tokens[1][0] not in UNIT_FACTORS:
                diags.append(_err(lineno, at, "expected: units <m|cm|mm>", "bad-units"))
            else:
                units = tokens[1][0]

        elif word == "joint":
            first_joint = first_joint or (lineno, col)
            joint = _parse_joint_line(tokens, lineno, col, diags)
            if joint is not None:
                joints.append(joint)

        else:
            diags.append(_err(lineno, col, f"unknown directive {word!r}", "unknown-directive"))

    # the headers must come before the first joint line, if there is one
    for header in ("robot", "units"):
        if first_joint is None and header not in header_lines:
            diags.append(_err(1, 1, f"missing '{header}' header", f"missing-{header}-header"))
        elif first_joint is not None and header_lines.get(header, math.inf) > first_joint[0]:
            diags.append(_err(*first_joint, f"joint before '{header}' header", f"missing-{header}-header"))

    if not joints:
        diags.append(_err(1, 1, "file declares no joints", "no-joints"))
    _check_indices(joints, diags)

    model = None
    error_free = not any(d.severity == ERROR for d in diags)
    if error_free and all("fixed" in values for *_, values, _ in joints):
        _, line, column, *_ = joints[0]
        diags.append(_err(line, column,
                          "every joint is fixed; at least one degree of freedom is required",
                          "all-joints-fixed"))
    elif error_free:
        factor = UNIT_FACTORS[units]
        joints.sort(key=lambda j: j[0])
        rows = []
        for index, line, _, kind, v, cols in joints:
            lo, hi, fixed = v["min"], v["max"], v.get("fixed")
            if kind == PRISMATIC:
                lo, hi = lo * factor, hi * factor
                if fixed is not None:
                    fixed *= factor
            elif not (math.isfinite(v["offset"] + lo) and math.isfinite(v["offset"] + hi)):
                # offset + q is the angle of a revolute joint, for every q in its limits
                diags.append(_err(line, cols["offset"], f"joint {index}: offset + min or offset + max "
                                  "overflows a float", "range-overflow"))
            if not math.isfinite(hi - lo):
                diags.append(_err(line, cols["min"],
                                  f"joint {index}: max - min overflows a float", "range-overflow"))
            rows.append(DHRow(
                kind=kind,
                a=v["a"] * factor,
                alpha=v["alpha"],
                d=v["d"] * factor,
                theta_offset=v["offset"],
                limits=(lo, hi),
                fixed=fixed,
            ))
        # report the joint at which reach_bound's running sum first overflows
        j = next((j for j, total in zip(joints, _reach_sums(rows)) if not math.isfinite(total)), None)
        if j is not None:
            index, line, column, *_ = j
            diags.append(_err(line, column, f"joint {index}: the sum of link lengths "
                              "overflows a float", "range-overflow"))
        if not any(d.severity == ERROR for d in diags):
            model = RobotModel(name=name, rows=tuple(rows))
    return model, sorted(diags, key=lambda d: (d.line, d.column, d.code))


def _parse_joint_line(tokens, lineno, col, diags):
    """Parse one `joint ...` line; appends diagnostics, returns the raw
    fields before unit conversion as (index, line, column of the index,
    kind, values, columns), where values and columns map a field name to
    its float and to the 1-based column of its token. Returns None when even
    the index is unusable."""
    if len(tokens) < 2 or not re.fullmatch(r"\d+", tokens[1][0]) or int(tokens[1][0]) < 1:
        at = tokens[1][1] if len(tokens) > 1 else col
        diags.append(_err(lineno, at, "expected a positive integer joint index", "bad-joint-index"))
        return None
    index, column = int(tokens[1][0]), tokens[1][1]
    kind = None
    v = {}
    cols = {}

    for tok, tcol in tokens[2:]:
        key, eq, raw = tok.partition("=")
        if not eq or not raw:
            diags.append(_err(lineno, tcol, f"expected key=value, got {tok!r}", "malformed-field"))
            continue
        syntax = _FIELD_SYNTAX.get(key)
        if syntax is None:
            diags.append(_err(lineno, tcol, f"unknown field {key!r}", "unknown-field"))
            continue
        if key in cols:
            diags.append(_err(lineno, tcol, f"duplicate field {key!r}", "duplicate-field"))
            continue
        cols[key] = tcol
        if syntax == "kind":
            if raw in JOINT_KINDS:
                kind = raw
            else:
                diags.append(_err(lineno, tcol, f"joint type must be revolute or prismatic, got {raw!r}", "bad-kind"))
        else:
            value = _parse_value(raw, allow_pi=(syntax == "angle"))
            if value is None:
                code = "bad-angle" if syntax == "angle" else "bad-number"
                what = "number or pi fraction" if syntax == "angle" else "number"
                diags.append(_err(lineno, tcol, f"{key}: expected a finite {what}, got {raw!r}", code))
            else:
                v[key] = value

    for key in _REQUIRED_FIELDS:
        if key not in cols:
            diags.append(_err(lineno, column, f"joint {index}: missing field {key!r}", "missing-field"))

    if "min" in v and "max" in v:
        if v["min"] > v["max"]:
            diags.append(_err(lineno, cols["min"],
                              f"min {v['min']!r} > max {v['max']!r}", "limits-inverted"))
        else:
            if "fixed" in v and not v["min"] <= v["fixed"] <= v["max"]:
                diags.append(_err(lineno, cols["fixed"],
                                  f"fixed value {v['fixed']!r} outside limits", "fixed-out-of-range"))
            if v["min"] == v["max"]:
                diags.append(Diagnostic(WARNING, lineno, cols["min"],
                                        f"joint {index}: min == max, joint cannot move", "zero-span-limits"))

    return index, lineno, column, kind, v, cols


def _check_indices(joints, diags):
    seen = {}
    for index, line, column, *_ in joints:
        if index in seen:
            diags.append(_err(line, column, f"duplicate joint index {index}", "duplicate-joint-index"))
        else:
            seen[index] = (line, column)
    # n distinct indices, each at least 1, are 1..n unless one exceeds n
    over = [i for i in seen if i > len(seen)]
    if over:
        diags.append(_err(*seen[min(over)],
                          f"joint indices must be contiguous 1..{len(seen)}, got {sorted(seen)}",
                          "noncontiguous-indices"))


_FIXTURE_FILES = {
    "smokie": "smokie.robot",
    "wam": "wam.robot",
    "wam-code-variant": "wam_code_variant.robot",
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURE_FILES))


def fixture_source(name: str) -> str:
    """Raw description text of a packaged fixture."""
    try:
        fname = _FIXTURE_FILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; expected one of {', '.join(fixture_names())}"
        ) from None
    return (importlib.resources.files(__package__) / "fixtures" / fname).read_text("utf-8")


@functools.lru_cache(maxsize=None)
def builtin_fixture(name: str) -> RobotModel:
    """A packaged robot model by name: smokie, wam, or wam-code-variant."""
    model, diagnostics = parse_robot(fixture_source(name))
    if model is None:
        raise RuntimeError(f"packaged fixture {name!r} failed to parse: {diagnostics}")
    return model
