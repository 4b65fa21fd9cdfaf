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
be finite floats once converted.

Parsing never raises on bad input: it reports Diagnostics with stable
codes and 1-based line/column positions, and returns a model only when
no error was found.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
import re
from dataclasses import dataclass

from .kinematics import JOINT_KINDS, PRISMATIC, DHRow, RobotModel, _reach_sums

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


@dataclass(frozen=True)
class Diagnostic:
    """One parse/validation finding, addressable in the source text."""

    severity: str  # "error" or "warning"
    line: int  # 1-based
    column: int  # 1-based
    message: str
    code: str  # stable identifier, safe to assert on in tests

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message} [{self.code}]"


def _err(line, column, message, code):
    return Diagnostic(ERROR, line, column, message, code)


def _warn(line, column, message, code):
    return Diagnostic(WARNING, line, column, message, code)


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


class _JointLine:
    """Raw field values of one joint line, before unit conversion."""

    __slots__ = ("index", "line", "column", "kind", "values", "cols")

    def __init__(self, index, line, column):
        self.index = index
        self.line = line
        self.column = column  # column of the index token
        self.kind = None
        self.values = {}  # field name -> float
        self.cols = {}  # field name -> 1-based column of the token


def parse_robot(source: str):
    """Parse description text into (RobotModel, diagnostics).

    The model is None iff the diagnostics contain at least one error;
    warnings may accompany a successful parse. Diagnostics are sorted by
    position.
    """
    diags = []
    name = None
    units = None
    joints = []

    for lineno, raw in enumerate(_LINE_END_RE.split(source), start=1):
        text = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(text)]
        if not tokens:
            continue
        word, col = tokens[0]

        if word == "robot":
            if name is not None:
                diags.append(_err(lineno, col, "duplicate 'robot' directive", "duplicate-directive"))
                continue
            m = _ROBOT_RE.match(text)
            if m is None or not m.group(1):
                at = tokens[1][1] if len(tokens) > 1 else col
                diags.append(_err(lineno, at, 'expected: robot "<name>"', "bad-robot-name"))
                name = ""  # header was present, just malformed
            else:
                name = m.group(1)

        elif word == "units":
            if units is not None:
                diags.append(_err(lineno, col, "duplicate 'units' directive", "duplicate-directive"))
                continue
            if len(tokens) != 2 or tokens[1][0] not in UNIT_FACTORS:
                at = tokens[1][1] if len(tokens) > 1 else col
                diags.append(_err(lineno, at, "expected: units <m|cm|mm>", "bad-units"))
                units = "m"  # placeholder; an error is already recorded
            else:
                units = tokens[1][0]

        elif word == "joint":
            if not joints:  # the headers must come before the first joint line
                for header, value in (("robot", name), ("units", units)):
                    if value is None:
                        diags.append(_err(lineno, col, f"joint before '{header}' header", f"missing-{header}-header"))
            joints.append(_parse_joint_line(tokens, lineno, col, diags))

        else:
            diags.append(_err(lineno, col, f"unknown directive {word!r}", "unknown-directive"))

    if not joints:
        for header, value in (("robot", name), ("units", units)):
            if value is None:
                diags.append(_err(1, 1, f"missing '{header}' header", f"missing-{header}-header"))

    joints = [j for j in joints if j is not None]
    if not joints:
        diags.append(_err(1, 1, "file declares no joints", "no-joints"))
    _check_indices(joints, diags)

    if not any(d.severity == ERROR for d in diags):
        if all(j.values.get("fixed") is not None for j in joints):
            first = joints[0]
            diags.append(_err(first.line, first.column,
                              "every joint is fixed; at least one degree of freedom is required",
                              "all-joints-fixed"))

    if any(d.severity == ERROR for d in diags):
        return None, sorted(diags, key=lambda d: (d.line, d.column, d.code))

    factor = UNIT_FACTORS[units]
    joints.sort(key=lambda j: j.index)
    rows = []
    for j in joints:
        v = j.values
        lo, hi, fixed = v["min"], v["max"], v.get("fixed")
        if j.kind == PRISMATIC:
            lo, hi = lo * factor, hi * factor
            if fixed is not None:
                fixed *= factor
        if not math.isfinite(hi - lo):
            diags.append(_err(j.line, j.cols["min"],
                              f"joint {j.index}: max - min overflows a float", "range-overflow"))
        rows.append(DHRow(
            kind=j.kind,
            a=v["a"] * factor,
            alpha=v["alpha"],
            d=v["d"] * factor,
            theta_offset=v["offset"],
            limits=(lo, hi),
            fixed=fixed,
        ))
    model = RobotModel(name=name, rows=tuple(rows))
    # report the joint at which reach_bound's running sum first overflows
    j = next((j for j, total in zip(joints, _reach_sums(rows)) if not math.isfinite(total)), None)
    if j is not None:
        diags.append(_err(j.line, j.column, f"joint {j.index}: the sum of link lengths "
                          "overflows a float", "range-overflow"))
    if any(d.severity == ERROR for d in diags):
        model = None
    return model, sorted(diags, key=lambda d: (d.line, d.column, d.code))


def _parse_joint_line(tokens, lineno, col, diags):
    """Parse one `joint ...` line; appends diagnostics, returns a _JointLine
    record (or None when even the index is unusable)."""
    if len(tokens) < 2 or not re.fullmatch(r"\d+", tokens[1][0]) or int(tokens[1][0]) < 1:
        at = tokens[1][1] if len(tokens) > 1 else col
        diags.append(_err(lineno, at, "expected a positive integer joint index", "bad-joint-index"))
        return None
    rec = _JointLine(int(tokens[1][0]), lineno, tokens[1][1])

    for tok, tcol in tokens[2:]:
        key, eq, raw = tok.partition("=")
        if not eq or not raw:
            diags.append(_err(lineno, tcol, f"expected key=value, got {tok!r}", "malformed-field"))
            continue
        syntax = _FIELD_SYNTAX.get(key)
        if syntax is None:
            diags.append(_err(lineno, tcol, f"unknown field {key!r}", "unknown-field"))
            continue
        if key in rec.cols:
            diags.append(_err(lineno, tcol, f"duplicate field {key!r}", "duplicate-field"))
            continue
        rec.cols[key] = tcol
        if syntax == "kind":
            if raw in JOINT_KINDS:
                rec.kind = raw
            else:
                diags.append(_err(lineno, tcol, f"joint type must be revolute or prismatic, got {raw!r}", "bad-kind"))
        else:
            value = _parse_value(raw, allow_pi=(syntax == "angle"))
            if value is None:
                code = "bad-angle" if syntax == "angle" else "bad-number"
                what = "number or pi fraction" if syntax == "angle" else "number"
                diags.append(_err(lineno, tcol, f"{key}: expected a finite {what}, got {raw!r}", code))
            else:
                rec.values[key] = value

    for key in _REQUIRED_FIELDS:
        if key not in rec.cols:
            diags.append(_err(lineno, rec.column, f"joint {rec.index}: missing field {key!r}", "missing-field"))

    v = rec.values
    if "min" in v and "max" in v:
        if v["min"] > v["max"]:
            diags.append(_err(lineno, rec.cols["min"],
                              f"min {v['min']!r} > max {v['max']!r}", "limits-inverted"))
        else:
            if "fixed" in v and not v["min"] <= v["fixed"] <= v["max"]:
                diags.append(_err(lineno, rec.cols["fixed"],
                                  f"fixed value {v['fixed']!r} outside limits", "fixed-out-of-range"))
            if v["min"] == v["max"]:
                diags.append(_warn(lineno, rec.cols["min"],
                                   f"joint {rec.index}: min == max, joint cannot move", "zero-span-limits"))

    return rec


def _check_indices(joints, diags):
    seen = {}
    for j in joints:
        if j.index in seen:
            diags.append(_err(j.line, j.column, f"duplicate joint index {j.index}", "duplicate-joint-index"))
        else:
            seen[j.index] = j
    expected = range(1, len(seen) + 1)
    if sorted(seen) != list(expected):
        # n distinct indices not equal to 1..n means at least one lies outside
        j = next(seen[i] for i in sorted(seen) if i not in expected)
        diags.append(_err(j.line, j.column,
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
