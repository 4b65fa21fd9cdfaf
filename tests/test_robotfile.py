"""Description-file parsing, diagnostics, fixtures."""

import math

import numpy as np
import pytest

from dhworkspace import (
    REVOLUTE,
    builtin_fixture,
    fixture_names,
    fixture_source,
    parse_robot,
)
from dhworkspace import robotfile

H = 'robot "T"\nunits m\n'
OK = "joint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n"


def errors(diags):
    return [d for d in diags if d.severity == "error"]


# --- happy path -------------------------------------------------------------

def test_minimal_file_parses():
    model, diags = parse_robot(H + OK)
    assert diags == []
    assert model.name == "T"
    assert len(model.rows) == 1
    assert model.rows[0].kind == REVOLUTE
    assert model.rows[0].limits == (-1.0, 1.0)


def test_robot_name_may_contain_spaces():
    model, _ = parse_robot('robot "Two Words"\nunits m\n' + OK)
    assert model.name == "Two Words"


def test_comments_and_blank_lines_ignored():
    src = ("# heading\n\nrobot \"T\"  # trailing\n\nunits m\n"
           "joint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1 # note\n")
    model, diags = parse_robot(src)
    assert diags == []
    assert model == parse_robot(H + OK)[0]


def test_pi_tokens_are_exact():
    src = H + "joint 1 type=revolute a=0 alpha=-pi d=0 offset=pi/6 min=-pi/180 max=pi\n"
    model, _ = parse_robot(src)
    r = model.rows[0]
    assert r.alpha == -math.pi
    assert r.theta_offset == math.pi / 6
    assert r.limits == (-math.pi / 180, math.pi)


def test_lengths_convert_to_meters():
    src = 'robot "T"\nunits mm\njoint 1 type=revolute a=1500 alpha=0 d=-25 offset=0 min=-1 max=1\n'
    model, _ = parse_robot(src)
    assert model.rows[0].a == 1500 * 0.001
    assert model.rows[0].d == -25 * 0.001


def test_prismatic_limits_and_fixed_are_lengths():
    src = ('robot "T"\nunits cm\n'
           "joint 1 type=prismatic a=0 alpha=0 d=5 offset=pi/2 min=10 max=250 fixed=100\n"
           "joint 2 type=revolute a=0 alpha=0 d=0 offset=0 min=-2 max=2\n")
    model, _ = parse_robot(src)
    p, r = model.rows
    assert p.d == 5 * 0.01
    assert p.limits == (10 * 0.01, 250 * 0.01)
    assert p.fixed == 100 * 0.01
    assert p.theta_offset == math.pi / 2  # angles never scale
    assert r.limits == (-2.0, 2.0)  # revolute limits are radians, not scaled


def test_scientific_notation_accepted():
    src = H + "joint 1 type=revolute a=4.5e-2 alpha=0 d=+1E1 offset=0 min=-1 max=1\n"
    model, _ = parse_robot(src)
    assert model.rows[0].a == 4.5e-2
    assert model.rows[0].d == 10.0


# --- diagnostics ------------------------------------------------------------

MALFORMED = [
    ("unknown-directive", H + OK + "wheel 4\n", "unknown-directive", 4, "wheel"),
    ("bad-robot-name", "robot T\nunits m\n" + OK, "bad-robot-name", 1, "T"),
    ("bad-units", 'robot "T"\nunits parsecs\n' + OK, "bad-units", 2, "parsecs"),
    ("duplicate-robot", H + 'robot "U"\n' + OK, "duplicate-directive", 3, "robot"),
    ("duplicate-units", H + "units cm\n" + OK, "duplicate-directive", 3, "units"),
    ("missing-robot-header", "units m\n" + OK, "missing-robot-header", 2, "joint"),
    ("missing-units-header", 'robot "T"\n' + OK, "missing-units-header", 2, "joint"),
    ("bad-joint-index", H + "joint zero type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n",
     "bad-joint-index", 3, "zero"),
    ("zero-joint-index", H + "joint 0 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n",
     "bad-joint-index", 3, "0"),
    ("bad-kind", H + "joint 1 type=spherical a=0 alpha=0 d=0 offset=0 min=-1 max=1\n",
     "bad-kind", 3, "type=spherical"),
    ("malformed-field", H + "joint 1 type=revolute a0 alpha=0 d=0 offset=0 min=-1 max=1\n",
     "malformed-field", 3, "a0"),
    ("unknown-field", H + OK.rstrip() + " mass=3\n", "unknown-field", 3, "mass=3"),
    ("duplicate-field", H + "joint 1 type=revolute a=0 a=1 alpha=0 d=0 offset=0 min=-1 max=1\n",
     "duplicate-field", 3, "a=1"),
    ("missing-field", H + "joint 1 type=revolute a=0 alpha=0 offset=0 min=-1 max=1\n",
     "missing-field", 3, "1"),
    ("bad-number", H + "joint 1 type=revolute a=wide alpha=0 d=0 offset=0 min=-1 max=1\n",
     "bad-number", 3, "a=wide"),
    ("overflowing-number", H + "joint 1 type=revolute a=1e999 alpha=0 d=0 offset=0 min=-1 max=1\n",
     "bad-number", 3, "a=1e999"),
    ("pi-not-a-length", H + "joint 1 type=revolute a=pi alpha=0 d=0 offset=0 min=-1 max=1\n",
     "bad-number", 3, "a=pi"),
    ("bad-angle", H + "joint 1 type=revolute a=0 alpha=tau d=0 offset=0 min=-1 max=1\n",
     "bad-angle", 3, "alpha=tau"),
    ("pi-over-zero", H + "joint 1 type=revolute a=0 alpha=pi/0 d=0 offset=0 min=-1 max=1\n",
     "bad-angle", 3, "alpha=pi/0"),
    ("minus-pi-over-zeros", H + "joint 1 type=revolute a=0 alpha=0 d=0 offset=-pi/00 min=-1 max=1\n",
     "bad-angle", 3, "offset=-pi/00"),
    ("pi-over-float-overflow",
     H + "joint 1 type=revolute a=0 alpha=pi/" + "9" * 400 + " d=0 offset=0 min=-1 max=1\n",
     "bad-angle", 3, "alpha=pi/"),
    ("pi-over-too-many-digits",
     H + "joint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-pi/" + "7" * 5000 + " max=1\n",
     "bad-angle", 3, "min=-pi/"),
    ("duplicate-joint-index", H + OK + OK, "duplicate-joint-index", 4, "1"),
    ("noncontiguous-indices",
     H + OK + "joint 3 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n",
     "noncontiguous-indices", 4, "3"),
    ("limits-inverted", H + "joint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=2 max=1\n",
     "limits-inverted", 3, "min=2"),
    ("fixed-out-of-range", H + OK.rstrip() + " fixed=9\n", "fixed-out-of-range", 3, "fixed=9"),
    ("span-overflow", H + "joint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1e308 max=1e308\n",
     "range-overflow", 3, "min="),
    ("no-joints", H, "no-joints", 1, None),
    ("all-joints-fixed", H + OK.rstrip() + " fixed=0\n", "all-joints-fixed", 3, "1"),
]


@pytest.mark.parametrize("case,source,code,line,token",
                         MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_input_diagnostics(case, source, code, line, token):
    model, diags = parse_robot(source)
    assert model is None
    errs = errors(diags)
    assert errs, f"{case}: expected an error diagnostic"
    hits = [d for d in errs if d.code == code]
    assert hits, f"{case}: no diagnostic with code {code!r} in {diags}"
    diag = hits[0]
    assert diag.line == line
    if token is not None:
        expected_col = source.splitlines()[line - 1].index(token) + 1
        assert diag.column == expected_col


#: characters that str.splitlines breaks at but that end no line of a
#: .robot file; inside a comment they must not start a new line
COMMENT_CHARACTERS = [
    ("vertical-tab", "\x0b"),
    ("form-feed", "\x0c"),
    ("file-separator", "\x1c"),
    ("group-separator", "\x1d"),
    ("record-separator", "\x1e"),
    ("next-line", "\x85"),
    ("line-separator", "\u2028"),
    ("paragraph-separator", "\u2029"),
]


@pytest.mark.parametrize("char", [c for _, c in COMMENT_CHARACTERS],
                         ids=[name for name, _ in COMMENT_CHARACTERS])
def test_comment_characters_do_not_end_a_line(char):
    src = (f'robot "T"  # a{char}next\nunits m\n# c{char}b\n'
           "joint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=1 max=1\n"
           f"joint 2 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1 # {char}fixed=9\n")
    model, diags = parse_robot(src)
    assert model is not None and len(model.rows) == 2
    assert [(d.code, d.line, d.column) for d in diags] == [("zero-span-limits", 4, 48)]


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_end_lines(end):
    src = H + OK + "joint 2 type=revolute a=0 alpha=0 d=0 offset=0 min=2 max=1\n"
    _, want = parse_robot(src)
    _, got = parse_robot(src.replace("\n", end))
    assert [(d.code, d.line, d.column) for d in got] == [("limits-inverted", 4, 48)]
    assert got == want


def test_model_and_error_diagnostics_are_exclusive():
    for _, source, _, _, _ in MALFORMED:
        model, diags = parse_robot(source)
        assert (model is None) == bool(errors(diags))


def test_multiple_errors_reported_in_position_order():
    src = ('robot "T"\nunits bogus\n'
           "joint 1 type=revolute a=nope alpha=0 d=0 offset=0 min=2 max=1\n")
    model, diags = parse_robot(src)
    assert model is None
    codes = [d.code for d in diags]
    assert codes == ["bad-units", "bad-number", "limits-inverted"]
    assert [(d.line, d.column) for d in diags] == sorted((d.line, d.column) for d in diags)


def test_zero_span_is_a_warning_not_an_error():
    src = H + "joint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=1 max=1\n"
    model, diags = parse_robot(src)
    assert model is not None
    assert [d.code for d in diags] == ["zero-span-limits"]
    assert diags[0].severity == "warning"
    assert diags[0].line == 3
    assert diags[0].column == src.splitlines()[2].index("min=1") + 1


def test_diagnostic_str_is_greppable():
    _, diags = parse_robot(H + "joint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=2 max=1\n")
    assert str(diags[0]) == "3:48: error: min 2.0 > max 1.0 [limits-inverted]"


def test_reach_overflow_is_found_in_one_pass(monkeypatch):
    # the joint at which the sum of link lengths overflows is found by one
    # running sum: each row's `a` is read a bounded number of times, not
    # once for every prefix of the chain that holds it
    reads = []

    class CountingRow(robotfile.DHRow):
        def __getattribute__(self, name):
            if name == "a":
                reads.append(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(robotfile, "DHRow", CountingRow)
    k = 200
    joints = [f"joint {i} type=revolute a=1e305 alpha=0 d=0 offset=0 min=-1 max=1\n"
              for i in range(1, k)]
    # 199e305 is finite; adding 1.7e308 is not
    src = H + "".join(joints) + f"joint {k} type=revolute a=1.7e308 alpha=0 d=0 offset=0 min=-1 max=1\n"
    model, diags = parse_robot(src)
    assert model is None
    assert [(d.line, d.code, d.message) for d in diags] == [
        (k + 2, "range-overflow", f"joint {k}: the sum of link lengths overflows a float")]
    assert len(reads) <= 3 * k


def test_revolute_offset_plus_limits_must_be_finite():
    # offset + q is a revolute joint's angle for every q within its limits
    src = H + "joint 1 type=revolute a=0 alpha=0 d=0 offset=1e308 min=0 max=1e308\n"
    model, diags = parse_robot(src)
    assert model is None
    assert [str(d) for d in diags] == [
        "3:39: error: joint 1: offset + min or offset + max overflows a float [range-overflow]"]
    model, diags = parse_robot(src.replace("min=0 max=1e308", "min=-1e308 max=0"))
    assert model is not None and diags == []
    # a prismatic joint's variable adds to d, not to its offset
    model, diags = parse_robot(src.replace("revolute", "prismatic"))
    assert model is not None and diags == []


def test_parser_survives_small_fuzz():
    rng = np.random.default_rng(0)
    alphabet = 'robot units joint type=revolute "x" pi/2 -pi 1.5e3 # \n\t=minmax'
    for _ in range(1000):
        n = int(rng.integers(0, 120))
        source = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
        model, diags = parse_robot(source)
        assert (model is None) == bool(errors(diags))


# --- exact values -------------------------------------------------------------

def test_near_pi_values_stay_decimal():
    # only pi tokens give pi fractions; a decimal one ulp off pi is read
    # as written, not snapped to pi
    almost = math.nextafter(math.pi, 4.0)
    model, diags = parse_robot(H + f"joint 1 type=revolute a=0 alpha={almost!r} d=0 "
                               "offset=0 min=-4 max=4\n")
    assert diags == []
    assert model.rows[0].alpha == almost


def test_awkward_decimals_round_trip():
    # the repr of a parsed value is a token that parses back to the same float
    line = "joint 1 type=revolute a={} alpha={} d={} offset={} min=-8 max=8\n"
    model, _ = parse_robot(H + line.format("0.12345678901234567", "1e-17", "-33.6",
                                           "0.30000000000000004"))
    r = model.rows[0]
    assert r.theta_offset == 0.1 + 0.2
    again, _ = parse_robot(H + line.format(*map(repr, (r.a, r.alpha, r.d, r.theta_offset))))
    assert again == model


# --- fixtures ---------------------------------------------------------------

def test_fixture_names_listing():
    assert fixture_names() == ("smokie", "wam", "wam-code-variant")


def test_unknown_fixture_raises():
    with pytest.raises(ValueError):
        builtin_fixture("laser-arm")
    with pytest.raises(ValueError):
        fixture_source("laser-arm")


def test_builtin_fixture_is_cached():
    assert builtin_fixture("wam") is builtin_fixture("wam")


def test_smokie_constants():
    m = builtin_fixture("smokie")
    assert m.name == "Smokie OUR"
    assert len(m.rows) == 6
    assert m.movable_count == 6
    assert m.rows[1].a == 43 * 0.01
    assert m.rows[2].a == 33.6 * 0.01
    assert [r.alpha for r in m.rows] == [
        math.pi / 2, 0.0, 0.0, math.pi / 2, -math.pi / 2, 0.0]
    assert [r.d for r in m.rows[3:]] == [11.5 * 0.01, 14.5 * 0.01, 11.5 * 0.01]
    assert all(r.limits == (-math.pi, math.pi) for r in m.rows)


def test_wam_constants():
    m = builtin_fixture("wam")
    assert len(m.rows) == 7
    assert m.rows[0].fixed == 0.0
    assert m.movable_count == 6
    assert m.rows[2].a == 0.045 and m.rows[3].a == -0.045
    assert m.rows[2].d == 0.55 and m.rows[4].d == 0.3 and m.rows[6].d == 0.06
    assert [r.limits for r in m.rows] == [
        (-2.6, 2.6), (-2.0, 2.0), (-2.8, 2.8), (-0.9, 3.1),
        (-4.8, 1.3), (-1.6, 1.6), (-2.2, 2.2)]


def test_wam_code_variant_constants():
    m = builtin_fixture("wam-code-variant")
    assert m.rows[0].d == 0.0345
    assert m.rows[0].alpha == math.pi / 2
    assert m.rows[2].a == -0.045 and m.rows[3].a == 0.045
    assert m.rows[1].limits == (-1.9, 1.9)
    assert m.rows[3].limits == (-0.9, 3.14)
    assert m.rows[0].fixed == 0.0
