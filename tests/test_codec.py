import dataclasses
import json
import math
import os
import pickle
import random
import re
import struct
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import quantize_by_strings, traj
import lmplan
from lmplan import (
    ObjectBox,
    TrajectoryParseError,
    Waypoint,
    extract_pairs,
    format_number,
    format_pair,
    parse_trajectory,
    quantize,
    serialize_trajectory,
)
from lmplan.codec import _PAIR_RE, _waypoint, format_waypoints, quantize_literal
from lmplan.scenario import COORD_BOUND

finite_coords = st.floats(
    min_value=-200.0, max_value=200.0, allow_nan=False, allow_infinity=False
)


class TestQuantize:
    def test_half_away_from_zero_on_negative_tie(self):
        assert quantize(-0.005) == -0.01
        assert quantize(0.005) == 0.01
        assert quantize(1.005) == 1.01
        assert quantize(-1.005) == -1.01

    def test_plain_rounding(self):
        assert quantize(23.174999) == 23.17
        assert quantize(23.175001) == 23.18
        assert quantize(-2.344) == -2.34
        assert quantize(5.0) == 5.0

    def test_negative_zero_normalizes(self):
        q = quantize(-0.0012)
        assert q == 0.0
        assert math.copysign(1.0, q) == 1.0

    def test_idempotent(self):
        for v in (-3.14159, 0.004999, 17.225, -0.005, 123.456789):
            assert quantize(quantize(v)) == quantize(v)

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                quantize(bad)

    @given(finite_coords)
    @settings(max_examples=300, deadline=None)
    def test_matches_string_arithmetic_oracle(self, v):
        assert quantize(v) == quantize_by_strings(v, 2)

    def test_tie_literals_match_oracle(self):
        for v in (2.675, -2.675, 0.125, -0.125, 1.115, 0.045, -0.045, 99.995):
            assert quantize(v) == quantize_by_strings(v, 2)


def decimal_quantize(v: float) -> float:
    """``quantize``'s body before its exact-value fast path: Decimal on every call."""
    q = float(Decimal(repr(float(v))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
    return 0.0 if q == 0.0 else q


def _differential_values(rng: random.Random, n: int):
    """n seeded finite values mixing every repr shape quantize can meet."""
    def tie():  # a 5 just past 0 to 4 decimals: 7.5, -3.25, 0.005, ...
        d = rng.randrange(5)
        digits = str(rng.randrange(10**d) + 10**d)[1:]
        return float(f"{rng.choice('-+')}{rng.randrange(10 ** rng.randrange(7))}.{digits}5")

    def exact():
        return rng.randrange(-10**7, 10**7) / 10 ** rng.randrange(5)

    def near_bound():
        v = COORD_BOUND + rng.choice((-1, 1)) * rng.choice((0.0, 0.005, 1e-9, 1e-13))
        return rng.choice((-1, 1)) * v

    def bits():
        while True:
            v = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(v):
                return v

    families = (
        tie,
        exact,
        near_bound,
        bits,
        lambda: rng.choice((0.0, -0.0)),
        lambda: rng.randrange(-10**18, 10**18),  # ints, some past 2**52
        lambda: rng.uniform(-COORD_BOUND, COORD_BOUND),
        lambda: rng.uniform(-1e4, 1e4),
        lambda: rng.choice((-1, 1)) * 10 ** rng.uniform(-300, -4),  # tiny, 1.2e-05 style
        lambda: rng.choice((-1, 1)) * 10 ** rng.uniform(15, 300),  # 2**52 and 1e+16 up
        lambda: float(f"{rng.randrange(-10**5, 10**5)}e{rng.randrange(-24, 24)}"),  # 1e-05
    )
    for _ in range(n):
        yield rng.choice(families)()


def test_quantize_matches_the_decimal_oracle():
    rng = random.Random(20240607)
    for i, v in enumerate(_differential_values(rng, 1_000_000)):
        got = quantize(v)
        assert type(got) is float, v
        try:
            want = decimal_quantize(v)
        except InvalidOperation:  # more than Decimal's 28 digits; v is then an integer
            assert abs(v) >= 2.0**52, v
            want = float(v)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (
            v, got, want,
        )
    assert i == 999_999


def _ulps_away(x: float, k: int) -> float:
    """x with its magnitude moved by k ulps (k may be negative)."""
    bits = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return math.copysign(struct.unpack("<d", struct.pack("<q", bits + k))[0], x)


def _two_decimal_ties(rng: random.Random, n: int):
    """n seeded doubles of (m + 0.5) / 100, |m| log-uniform up to 1e12.

    v * 100 then sits on both sides of the 1e9 edge of ``quantize``'s
    binary branch.
    """
    for _ in range(n):
        m = int(10 ** rng.uniform(0, 12)) * rng.choice((-1, 1))
        yield (m + 0.5) / 100


def _assert_quantize_is_the_decimal_oracle(v: float) -> None:
    got, want = quantize(v), decimal_quantize(v)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (v, got, want)


def test_quantize_within_40_ulps_of_a_decimal_tie():
    rng = random.Random(20261020)
    for tie in _two_decimal_ties(rng, 2_500):
        for k in range(-40, 41):  # k = 0 is the tie's own double
            _assert_quantize_is_the_decimal_oracle(_ulps_away(tie, k))


def test_quantize_a_small_shift_from_a_decimal_tie():
    rng = random.Random(20261021)
    for tie in _two_decimal_ties(rng, 100_000):
        shift = rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -5)
        _assert_quantize_is_the_decimal_oracle(tie + shift)


def _in_the_tie_band(v: float) -> bool:
    """Whether ``quantize(v)`` takes its tie path: v * 100 inside the binary
    band and within 1e-6 of a half."""
    t = v * 100.0
    return -1e9 < t < 1e9 and abs(t - round(t)) >= 0.499999


def _tie_path_values(rng: random.Random):
    """Doubles at and around two-decimal ties, out to the 1e9 edge of the band.

    Every (k + 0.5) / 100 and (10k + 5) / 1000 for small k, then seeded k
    log-uniform up to 1e10, each with both ``nextafter`` neighbours and
    1e-8 of jitter either way, all in both signs.
    """
    ks = list(range(4000)) + [int(10 ** rng.uniform(3, 10)) for _ in range(4000)]
    ks += [10**9 + d for d in range(-300, 300)]  # t on both sides of the band's edge
    for k in ks:
        for tie in ((k + 0.5) / 100, (10 * k + 5) / 1000):
            jitter = rng.uniform(0, 1e-8)
            for v in (tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf),
                      tie + 1e-8, tie - 1e-8, tie + jitter, tie - jitter):
                yield v
                yield -v


def test_quantize_tie_path_is_the_decimal_rule():
    rng = random.Random(20261016)
    on_the_path = 0
    for v in _tie_path_values(rng):
        on_the_path += _in_the_tie_band(v)
        got, want = quantize(v), decimal_quantize(v)
        assert type(got) is float, v
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (v, got, want)
    assert on_the_path > 50_000  # the tie path, not only the binary or Decimal one


@pytest.mark.parametrize(
    "v, want",
    [(0.005, 0.01), (-0.005, -0.01), (2.675, 2.68), (-2.675, -2.68), (0.125, 0.13),
     (1.115, 1.12), (0.004999999, 0.0), (-0.004999999, 0.0), (9999999.995, 10000000.0),
     (0.045, 0.05)],
)
def test_quantize_tie_path_cases(v, want):
    assert _in_the_tie_band(v)
    got = quantize(v)
    assert type(got) is float and got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


class _Meters(float):
    pass


@pytest.mark.parametrize(
    "v, want",
    [(3, 3.0), (-7, -7.0), (True, 1.0), (False, 0.0), (_Meters(2.675), 2.68),
     (_Meters(1.5), 1.5), (np.float64(2.675), 2.68), (np.float64(-0.001), 0.0)],
)
def test_quantize_returns_a_plain_float(v, want):
    got = quantize(v)
    assert type(got) is float and got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


def _float_literals(rng: random.Random, n: int):
    """n seeded JSON float literals of every shape ``quantize_literal`` can meet."""
    def digits(k):
        return f"{rng.randrange(10**k):0{k}d}" if k else ""

    def integer_part(k):  # k digits, no leading zero
        return str(rng.randrange(10 ** (k - 1), 10**k)) if k else "0"

    def sign():
        return rng.choice(("", "-"))

    def fraction(lo, hi):
        return f"{sign()}{integer_part(rng.randrange(4))}.{digits(rng.randint(lo, hi))}"

    def exponent(mantissa):
        return f"{mantissa}{rng.choice('eE')}{rng.choice(('', '+', '-'))}{rng.randrange(400)}"

    families = (
        lambda: fraction(1, 2),  # already exact: the fast path
        lambda: fraction(3, 20),
        lambda: f"{sign()}{integer_part(rng.randrange(4))}.{digits(rng.randrange(4))}5",  # ties
        lambda: rng.choice(("0.0", "-0.0", "-0.00", "0.00", "-0.000", "-0.001", "-0.004", "-0.005")),
        lambda: f"{sign()}{integer_part(rng.randint(16, 400))}.{digits(rng.randint(1, 4))}",
        lambda: exponent(f"{sign()}{integer_part(rng.randint(1, 3))}"),  # 12e-1, 1E400
        lambda: exponent(fraction(1, 6)),  # -3.25e+01
        lambda: f"{sign()}{rng.choice(('1e400', '1E400', '1e-400', '5e-324', '1.7976931348623157e308'))}",
        lambda: repr(rng.uniform(-COORD_BOUND, COORD_BOUND)),
        lambda: repr(rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 300)),  # 1e-05, 1e+16
    )
    for _ in range(n):
        yield rng.choice(families)()


def test_quantize_literal_matches_quantize_of_the_float():
    rng = random.Random(20240818)
    for i, text in enumerate(_float_literals(rng, 1_000_000)):
        got = quantize_literal(text)
        v = float(text)
        want = quantize(v) if math.isfinite(v) else v  # non-finite: left for the caller
        assert type(got) is float, text
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (text, got, want)
    assert i == 999_999


def test_quantize_literal_is_what_json_hands_over():
    text = '[1.5, -0.0, 2.675, 1e400, 3, -1.25E1, 0.125]'
    got = json.loads(text, parse_float=quantize_literal)
    assert got == [1.5, 0.0, 2.68, math.inf, 3, -12.5, 0.13]
    assert math.copysign(1.0, got[1]) == 1.0 and type(got[4]) is int


def format_number_by_quantize(v: float) -> str:
    """``format_number``'s body before its exact-value fast path."""
    return f"{quantize(v):.2f}"


def test_format_number_matches_the_quantize_oracle():
    rng = random.Random(20261018)
    extra = (
        lambda: rng.choice((2.675, -2.675, 1.005, -1.005, 0.125, 99.995, 0.005, -0.005)),
        lambda: -rng.randrange(1, 5000) / 10**6,  # renders as -0.00 before quantize
        lambda: rng.randrange(-10**6, 10**6),  # ints
        lambda: rng.choice((-1, 1)) * rng.randrange(2**52, 2**60),  # beyond the float grid
        lambda: rng.choice((1e300, -1e300, 2.0**52, -(2.0**52), 2.0**52 + 0.5)),
    )
    values = _differential_values(rng, 1_000_000)
    for i, v in enumerate(values):
        if i % 4 == 0:
            v = rng.choice(extra)()
        got, want = format_number(v), format_number_by_quantize(v)
        assert got == want, (v, got, want)
    assert i == 999_999
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_number(bad)


def nested_spec_format_number(v: float) -> str:
    """``format_number`` as it was: the format spec built on every call."""
    text = f"{v + 0.0:.{2}f}"
    if float(text) == v and math.isfinite(v):
        return text
    return f"{quantize(v):.{2}f}"


def format_pair_join(waypoints) -> str:
    """``format_waypoints`` as it was: one ``format_pair`` call per pair."""
    return "[" + ", ".join(format_pair(w.x, w.y) for w in waypoints) + "]"


def _format_values(rng: random.Random, n: int):
    """Quantized and unquantized values, signed zeros, ints and ties."""
    families = (
        lambda: rng.randrange(-20000, 20000) / 100,  # quantized
        lambda: rng.uniform(-COORD_BOUND, COORD_BOUND),
        lambda: rng.choice((0.0, -0.0, -0.001, -0.0049, 0.0049)),
        lambda: rng.randrange(-10**6, 10**6),
        lambda: rng.choice((-1, 1)) * rng.randrange(2**52, 2**60),
        lambda: rng.choice((-1, 1)) * (rng.randrange(10**6) + 0.5) / 100,  # ties
        lambda: rng.choice((2.675, -2.675, 1.005, 0.125, 99.995, 0.005, -0.005)),
        lambda: rng.choice((-1, 1)) * 10 ** rng.uniform(-12, 12),
    )
    for _ in range(n):
        yield rng.choice(families)()


def test_format_number_matches_the_nested_spec_version():
    rng = random.Random(20261022)
    for v in _format_values(rng, 100_000):
        assert format_number(v) == nested_spec_format_number(v), v
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_number(bad)


def test_format_waypoints_matches_the_format_pair_join():
    rng = random.Random(20261023)
    values = _format_values(rng, 200_000)
    for _ in range(10_000):
        waypoints = [Waypoint(next(values), next(values)) for _ in range(rng.randrange(8))]
        assert format_waypoints(waypoints) == format_pair_join(waypoints), waypoints
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_waypoints([Waypoint(0.0, 1.0), Waypoint(1.0, bad)])


def test_waypoint_from_a_pair_is_a_waypoint():
    w = _waypoint((1.5, -0.0))
    assert type(w) is Waypoint and w == Waypoint(1.5, -0.0) and repr(w) == "Waypoint(x=1.5, y=-0.0)"


def extract_pairs_by_quantize(text: str) -> list[tuple[float, float]]:
    """``extract_pairs``' body before it decoded literals with ``quantize_literal``."""
    out = []
    for mx, my in _PAIR_RE.findall(text):
        try:
            out.append((quantize(float(mx)), quantize(float(my))))
        except (ValueError, OverflowError):
            continue
    return out


def _pair_texts(rng: random.Random, n: int):
    """n seeded texts of coordinate pairs in every literal shape the pair pattern takes."""
    def digits(k):
        return f"{rng.randrange(10**k):0{k}d}" if k else ""

    families = (
        lambda: f"{digits(rng.randint(1, 3))}.{digits(rng.randint(1, 2))}",
        lambda: f"{digits(rng.randint(1, 3))}.{digits(rng.randint(3, 20))}",  # long fractions
        lambda: f"{digits(rng.randint(0, 3))}.{digits(rng.randrange(4))}5",  # ties
        lambda: f"{digits(rng.randint(1, 3))}.",  # 5.
        lambda: f".{digits(rng.randint(1, 4))}",  # .5
        lambda: digits(rng.randint(1, 6)),  # 12
        lambda: digits(400) + rng.choice(("", ".", ".5", ".125")),  # past the largest double
        lambda: rng.choice(("0.00", "0.001", "0.004", "0.005", "0", "0.", ".0")),
    )

    def literal():
        return rng.choice(("", "", "-", "+")) + rng.choice(families)()

    for _ in range(n):
        pairs = [
            f"({rng.choice(('', ' '))}{literal()},{rng.choice(('', ' '))}{literal()})"
            for _ in range(rng.randint(0, 6))
        ]
        yield rng.choice(("[", "Trajectory: [", "")) + ", ".join(pairs) + rng.choice(("]", " ok", ""))


def test_extract_pairs_matches_quantize_of_each_literal():
    rng = random.Random(20261019)
    for i, text in enumerate(_pair_texts(rng, 100_000)):
        got, want = extract_pairs(text), extract_pairs_by_quantize(text)
        assert got == want, text
        for a, b in zip(got, want):
            assert [math.copysign(1.0, v) for v in a] == [math.copysign(1.0, v) for v in b], text
            assert type(a[0]) is float and type(a[1]) is float, text
    assert i == 99_999


# The number pattern before it was made unambiguous: ``\d+\.?\d*`` splits a
# digit run in many ways, so a pair that does not close backtracks cubically.
_OLD_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)"
_OLD_PAIR_RE = re.compile(r"\(\s*(" + _OLD_NUMBER + r")\s*,\s*(" + _OLD_NUMBER + r")\s*\)")


def test_pair_pattern_finds_what_the_old_pattern_found():
    rng = random.Random(20261024)
    alphabet = "0123456789" * 3 + "..--++  ,,(()))[]x\n"
    for _ in range(50_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
        assert _PAIR_RE.findall(text) == _OLD_PAIR_RE.findall(text), text
    for _ in range(5_000):  # well-formed pairs among the noise
        text = "".join(
            rng.choice(("(", "(1.25,-0.5)", "( 3., .5 )", "(+7,", "12.", ", ", ")", "x", "-"))
            for _ in range(rng.randrange(12))
        )
        assert _PAIR_RE.findall(text) == _OLD_PAIR_RE.findall(text), text


_PARSE_A_LONG_UNCLOSED_PAIR = """
import time
from lmplan import parse_plan_output
n = 100_000
text = "Trajectory: [(" + "1" * n + ", " + "2" * n + " x]"
start = time.perf_counter()
out = parse_plan_output(text, 6)
print(out.quality.value, out.trajectory is None, time.perf_counter() - start)
"""


def test_a_pair_of_100000_digit_coordinates_that_never_closes_fails_fast():
    # in a child process: a backtracking regex holds the GIL, so only a
    # timeout from outside can stop it
    root = os.path.dirname(os.path.dirname(os.path.abspath(lmplan.__file__)))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _PARSE_A_LONG_UNCLOSED_PAIR], env=env,
                          capture_output=True, text=True, timeout=60)
    quality, no_trajectory, elapsed = proc.stdout.split()
    assert (quality, no_trajectory) == ("failed", "True")
    assert float(elapsed) < 1.0, elapsed


# The point records before they became NamedTuples, kept as the oracle.
OldWaypoint = dataclasses.make_dataclass("Waypoint", [("x", float), ("y", float)], frozen=True)
OldObjectBox = dataclasses.make_dataclass(
    "ObjectBox",
    [("center", OldWaypoint), ("heading", float), ("length", float), ("width", float)],
    frozen=True,
)


class TestPointRecords:
    @staticmethod
    def _pairs(rng):
        """Seeded (new, old) record pairs; repeats and signed zeros make equal ones."""
        nan = math.nan
        pool = (0.0, -0.0, 1.5, -2.25, 1e300, 3, nan)
        for _ in range(2000):
            x, y, h, ln, w = (rng.choice(pool) for _ in range(5))
            yield Waypoint(x, y), OldWaypoint(x, y)
            yield ObjectBox(Waypoint(x, y), h, ln, w), OldObjectBox(OldWaypoint(x, y), h, ln, w)

    def test_repr_hash_and_equality_match_the_dataclasses(self):
        rng = random.Random(7)
        pairs = list(self._pairs(rng))
        for new, old in pairs:
            assert repr(new) == repr(old)
            assert hash(new) == hash(old)
        for (new_a, old_a), (new_b, old_b) in zip(pairs, pairs[2:] + pairs[:2]):
            assert (new_a == new_b) == (old_a == old_b), (old_a, old_b)
            assert (new_a != new_b) == (old_a != old_b), (old_a, old_b)

    def test_fields_keep_their_names_and_order(self):
        assert Waypoint._fields == tuple(f.name for f in dataclasses.fields(OldWaypoint))
        assert ObjectBox._fields == tuple(f.name for f in dataclasses.fields(OldObjectBox))
        box = ObjectBox(Waypoint(1.0, 2.0), 0.5, 4.6, 1.9)
        assert ObjectBox(center=Waypoint(x=1.0, y=2.0), heading=0.5, length=4.6, width=1.9) == box
        assert (box.center.x, box.center.y, box.heading, box.length, box.width) == (
            1.0, 2.0, 0.5, 4.6, 1.9,
        )

    @pytest.mark.parametrize("record, field_name", [
        (Waypoint(1.0, 2.0), "x"),
        (Waypoint(1.0, 2.0), "y"),
        (ObjectBox(Waypoint(1.0, 2.0), 0.5, 4.6, 1.9), "center"),
        (ObjectBox(Waypoint(1.0, 2.0), 0.5, 4.6, 1.9), "width"),
    ])
    def test_fields_cannot_be_assigned(self, record, field_name):
        with pytest.raises(AttributeError):
            setattr(record, field_name, 0.0)

    def test_pickle_round_trips(self):
        for record in (Waypoint(1.25, -0.0), ObjectBox(Waypoint(1.0, 2.0), 0.5, 4.6, 1.9)):
            back = pickle.loads(pickle.dumps(record))
            assert back == record and type(back) is type(record)
            assert repr(back) == repr(record)


class TestFormat:
    def test_fixed_width(self):
        assert format_number(0.0) == "0.00"
        assert format_number(-1.2) == "-1.20"
        assert format_number(23.17) == "23.17"

    def test_negative_zero_prints_unsigned(self):
        assert format_number(-0.0001) == "0.00"

    def test_serialize_canonical_form(self):
        t = traj([(0, 0), (1.25, -0.5)])
        assert serialize_trajectory(t) == "[(0.00,0.00), (1.25,-0.50)]"

    def test_serialize_injective_on_nearby_points(self):
        a = serialize_trajectory(traj([(1.25, 0.0)]))
        b = serialize_trajectory(traj([(1.26, 0.0)]))
        assert a != b


class TestParse:
    def test_exact_round_trip(self):
        t = traj([(1.23, -4.56), (0.0, 0.01), (-200.0, 199.99)])
        parsed, _ = parse_trajectory(serialize_trajectory(t), 3)
        assert [(w.x, w.y) for w in parsed.waypoints] == [
            (w.x, w.y) for w in t.waypoints
        ]

    @given(st.lists(st.tuples(finite_coords, finite_coords), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, points):
        t = traj(points)
        parsed, _ = parse_trajectory(serialize_trajectory(t), len(points))
        assert [(w.x, w.y) for w in parsed.waypoints] == [
            (quantize(x), quantize(y)) for x, y in points
        ]

    def test_prose_around_the_list_is_ignored(self):
        text = "The plan is:\nTrajectory: [(1.00,2.00), (3.00,4.00)] as requested."
        parsed, bracketed = parse_trajectory(text, 2)
        assert (parsed.waypoints[1].x, parsed.waypoints[1].y) == (3.0, 4.0)
        assert bracketed is True

    def test_last_right_length_list_wins(self):
        text = "[(9.00,9.00), (8.00,8.00)] then final [(1.00,1.00), (2.00,2.00)]"
        parsed, _ = parse_trajectory(text, 2)
        assert parsed.waypoints[0].x == 1.0

    def test_wrong_length_bracket_is_skipped_for_a_right_one(self):
        text = "[(9.00,9.00)] and [(1.00,1.00), (2.00,2.00)]"
        parsed, _ = parse_trajectory(text, 2)
        assert len(parsed) == 2

    def test_loose_pairs_without_brackets(self):
        parsed, bracketed = parse_trajectory("(1.5,2.5) (3.5,4.5)", 2)
        assert (parsed.waypoints[0].x, parsed.waypoints[0].y) == (1.5, 2.5)
        assert bracketed is False
        # a bracket holding no pair does not count as a list
        parsed, bracketed = parse_trajectory("[see below] (1,2), (3,4)", 2)
        assert parsed.waypoints == ((1.0, 2.0), (3.0, 4.0))
        assert bracketed is False

    def test_whitespace_inside_pairs_tolerated(self):
        parsed, _ = parse_trajectory("[( 1.5 , 2.5 ), (3.5,4.5)]", 2)
        assert parsed.waypoints[0].y == 2.5

    def test_length_mismatch_reports_counts(self):
        with pytest.raises(TrajectoryParseError) as exc:
            parse_trajectory("[(1.00,2.00), (3.00,4.00)]", 6)
        assert exc.value.found == 2
        assert exc.value.expected == 6
        assert "found 2, expected 6" in str(exc.value)

    def test_empty_and_blank_inputs(self):
        for text in ("", "   \n\t"):
            with pytest.raises(TrajectoryParseError):
                parse_trajectory(text, 6)

    def test_no_pairs_at_all(self):
        with pytest.raises(TrajectoryParseError) as exc:
            parse_trajectory("no coordinates here", 3)
        assert exc.value.found == 0
        assert extract_pairs("<1.0;2.0>") == []  # the delimiters are fixed

    def test_huge_numbers_do_not_crash(self):
        digits = "9" * 400
        with pytest.raises(TrajectoryParseError):
            parse_trajectory(f"[({digits}.0,1.0)]", 1)

    def test_parsed_values_are_quantized(self):
        parsed, _ = parse_trajectory("(1.23456,0.005)", 1)
        assert parsed.waypoints[0].x == 1.23
        assert parsed.waypoints[0].y == 0.01


def test_round_trip_random_spot_check():
    rng = random.Random(42)
    for _ in range(200):
        points = [
            (rng.uniform(-200, 200), rng.uniform(-200, 200))
            for _ in range(rng.randint(1, 8))
        ]
        t = traj(points)
        parsed, _ = parse_trajectory(serialize_trajectory(t), len(points))
        assert [(w.x, w.y) for w in parsed.waypoints] == [
            (quantize(w.x), quantize(w.y)) for w in t.waypoints
        ]
