import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import quantize_by_strings, traj
from lmplan import (
    TrajectoryParseError,
    extract_pairs,
    format_number,
    parse_trajectory,
    quantize,
    serialize_trajectory,
)

finite_coords = st.floats(
    min_value=-200.0, max_value=200.0, allow_nan=False, allow_infinity=False
)


class TestQuantize:
    def test_half_away_from_zero_on_negative_tie(self):
        assert quantize(-0.005, 2) == -0.01
        assert quantize(0.005, 2) == 0.01
        assert quantize(1.005, 2) == 1.01
        assert quantize(-1.005, 2) == -1.01

    def test_plain_rounding(self):
        assert quantize(23.174999, 2) == 23.17
        assert quantize(23.175001, 2) == 23.18
        assert quantize(-2.344, 2) == -2.34
        assert quantize(5.0, 2) == 5.0

    def test_negative_zero_normalizes(self):
        q = quantize(-0.0012, 2)
        assert q == 0.0
        assert math.copysign(1.0, q) == 1.0

    def test_idempotent(self):
        for v in (-3.14159, 0.004999, 17.225, -0.005, 123.456789):
            assert quantize(quantize(v)) == quantize(v)

    def test_decimals_zero_and_three(self):
        assert quantize(2.5, 0) == 3.0
        assert quantize(-2.5, 0) == -3.0
        assert quantize(0.0004999, 3) == 0.0
        assert quantize(0.0005, 3) == 0.001

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                quantize(bad)

    @given(finite_coords, st.integers(min_value=0, max_value=4))
    @settings(max_examples=300, deadline=None)
    def test_matches_string_arithmetic_oracle(self, v, decimals):
        assert quantize(v, decimals) == quantize_by_strings(v, decimals)

    def test_tie_literals_match_oracle(self):
        for v in (2.675, -2.675, 0.125, -0.125, 1.115, 0.045, -0.045, 99.995):
            assert quantize(v, 2) == quantize_by_strings(v, 2)


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
        parsed = parse_trajectory(serialize_trajectory(t), 3)
        assert [(w.x, w.y) for w in parsed.waypoints] == [
            (w.x, w.y) for w in t.waypoints
        ]

    @given(st.lists(st.tuples(finite_coords, finite_coords), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, points):
        t = traj(points)
        parsed = parse_trajectory(serialize_trajectory(t), len(points))
        assert [(w.x, w.y) for w in parsed.waypoints] == [
            (quantize(x), quantize(y)) for x, y in points
        ]

    def test_prose_around_the_list_is_ignored(self):
        text = "The plan is:\nTrajectory: [(1.00,2.00), (3.00,4.00)] as requested."
        parsed = parse_trajectory(text, 2)
        assert (parsed.waypoints[1].x, parsed.waypoints[1].y) == (3.0, 4.0)

    def test_last_right_length_list_wins(self):
        text = "[(9.00,9.00), (8.00,8.00)] then final [(1.00,1.00), (2.00,2.00)]"
        parsed = parse_trajectory(text, 2)
        assert parsed.waypoints[0].x == 1.0

    def test_wrong_length_bracket_is_skipped_for_a_right_one(self):
        text = "[(9.00,9.00)] and [(1.00,1.00), (2.00,2.00)]"
        parsed = parse_trajectory(text, 2)
        assert len(parsed) == 2

    def test_loose_pairs_without_brackets(self):
        parsed = parse_trajectory("(1.5,2.5) (3.5,4.5)", 2)
        assert (parsed.waypoints[0].x, parsed.waypoints[0].y) == (1.5, 2.5)

    def test_whitespace_inside_pairs_tolerated(self):
        parsed = parse_trajectory("[( 1.5 , 2.5 ), (3.5,4.5)]", 2)
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
        parsed = parse_trajectory("(1.23456,0.005)", 1)
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
        parsed = parse_trajectory(serialize_trajectory(t), len(points))
        assert [(w.x, w.y) for w in parsed.waypoints] == [
            (quantize(w.x), quantize(w.y)) for w in t.waypoints
        ]
