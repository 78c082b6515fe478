"""
Fixed-precision trajectory text codec
=====================================

Trajectories cross the model boundary as text. The codec pins every
coordinate to two decimals (round half away from zero) so that
serialize -> parse is the identity on quantized values.
"""

from lmplan import (
    Trajectory,
    TrajectoryParseError,
    Waypoint,
    parse_trajectory,
    quantize,
    serialize_trajectory,
)
from lmplan.codec import DEFAULT_DECIMALS

# (1) Quantization: ties round away from zero, in both signs.
for v in (1.005, -1.005, 23.174999, 2.675):
    print(f"quantize({v!r}) = {quantize(v)}")

# (2) Serialize a 6-step trajectory to the canonical wire form.
t = Trajectory(tuple(Waypoint(0.123 * i, 1.5 * i) for i in range(1, 7)))
text = serialize_trajectory(t)
print("\nwire text:", text)

# (3) Parse it back: exact round trip.
back, _ = parse_trajectory(text)
assert back.waypoints == tuple(
    Waypoint(quantize(w.x), quantize(w.y)) for w in t.waypoints
)
print("round trip ok")

# (4) Parsing is grammar-first but forgiving: the list may be wrapped in
#     prose, and a loose scan over number pairs is the fallback. The second
#     value returned says whether the pairs came from a bracketed list.
wrapped = f"The plan, given traffic, is {text} as requested."
print("wrapped parse ok:", parse_trajectory(wrapped)[0].waypoints == back.waypoints)

loose = (
    "first (1.00,2.00) then (3.00,4.00) and (5.00,6.00), later (7.00,8.00), "
    "(9.00,10.00) and finally (11.00,12.00)"
)
loose_back, bracketed = parse_trajectory(loose)
print("loose parse:", serialize_trajectory(loose_back), "bracketed:", bracketed)

# (5) The parser reads the fixed horizon (DEFAULT_HORIZON_STEPS = 6 pairs);
#     any other count is a TrajectoryParseError naming the count found.
try:
    parse_trajectory("[(1.00,2.00), (3.00,4.00)]")
except TrajectoryParseError as e:
    print("rejected:", e)

# (6) Nothing about the wire format is a setting: the system prompt
#     announces the [(x1,y1), (x2,y2), ...] shape at DEFAULT_DECIMALS decimals.
short = Trajectory((Waypoint(1.2345, -0.5), Waypoint(2, 3)))
print(f"{DEFAULT_DECIMALS} decimals:", serialize_trajectory(short))
