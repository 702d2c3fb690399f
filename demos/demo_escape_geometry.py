"""Show the tangent-escape construction on a few hand-picked encounters.

For each case we print the predicted miss distance of the current track,
the advisory angle, and the miss distance after the deflection.
"""

import math

import numpy as np

from immcda.avoidance import escape_angle, deflect_track


def _miss_distance(b: np.ndarray, c: np.ndarray) -> float:
    """Perpendicular distance from the origin to the ray b -> c."""
    d = c - b
    return abs(b[0] * d[1] - b[1] * d[0]) / math.hypot(d[0], d[1])


def _show(label: str, b: np.ndarray, v: np.ndarray, r_safe: float) -> None:
    c = b + v
    adv = escape_angle(b, c, r_safe, 1)
    state = np.array([b[0], v[0], b[1], v[1], 0.0])
    after = deflect_track(state, adv.theta)
    c2 = b + np.array([after[1], after[3]])
    print(f"\n{label}")
    print(f"  position {b}, velocity {v}, protected radius {r_safe:.0f} m")
    print(f"  miss distance now:      {_miss_distance(b, c):9.1f} m")
    print(f"  advisory: rotate track by {math.degrees(adv.theta):+.2f} deg "
          f"(raw tangent {math.degrees(adv.theta_unclamped):+.2f} deg)")
    print(f"  miss distance after:    {_miss_distance(b, c2):9.1f} m")


def main() -> None:
    r_safe = 3000.0

    _show("Head-on approach",
          np.array([4000.0, 0.0]), np.array([-200.0, 0.0]), r_safe)

    _show("Oblique crossing",
          np.array([3500.0, -1500.0]), np.array([-150.0, 120.0]), r_safe)

    _show("Grazing pass, barely unsafe",
          np.array([5000.0, 0.0]), np.array([-180.0, 95.0]), r_safe)

    # the raw tangent angle exceeds the clamp here, so the advisory
    # saturates and a single deflection cannot fully clear the zone
    _show("Deep incursion, clamp saturates",
          np.array([3100.0, 0.0]), np.array([-250.0, 0.0]), r_safe)


if __name__ == "__main__":
    main()
