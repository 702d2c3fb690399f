"""Walk through the three flight modes and their transition matrices.

Shows how the coordinated-turn matrix bends a velocity vector without
changing its magnitude, and how the mode chain mixes over time.
"""

import numpy as np

from immcda.dynamics import (
    TRANSITION_MATRIX,
    TURN_RATE_OFFSET,
    Mode,
    coordinated_turn_matrix,
    evolve_mode_distribution,
    mode_matrix,
    step_truth,
)


def main() -> None:
    np.set_printoptions(precision=4, suppress=True)

    print("=== Coordinated turn matrices ===")
    for omega in (0.0, 0.1, TURN_RATE_OFFSET):
        a = coordinated_turn_matrix(omega, dt=1.0)
        v = a[np.ix_([1, 3], [1, 3])]
        print(f"\nomega = {omega:.4f} rad/s, velocity block:")
        print(v)
        print(f"  |det| = {abs(np.linalg.det(v)):.12f} (rotation, no scaling)")

    print("\n=== Speed is preserved through any turn ===")
    state = np.array([0.0, 120.0, 0.0, 50.0, 0.0])
    speed0 = np.hypot(state[1], state[3])
    for _ in range(8):
        state = step_truth(state, Mode.LEFT_TURN, dt=1.0)
    print(f"speed before {speed0:.6f} m/s, after 8 turning steps "
          f"{np.hypot(state[1], state[3]):.6f} m/s")

    print("\n=== Mode-conditioned matrices ===")
    for mode in Mode:
        a = mode_matrix(mode, dt=1.0)
        # recover the turn rate from the rotation block
        rate = np.arctan2(a[3, 1], a[1, 1])
        print(f"{mode.name:<10} turn rate {rate:+.4f} rad/s")

    print("\n=== Mode chain relaxation ===")
    print("transition matrix rows:")
    print(TRANSITION_MATRIX)
    mu = np.array([1.0, 0.0, 0.0])
    for k in (1, 5, 20, 100):
        out = mu.copy()
        for _ in range(k):
            out = evolve_mode_distribution(out, TRANSITION_MATRIX)
        print(f"after {k:>3} steps from pure straight flight: {out}")


if __name__ == "__main__":
    main()
