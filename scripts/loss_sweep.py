"""Map the one-way steering window of the lossy GHZ state.

Sweeps the channel efficiency on mode A and prints the efficiency at which
the damped mode regains its collective steering ability, and the grid
points where only BC->A steers.  `ghz-steering sweep --output FILE` writes
the table of all twelve directions.
"""

import argparse

from ghz_steering import DIRECTIONS, GhzConfig, build_states, find_threshold, steering_stack
from ghz_steering.network import r_to_squeezing_db


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r", type=float, default=0.339, help="input squeezing (default 0.339)")
    ap.add_argument("--steps", type=int, default=41, help="grid points in [0, 1], at least 2")
    args = ap.parse_args()
    if args.steps < 2:
        ap.error(f"--steps must be at least 2, got {args.steps}")
    try:
        cfg = GhzConfig(r1=args.r, r2=args.r, r3=args.r)
    except ValueError as exc:
        ap.error(str(exc))

    etas = [k / (args.steps - 1) for k in range(args.steps)]
    g = steering_stack(build_states(cfg, etas)).tolist()  # row k: G of DIRECTIONS at etas[k]

    print(f"r = {args.r} ({r_to_squeezing_db(args.r):.3f} dB)")
    try:
        print(f"A->BC activates at eta = {find_threshold(cfg, 'A->BC', tol=1e-5):.6f}")
    except ValueError:  # G(A->BC) is 0 at every eta: q vanishes, or stays inside the clamp
        print(f"A->BC never activates {'without' if args.r == 0 else 'at this'} squeezing")
    fwd, rev = DIRECTIONS.index("A->BC"), DIRECTIONS.index("BC->A")
    window = [eta for eta, row in zip(etas, g) if row[fwd] == 0 and row[rev] > 0]
    if window:
        print(f"one-way window on the grid: eta in [{min(window)}, {max(window)}]")


if __name__ == "__main__":
    main()
