"""Map the one-way steering window of the lossy GHZ state.

Sweeps the channel efficiency on mode A, records all twelve steering
directions, and locates the efficiency at which the damped mode regains its
collective steering ability.  Writes a CSV and prints a short summary.
"""

import argparse
import csv

from ghz_steering import DIRECTIONS, GhzConfig, build_states, find_threshold, steering_stack
from ghz_steering.network import r_to_squeezing_db


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r", type=float, default=0.339, help="input squeezing (default 0.339)")
    ap.add_argument("--steps", type=int, default=41, help="grid points in [0, 1]")
    ap.add_argument("--output", default="loss_sweep.csv")
    args = ap.parse_args()

    cfg = GhzConfig(r1=args.r, r2=args.r, r3=args.r)
    etas = [k / (args.steps - 1) for k in range(args.steps)]
    g = steering_stack(build_states(cfg, etas)).tolist()  # row k: G of DIRECTIONS at etas[k]

    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eta", *DIRECTIONS])
        for eta, row in zip(etas, g):
            writer.writerow([eta, *row])

    eta_star = find_threshold(cfg, "A->BC", tol=1e-5)
    print(f"r = {args.r} ({r_to_squeezing_db(args.r):.3f} dB)")
    print(f"A->BC activates at eta = {eta_star:.6f}")
    fwd, rev = DIRECTIONS.index("A->BC"), DIRECTIONS.index("BC->A")
    window = [eta for eta, row in zip(etas, g) if row[fwd] == 0 and row[rev] > 0]
    if window:
        print(f"one-way window on the grid: eta in [{min(window)}, {max(window)}]")
    print(f"wrote {args.output} ({len(g)} rows)")


if __name__ == "__main__":
    main()
