"""Scan the monogamy residuals over squeezing and loss, flag any violation."""

import argparse
import sys

from ghz_steering import RESIDUAL_KEYS, GhzConfig, sweep_eta


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip())
    ap.add_argument("--r-values", type=float, nargs="+", default=[0.1, 0.339, 0.8])
    ap.add_argument("--eta-steps", type=int, default=101)
    ap.add_argument("--tol", type=float, default=1e-10, help="violation tolerance")
    args = ap.parse_args()

    worst = (0.0, None)
    violations = 0
    etas = [k / (args.eta_steps - 1) for k in range(args.eta_steps)]
    for r in args.r_values:
        for point in sweep_eta(GhzConfig(r1=r, r2=r, r3=r), etas):
            eta, res = point.eta, point.residuals.residuals
            for key in RESIDUAL_KEYS:
                value = res[key]
                if value < worst[0]:
                    worst = (value, (r, eta, key))
                if value < -args.tol:
                    violations += 1
                    print(f"VIOLATION r={r} eta={eta:.3f} {key}: {value:.3e}")

    checked = len(args.r_values) * args.eta_steps * len(RESIDUAL_KEYS)
    print(f"checked {checked} residuals")
    if worst[1] is None:
        print("minimum residual is exactly 0 (no residual ever went negative)")
    else:
        r, eta, key = worst[1]
        print(f"minimum residual {worst[0]:.3e} at r={r} eta={eta:.3f} ({key})")
    if violations:
        print(f"{violations} violations beyond tolerance {args.tol}", file=sys.stderr)
        return 1
    print("monogamy holds everywhere on the scan")
    return 0


if __name__ == "__main__":
    sys.exit(main())
