"""Error bars from simulated covariance reconstruction.

Runs the measurement protocol at increasing sample sizes and compares the
reconstructed steering values (mean +/- std over trials) against the
analytic ones.
"""

import argparse

from ghz_steering import GhzConfig, build_state, reconstruct_trials, steering_report

SHOW = ("A->BC", "BC->A", "B->AC")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eta", type=float, default=1.0)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--sizes", type=int, nargs="+", default=[2000, 20_000, 200_000])
    args = ap.parse_args()
    if args.trials < 2:
        ap.error(f"--trials must be at least 2 for a standard deviation, got {args.trials}")
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")
    if min(args.sizes) < 2:
        ap.error(f"every --sizes value must be at least 2, got {min(args.sizes)}")
    try:
        state = build_state(GhzConfig(eta=args.eta))
    except ValueError as exc:
        ap.error(str(exc))

    analytic = steering_report(state)
    print("direction  " + "".join(f"{f'n={n}':>22}" for n in args.sizes) + f"{'analytic':>14}")

    rows = {d: [] for d in SHOW}
    for n in args.sizes:
        try:
            stats = reconstruct_trials(state, n_samples=n, n_trials=args.trials, seed=args.seed)
        except RuntimeError as exc:
            print(f"n={n}: {exc}")
            for d in SHOW:
                rows[d].append("rejected")
            continue
        note = "" if not stats.rejected else f" ({len(stats.rejected)} trial(s) rejected)"
        for d in SHOW:
            rows[d].append(f"{stats.mean[d]:.5f} +/- {stats.std[d]:.5f}{note}")

    for d in SHOW:
        cells = "".join(f"{cell:>22}" for cell in rows[d])
        print(f"{d:<11}{cells}{analytic[d]:>14.6f}")


if __name__ == "__main__":
    main()
