"""Cone equivalence sweep: project real-fit cones with the package and with `tests/oracles.cone_project_cholesky`,
the per-call Cholesky projection on raw rows, and print how far they differ.

    python tests/tools/cone_sweep.py [--reps 38] [--seed 0] [--rtol 1e-10]

Each replication draws design-I samples (n in {200, 500, 2 000}, xi 0.5, h = sin with c_a from 0 to 3) from the
package's own streams, fits every J from the order's minimum to 8 at K = 4 J on B-splines of order 3 and 4, and
projects the unrestricted coefficients onto each of the four shape cones twice: as the structural scan does, through
`fit_restricted_cone` on the fit's own factor of Psi' Omega Psi, and through `cone_project(v, g, m)`, which
factors g itself. Both must give the oracle's active set exactly and its beta within rel --rtol. The default
draws 38 x 132 = 5 016 cones. It prints the counts, the cones the shortcut left alone, and the largest relative
beta difference of each path, and exits 1 on any active-set mismatch or any beta beyond --rtol, else 0. It
needs nothing beyond numpy, the standard library and the package; tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from npivtest.basis import BasisSpec, deriv_constraints, eval_design  # noqa: E402
from npivtest.dgp import DesignConfig, HSpec, generate  # noqa: E402
from npivtest.npiv import cone_project, fit_from_design, fit_restricted_cone  # noqa: E402
from npivtest.randdist import RngStream  # noqa: E402
from oracles import cone_project_cholesky  # noqa: E402

SIZES, ORDERS = (200, 500, 2000), (3, 4)
SHAPES = ("decreasing", "increasing", "convex", "concave")


def sweep(reps: int, seed: int, rtol: float) -> int:
    cones = feasible = mismatches = 0
    worst = {"scan": 0.0, "cone_project": 0.0}
    for rep in range(reps):
        for size_index, n in enumerate(SIZES):
            h = HSpec("sin", c_a=3.0 * rep / max(reps - 1, 1))
            data = generate(DesignConfig("I", n, 0.5, h, RngStream(seed, rep * len(SIZES) + size_index)))
            for order in ORDERS:
                for j in range(max(3, order), 9):
                    spec = BasisSpec("bspline", j, order)
                    psi = eval_design(spec, data.x)
                    fit = fit_from_design(psi, eval_design(BasisSpec("bspline", 4 * j, order), data.w))
                    beta = fit.coefficients(data.y)
                    for shape in SHAPES:
                        m = deriv_constraints(spec, shape)
                        expected, expected_active = cone_project_cholesky(beta, fit.gram_weighted, m)
                        feasible += np.array_equal(expected, beta)
                        scan = fit_restricted_cone(fit, m, beta, psi, data.y)
                        paths = {"scan": (scan.beta_r, scan.active_set),
                                 "cone_project": cone_project(beta, fit.gram_weighted, m)}
                        for name, (got, active) in paths.items():
                            rel = float(np.linalg.norm(got - expected) / max(np.linalg.norm(expected), 1e-300))
                            worst[name] = max(worst[name], rel)
                            if not np.array_equal(active, expected_active) or rel > rtol:
                                mismatches += 1
                                print(f"mismatch ({name}): rep {rep} n={n} order {order} J={j} {shape}: "
                                      f"active {list(active)} vs {list(expected_active)}, rel beta {rel:.3e}")
                        cones += 1
    print(f"{cones} cones ({cones - feasible} projected, {feasible} feasible as drawn), {mismatches} mismatches")
    for name, rel in worst.items():
        print(f"largest rel beta difference ({name}): {rel:.3e}")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=38)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rtol", type=float, default=1e-10)
    args = parser.parse_args(argv)
    return sweep(args.reps, args.seed, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
