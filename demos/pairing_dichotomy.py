#!/usr/bin/env python3
"""Annulus-by-annulus Hessian splitting around a fourth-order column source:
the coefficient-adapted pairing keeps the remainder subordinate, the naive
trace-matched pairing does not.

Usage: python3 demos/pairing_dichotomy.py

Runs the constant diagonal field diag(2,1) on the unit disk at resolution
257, in under a second on a 2-core machine. The remainder/singular ratio
sequence is printed from the coarsest annulus to the finest; the
structural question is whether it keeps shrinking.
"""

import numpy as np

from anisoplate import (assemble_operator, build_domain, disk_shape,
                        frehse_residual, greens_column_L2, make_field)


def main():
    fld = make_field("diag(2,1)")
    dom = build_domain(disk_shape(1.0), 257)
    op = assemble_operator(fld, dom)
    col = greens_column_L2(op, dom.center_ij)

    for pairing in ("inverse", "trace_identity"):
        rep = frehse_residual(col, pairing=pairing)
        order = np.argsort(rep.radii)[::-1]
        print("pairing = %s" % pairing)
        print("  annulus   sup singular   sup remainder   ratio")
        for k in order:
            print("  r=%-7.4f %12.5f %14.5f %8.4f"
                  % (rep.radii[k], rep.sup_singular[k],
                     rep.sup_remainder[k], rep.ratios()[k]))
        rr = rep.ratios()
        fin = rr[np.argmin(rep.radii)] / rr[np.argmax(rep.radii)]
        verdict = "subordinate" if fin <= 0.5 else "NOT subordinate"
        print("  finest/coarsest ratio quotient: %.3f -> remainder %s\n"
              % (fin, verdict))


if __name__ == "__main__":
    main()
