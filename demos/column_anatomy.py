#!/usr/bin/env python3
"""Dissect a Green's column on the unit disk: the logarithmic core, the
kernel subtraction, and what refinement does to each part.

Usage: python3 demos/column_anatomy.py [resolution]

The resolution must be a power of two plus one (default 129). At 129 and
at 257 the script runs in under a second on a 2-core machine.
"""

import sys

import numpy as np

from anisoplate import (assemble_operator, build_domain, d1_quadrature,
                        disk_shape, greens_column_L, greens_column_L2,
                        log_bound_check, make_field, singular_split)
from anisoplate.greens import gradient_sup, third_diff_sup

INV_2PI = 1.0 / (2.0 * np.pi)


def main():
    res = int(sys.argv[1]) if len(sys.argv) > 1 else 129
    fld = make_field("identity")
    dom = build_domain(disk_shape(1.0), res)
    op = assemble_operator(fld, dom)
    print("unit disk, resolution %d (h = %g)" % (res, dom.h))

    col = greens_column_L(op, dom.center_ij)
    r = np.hypot(dom.X - col.source_xy[0], dom.Y - col.source_xy[1])
    band = (dom.mask == 2) & (r >= 0.2) & (r <= 0.5)
    design = np.vstack([-np.log(r[band]), np.ones(band.sum())]).T
    coef, *_ = np.linalg.lstsq(design, col.values[band], rcond=None)
    print("first-order column: min %.2e (nonnegativity), log slope %.6f "
          "(exact %.6f)" % (col.values.min(), coef[0], INV_2PI))

    consts = d1_quadrature(fld, np.asarray(col.source_xy))
    f1 = singular_split(col, consts)
    raw_sup = gradient_sup(col, col.values)
    tame_sup = gradient_sup(col, f1)
    print("gradient sups: raw %.3f vs kernel-subtracted %.3f (x%.1f smaller)"
          % (raw_sup, tame_sup, raw_sup / tame_sup))

    col4 = greens_column_L2(col)
    f2 = singular_split(col4, consts)
    print("fourth-order column: third-difference sup of the regular part "
          "%.3f" % third_diff_sup(col4, f2))
    rep = log_bound_check(col4)
    print("Hessian log envelope: slope %.4f, worst overshoot %.1f%%"
          % (rep.slope, 100.0 * rep.overshoot))


if __name__ == "__main__":
    main()
