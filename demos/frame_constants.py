#!/usr/bin/env python3
"""Tour of the coefficient-field layer: metric frames and the circle-average
singularity constant.

Usage: python3 demos/frame_constants.py
"""

import math

import numpy as np

from anisoplate import build_frame, d1_quadrature, m0_matrix, make_field

SPECS = ["identity", "diag(2,1)", "diag(4,9)", "rot(0.7,2,1)", "poly(0.5)"]
POINTS = [(0.0, 0.0), (0.4, -0.3), (-0.8, 0.6)]


def main():
    print("frame orthonormality under the field metric")
    print("-" * 60)
    for spec in SPECS:
        fld = make_field(spec)
        worst = 0.0
        for y in POINTS:
            y = np.asarray(y)
            s = fld.inverse(y)
            mats = build_frame(fld, y)
            gram = np.array([[np.trace(s @ m @ s @ n) for n in mats]
                             for m in mats])
            worst = max(worst, float(np.abs(gram - np.eye(3)).max()))
        print("%-14s max |gram - I| = %.2e over %d points"
              % (spec, worst, len(POINTS)))

    print()
    print("projector onto the frame's first element vs the closed form")
    print("-" * 60)
    for spec in SPECS:
        fld = make_field(spec)
        y = np.array([0.4, -0.3])
        dev = np.abs(m0_matrix(fld, y) - fld.inverse(y) / math.sqrt(2.0)).max()
        print("%-14s |M0 - A^-1/sqrt(2)| = %.2e" % (spec, float(dev)))

    print()
    print("circle-average constant d1 (closed form 4*pi*sqrt(a*b) for diag)")
    print("-" * 60)
    for a, b in ((1, 1), (2, 1), (4, 9)):
        fld = make_field("diag(%d,%d)" % (a, b))
        consts = d1_quadrature(fld, np.zeros(2))
        exact = 4.0 * math.pi * math.sqrt(a * b)
        print("diag(%d,%d): d1 = %.15f, exact = %.15f, err = %.1e"
              % (a, b, consts.d1, exact, abs(consts.d1 - exact)))


if __name__ == "__main__":
    main()
