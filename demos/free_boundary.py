#!/usr/bin/env python3
# Minimize bending energy plus positivity measure on the unit disk with a
# small constant trace, then walk through what the minimizer produced: the
# continuation schedule, the energy ledger, the one-sided sign of L_h u,
# and the zero curve with its measure density.
#
# Usage: python3 demos/free_boundary.py
# Runtime: ~10 s at the default resolution 129.

import numpy as np

from anisoplate import (assemble_operator, build_domain, disk_shape,
                        extract_nodal, make_field, measure_density, minimize)
from anisoplate.minimizer import supersolution_check

RES = 129
TRACE = 0.05


def main():
    fld = make_field("identity")
    dom = build_domain(disk_shape(1.0), RES)
    state = minimize(assemble_operator(fld, dom), TRACE)

    stages = sorted({row[0] for row in state.history})
    print("continuation ran %d stages, final width %.2e, converged %s"
          % (len(stages), state.epsilon, state.converged))
    print("energy: bending %.5f + measure %.5f = %.5f"
          % (state.energy_bending, state.energy_measure, state.energy_sharp))
    # comparison candidate: a constant stays positive everywhere and pays
    # the full disk measure pi ~ 3.1416, so dipping negative must win
    print("constant-trace candidate pays >= pi = %.5f" % np.pi)
    print("max L_h u = %.2e (supersolution: must stay <= 0 up to solver "
          "noise)" % supersolution_check(state))
    print("min u = %.4f (the minimizer genuinely dips negative)"
          % state.u.values[dom.mask >= 1].min())

    nod = extract_nodal(state.u)
    print("zero set: %d loop(s), %d negative component(s), length %.4f, "
          "min |grad u| on the curve %.4f"
          % (len(nod.loops), nod.components_negative, nod.length,
             nod.min_grad()))
    dens = measure_density(state.u, nod)
    print("stationarity measure on the curve (weights ds / (2|grad u|)): "
          "total mass %.4f" % dens.total_mass())


if __name__ == "__main__":
    main()
