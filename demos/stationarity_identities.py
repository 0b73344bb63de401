#!/usr/bin/env python3
"""Check the two stationarity identities on a computed minimizer.

Inner variations (scalar test functions) balance the bending form against
an integral over the zero curve; domain variations (vector fields) balance
the transported bending energy against the transported measure. Both are
quadrature statements about the SAME minimizer, so their residuals are a
direct audit of the free boundary the solver found.

Usage: python3 demos/stationarity_identities.py
"""

from anisoplate import (assemble_operator, build_domain, bump_bank,
                        disk_shape, domain_variation_residual, el_residual,
                        extract_nodal, make_field, measure_density, minimize)

RES = 129


def main():
    fld = make_field("identity")
    dom = build_domain(disk_shape(1.0), RES)
    op = assemble_operator(fld, dom)
    state = minimize(op, 0.05)
    nod = extract_nodal(dom, state.u)
    bank = bump_bank(dom, nod)
    print("resolution %d, zero curve length %.4f" % (RES, nod.length))

    print("\ninner variations (5 scalar windows riding the curve):")
    dens = measure_density(dom, state.u, nod)
    for k, rec in enumerate(el_residual(op, state, dens, bank.scalars)):
        print("  #%d  bending side %+.5f  curve side %+.5f  rel %.4f"
              % (k, rec.lhs, rec.rhs, rec.rel))

    print("\ndomain variations (5 vector windows on the same centres):")
    for k, rec in enumerate(domain_variation_residual(op, state, dens,
                                                      bank.pushes)):
        print("  #%d  energy side %+.5f  measure side %+.5f  rel %.4f"
              % (k, rec.lhs, rec.rhs, rec.rel))

    print("\nresiduals tighten under refinement; the acceptance battery "
          "pins the rates.")


if __name__ == "__main__":
    main()
