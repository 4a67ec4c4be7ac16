"""Counting real affine roots on the sphere.

Homogenizing n affine equations in n unknowns gives n homogeneous
equations in n+1 variables (y_0, y_1, ..., y_n), a system on S^n.  Its
finite roots are its zeros off the great sphere y_0 = 0, and
count_affine runs the counting loop on it until, besides separation and
exclusion, every component has a vertex whose certified cap misses
y_0 = 0.  Each component is then one affine root.

The result speaks in terms of the paper's lift: n+1 homogeneous
polynomials in n+2 variables, the homogenized equations and the
auxiliary quadric y_0 u = y_1^2 + ... + y_n^2.  Every affine root yields
an antipodal pair of its zeros, and exactly one extra pair sits at the
poles (0, ..., 0, +-1), so

    #affine roots + 1 = (1/2) #sphere zeros of the lift,

and the reported zeros are the lift's images of the roots, then the poles.
"""

import numpy as np

from spherecount import AffinePolynomial, count_affine, lift_affine
from spherecount.polynomials import evaluate, lifted_poles

for label, coeffs in [("x^2 - 2", {(2,): 1.0, (0,): -2.0}),
                      ("x^2 + 1", {(2,): 1.0, (0,): 1.0}),
                      ("x^3 - x", {(3,): 1.0, (1,): -1.0})]:
    g = AffinePolynomial(1, coeffs)
    lifted = lift_affine([g])
    print(f"{label}: lifted to degrees {lifted.degrees} in {lifted.n_vars} variables")
    for pole in lifted_poles(lifted.n_vars):
        assert np.linalg.norm(evaluate(lifted, pole)) == 0.0
    result, affine_count = count_affine([g], max_t=9)
    print(f"  sphere count = {result.count}  ->  affine roots = {affine_count}"
          f"   (stopped={result.stopped}, eta={result.final_eta})")
    finite = [z.zeta for z in result.zeros if abs(z.zeta[-1]) != 1.0]
    for z in finite:
        # recover the affine root from the projective point
        print(f"    affine root {z[1] / z[0]: .12f}")
    print()
