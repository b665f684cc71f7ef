"""Write the Groebner workload's generator polynomials to ideals.txt.

The P ideal at level k is generated by the Zhu images P_0..P_3 of the
singular vectors u^0..u^3 together with the kernel polynomials Q0, Q1; the
A ideal by the C2 images A_0..A_3 together with B0, B1, B2.  The extra
generators are read from the curated reference texts at level k and made
integer-primitive, which gives the same polynomials as the report's ideal
construction without building the generic-level session.

Run from the repository root:

    python3 perfbench/make_ideals.py    # rewrite perfbench/ideals.txt

test_perfbench.py checks that the stored file is what this script writes.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
IDEALS_PATH = os.path.join(HERE, "ideals.txt")
LEVELS = (5, 6)


def ideal_generators(ses, which):
    """Generator polynomials of the session level's P or A ideal, in the
    order the report builds them."""
    from w2345 import exprs, reference, singular, zhu

    if which == "P":
        polys, _ = singular.p_polynomials(ses)
        texts, vars = (reference.Q0_TEXT, reference.Q1_TEXT), zhu.W_VARS
    else:
        polys, _ = singular.a_polynomials(ses)
        texts = (reference.B0_TEXT, reference.B1_TEXT, reference.B2_TEXT)
        vars = zhu.X_VARS
    extra = [
        exprs.parse_multipoly(t, vars, ses.domain).primitive_integer()[0]
        for t in texts
    ]
    return polys + extra


def render():
    from w2345.walgebra import Session

    lines = []
    for level in LEVELS:
        ses = Session(level)
        for which in ("P", "A"):
            for i, poly in enumerate(ideal_generators(ses, which)):
                lines.append(f"{which}{level} {i} {poly.format()}")
    return "\n".join(lines) + "\n"


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    text = render()
    with open(IDEALS_PATH, "w") as fh:
        fh.write(text)


if __name__ == "__main__":
    main()
