"""A reference for the iteration engine, its loop built only from the tests'
oracles.

It takes the paper's step in the photon space as plainly as it can be
written: the lift of the start by permanents, the principal logarithm from
the Schur form, the projection as inner products with dense orthonormal
elements, U_{i+1} = U_i expm(v_T) with scipy's ``expm``, and no
re-unitarization. The elements are a dense Gram-Schmidt of the lifted
generators, and ``approximate`` runs on the same basis. It steps in mode
space instead, through the package's own lift, log, projection and
exponential, so the two agree to roundoff only when all of those are right.
"""

import numpy as np
import scipy.linalg

from conftest import dense_image_basis, evolution_matrix_oracle, schur_log
from optiq.homomorphism import second_quantize
from optiq.lie import unitary_algebra_generators


def reference_image_basis(basis):
    """The image basis by dense Gram-Schmidt of the lifted generators of
    u(m), carrying the same combinations on their preimages: returns the
    dense (m*m, M, M) elements and the same basis as an ImageBasis."""
    elements, preimages = [], []
    for g in unitary_algebra_generators(basis.m):
        e, p = second_quantize(g, basis), g
        for _ in range(2):  # twice is enough
            for f, q in zip(elements, preimages):
                c = np.vdot(f, e).real
                e, p = e - c * f, p - c * q
        norm = np.linalg.norm(e)
        elements.append(e / norm)
        preimages.append(p / norm)
    elements = np.array(elements)
    return elements, dense_image_basis(basis, elements, preimages)


def reference_run(U, start, basis, elements, steps):
    """Iterates 0, ..., steps of U_{i+1} = U_i expm(v_T) from lift(start):
    each one's (distance, tangent norm, normal norm), and the last iterate."""
    Ui = evolution_matrix_oracle(start, basis)
    trace = []
    for step in range(steps + 1):
        if step:
            Ui = Ui @ scipy.linalg.expm(v_T)
        v = schur_log(Ui.conj().T @ U)
        # <e, v> = Re tr(e† v)
        coeffs = np.real(np.einsum("aij,ij->a", elements.conj(), v))
        v_T = np.einsum("a,aij->ij", coeffs, elements)
        trace.append((np.linalg.norm(Ui - U), np.linalg.norm(v_T), np.linalg.norm(v - v_T)))
    return np.array(trace), Ui
