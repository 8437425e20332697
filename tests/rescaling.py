"""Superdiagonal rescalings of 2-fold block modules, checked by explicit
conjugation: the acceptance gate and the matryoshka tests both run them."""

from fractions import Fraction

from superkac.algebra import InputError
from superkac.exact import PolyMatrix, kronecker_sum
from superkac.kacmod import KacModule
from superkac.matryoshka import ReplicatedModule, ReplicationSpec, replicate
from superkac.report import VerificationReport


def _diagonal(lam: Fraction, K: KacModule) -> PolyMatrix:
    """diag(lam, 1) (x) I on two copies of K."""
    return kronecker_sum(2, K.dim, K.params, [(
        (lam.denominator, {0: {0: lam.numerator}, 1: {1: lam.denominator}}),
        PolyMatrix.identity(K.dim, K.params))])


def conjugation_check(source: ReplicatedModule, target: ReplicatedModule,
                      lam) -> VerificationReport:
    """Q X Q^-1 = X' on every generator of two 2-fold block modules of one
    base K, with Q = diag(lambda I, I): a certificate that they are
    isomorphic."""
    lam = Fraction(lam)
    if lam == 0:
        raise InputError("rescaling needs a nonzero lambda")
    K = source.base
    report = VerificationReport(f"superdiagonal rescaling by {lam}")
    q, q_inv = _diagonal(lam, K), _diagonal(1 / lam, K)
    for label in K.matrices:
        lhs = q @ source.matrices[label] @ q_inv
        if lhs != target.matrices[label]:
            pos, val = (lhs - target.matrices[label]).first_nonzero()
            report.add_fail(f"conjugation on {label}", f"entry {pos}", str(val))
            return report
    report.add_pass(f"Q (.) Q^-1 maps one block module to the other on "
                    f"every generator, lambda = {lam}")
    return report


def rescale_conjugation_check(K: KacModule, lam) -> VerificationReport:
    """Q U(1) Q^-1 = U(lambda) on every generator of the 2-fold
    replications of K with couplings 1 and lambda."""
    return conjugation_check(
        replicate(K, ReplicationSpec(2, (Fraction(1),))),
        replicate(K, ReplicationSpec(2, (Fraction(lam),))), lam)
