"""The superdiagonal rescaling of a 2-fold replication, checked by explicit
conjugation: the acceptance gate and the matryoshka tests both run it."""

from fractions import Fraction

from superkac.algebra import GenLabel, InputError
from superkac.exact import PolyMatrix, kronecker_sum
from superkac.kacmod import KacModule
from superkac.matryoshka import ReplicationSpec, replicate
from superkac.report import VerificationReport


def _diagonal(lam: Fraction, K: KacModule) -> PolyMatrix:
    """diag(lam, 1) (x) I on two copies of K."""
    return kronecker_sum(2, K.dim, K.params, [(
        (lam.denominator, {0: {0: lam.numerator}, 1: {1: lam.denominator}}),
        PolyMatrix.identity(K.dim, K.params))])


def rescale_conjugation_check(K: KacModule, lam: Fraction) -> VerificationReport:
    """Q U(1) Q^-1 = U(lambda) and likewise for Y, with Q = diag(lambda I, I)."""
    lam = Fraction(lam)
    if lam == 0:
        raise InputError("rescaling needs a nonzero lambda")
    report = VerificationReport(f"superdiagonal rescaling by {lam}")
    base = replicate(K, ReplicationSpec(2, (Fraction(1),)))
    target = replicate(K, ReplicationSpec(2, (lam,)))
    q, q_inv = _diagonal(lam, K), _diagonal(1 / lam, K)
    labels = [GenLabel("y")] + [GenLabel("u", i)
                                for i in range(1, K.odd_count + 1)]
    for label in labels:
        lhs = q @ base.matrices[label] @ q_inv
        if lhs != target.matrices[label]:
            pos, val = (lhs - target.matrices[label]).first_nonzero()
            report.add_fail(f"conjugation on {label}", f"entry {pos}", str(val))
            return report
    report.add_pass(f"Q (.) Q^-1 maps coupling 1 to coupling {lam} on Y and "
                    "all u matrices")
    return report
