"""Rescalings of the coupling matrix of N-fold block modules, checked by
explicit conjugation: the acceptance gate and the matryoshka tests both
run them.

With D = diag(q), (D (x) I)(I (x) A + C (x) B)(D (x) I)^-1 is
I (x) A + D C D^-1 (x) B, and D C D^-1 carries q_t C[t][t+1] / q_(t+1)
on the first superdiagonal: so every nonzero coupling can be rescaled to
1, and the couplings are a choice of basis, not an invariant."""

from fractions import Fraction

from block_oracle import block_matrices
from superkac.algebra import InputError
from superkac.exact import PolyMatrix, kronecker_sum
from superkac.kacmod import KacModule
from superkac.matryoshka import ReplicatedModule, ReplicationSpec, replicate
from superkac.report import VerificationReport


def _diagonal(q: tuple, K: KacModule) -> PolyMatrix:
    """diag(q) (x) I on len(q) copies of K."""
    identity = PolyMatrix.identity(K.dim, K.params)
    return kronecker_sum(len(q), K.dim, K.params, [
        ((x.denominator, {t: {t: x.numerator}}), identity)
        for t, x in enumerate(q)])


def conjugation_check(source: ReplicatedModule, target: ReplicatedModule,
                      q) -> VerificationReport:
    """Q X Q^-1 = X' on every generator of two N-fold block modules of one
    base K, with Q = diag(q) (x) I: a certificate that they are
    isomorphic."""
    q = tuple(Fraction(x) for x in q)
    if 0 in q:
        raise InputError("rescaling needs a nonzero diagonal")
    K = source.base
    report = VerificationReport(
        f"coupling rescaling by diag{tuple(str(x) for x in q)}")
    Q, Q_inv = _diagonal(q, K), _diagonal(tuple(1 / x for x in q), K)
    source_blocks, target_blocks = block_matrices(source), \
        block_matrices(target)
    for label in K.matrices:
        lhs = Q @ source_blocks[label] @ Q_inv
        if lhs != target_blocks[label]:
            pos, val = (lhs - target_blocks[label]).first_nonzero()
            report.add_fail(f"conjugation on {label}", f"entry {pos}", str(val))
            return report
    report.add_pass("Q (.) Q^-1 maps one block module to the other on "
                    f"every generator, q = {[str(x) for x in q]}")
    return report


def rescale_conjugation_check(K: KacModule, lambdas) -> VerificationReport:
    """Q R(lambda) Q^-1 = R(1, ..., 1) on every generator, for the
    replications of K with couplings lambda and with unit couplings, with
    q_(N-1) = 1 and q_t = q_(t+1) / lambda_t."""
    lambdas = tuple(Fraction(lam) for lam in lambdas)
    if 0 in lambdas:
        raise InputError("rescaling needs nonzero couplings")
    q = [Fraction(1)]
    for lam in reversed(lambdas):
        q.insert(0, q[0] / lam)
    N = len(lambdas) + 1
    return conjugation_check(
        replicate(K, ReplicationSpec(N, lambdas)),
        replicate(K, ReplicationSpec(N, (Fraction(1),) * (N - 1))), q)
