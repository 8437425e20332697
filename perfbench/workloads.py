"""Fixed job ladders per workload and the seeded job generator.

The ladder of (verb, algebra, labels) is fixed per workload, so every run
of a workload does the same kinds of work.  The seed picks only the job
order, the couplings lambda, the twist directions nu and the odd labels b
(with c for gl), so the program sees nothing but generated ``JobConfig``
fields.  Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Rung:
    """One job of a ladder before the seed fills in its parameters."""

    verb: str
    flavor: str
    m: int
    n: int
    labels: tuple
    b: str = "symbolic"        # "symbolic" | "atypical" | "generic"
    N: int = 2
    n_twist: int = 2

    @property
    def name(self) -> str:
        label = ",".join(str(x) for x in self.labels)
        extra = ""
        if self.verb == "typicality":
            extra = f" b={self.b}"
        elif self.verb == "replicate":
            extra = f" N={self.N}"
        elif self.verb in ("twist", "heisenberg"):
            extra = f" n={self.n_twist}"
        return f"{self.verb} {self.flavor}({self.m}|{self.n}) a=({label}){extra}"


@dataclass(frozen=True)
class Job:
    key: str                   # unique within a run, e.g. "job3"
    rung: Rung
    config: dict               # JobConfig fields other than action/out/report
    dim: int | None = None     # expected dim K = 2^P * dim L (build, export)
    atypical: bool | None = None   # expected verdict (typicality)

    @property
    def verb(self) -> str:
        return self.rung.verb


_CONSTRUCT_ALGEBRAS = (("sl", 2, 1, (3,)), ("gl", 2, 3, (0, 0, 0)),
                       ("sl", 4, 1, (1, 0, 0)), ("sl", 3, 1, (2, 1)))
_INDECOMPOSABLE_ALGEBRAS = (("sl", 2, 1, (2,)), ("gl", 2, 1, (1,)),
                            ("sl", 3, 1, (1, 1)), ("sl", 3, 1, (2, 1)))

WORKLOADS = {
    # build, export and typicality: even irrep, induction, exact solves and
    # JSON export, with no relation check.  sl(3|1) a=(2,2) is built once,
    # not exported or solved, because its even irrep alone takes seconds.
    "construct": (
        [Rung("build", *alg) for alg in _CONSTRUCT_ALGEBRAS]
        + [Rung("build", "sl", 3, 1, (2, 2))]
        + [Rung("export", *alg) for alg in _CONSTRUCT_ALGEBRAS]
        + [Rung("typicality", *alg, b=kind)
           for alg in _CONSTRUCT_ALGEBRAS for kind in ("atypical", "generic")]),
    # verify: the relation check dominates.  sl(4|2) a=0 has dim 256 and
    # takes about ten seconds, so a run holds only a few samples of it.
    "verify": (
        Rung("verify", "sl", 3, 1, (1, 1)),
        Rung("verify", "sl", 3, 2, (0, 0, 0)),
        Rung("verify", "sl", 4, 2, (0, 0, 0, 0)),
    ),
    # replications, twists and Heisenberg modules.  The dim-120 base,
    # sl(3|1) a=(2,1), gets a replication and a Heisenberg job but no twist.
    "indecomposable": (
        [Rung("replicate", *alg, N=3) for alg in _INDECOMPOSABLE_ALGEBRAS]
        + [Rung("twist", *alg, n_twist=nt) for alg, nt
           in zip(_INDECOMPOSABLE_ALGEBRAS[:3], (3, 2, 2))]
        + [Rung("heisenberg", *alg) for alg in _INDECOMPOSABLE_ALGEBRAS]),
}

# One tiny job of every verb, for the traced run and the benchmark's tests.
PROBE = (
    Rung("build", "sl", 2, 1, (0,)),
    Rung("export", "sl", 2, 1, (0,)),
    Rung("typicality", "sl", 2, 1, (0,), b="generic"),
    Rung("verify", "sl", 2, 1, (0,)),
    Rung("replicate", "sl", 2, 1, (0,), N=3),
    Rung("twist", "gl", 2, 1, (0,), n_twist=2),
    Rung("heisenberg", "sl", 2, 1, (0,)),
)


def _small_rational(rng: random.Random, height: int) -> Fraction:
    """A nonzero rational p/q with |p|, q <= height."""
    p = rng.choice([x for x in range(-height, height + 1) if x])
    return Fraction(p, rng.randint(1, height))


def _generic(rng: random.Random, avoid) -> Fraction:
    while True:
        value = Fraction(rng.randint(-12, 12), rng.randint(2, 7))
        if value not in avoid:
            return value


def _direction(rng: random.Random, flavor: str) -> tuple:
    if flavor == "sl":
        return (_small_rational(rng, 3),)
    while True:
        nu = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
              Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if any(nu):
            return nu


def make_jobs(sk, ladder, seed: int, prefix: str = "job") -> list:
    """Seeded jobs for a ladder; ``sk`` holds the imported superkac modules."""
    rng = random.Random(seed)
    jobs = []
    for rung in ladder:
        config = {"flavor": rung.flavor, "m": rung.m, "n": rung.n,
                  "labels": rung.labels}
        datum = sk.algebra.build_root_datum(
            sk.algebra.SuperAlgebraSpec(rung.m, rung.n, rung.flavor))
        dim = None
        atypical = None
        if rung.verb in ("build", "export"):
            dim = 2 ** datum.odd_count * sk.evenrep.weyl_dimension(
                datum, rung.labels)
        elif rung.verb == "typicality":
            # closed-form atypical points: the roots of <Lambda+rho|beta_i>
            roots = sorted({-f.coefficient("b", 0).constant_value()
                            / f.coefficient("b", 1).constant_value()
                            for f in sk.algebra.typicality_factors(
                                datum, rung.labels)})
            atypical = rung.b == "atypical"
            config["b"] = rng.choice(roots) if atypical \
                else _generic(rng, set(roots))
            if rung.flavor == "gl":
                config["c"] = _generic(rng, ())
        elif rung.verb == "replicate":
            config["N"] = rung.N
            config["lambdas"] = tuple(_small_rational(rng, 4)
                                      for _ in range(rung.N - 1))
        elif rung.verb in ("twist", "heisenberg"):
            config["n_twist"] = rung.n_twist
            config["nu"] = _direction(rng, rung.flavor)
        jobs.append((rung, config, dim, atypical))
    rng.shuffle(jobs)
    return [Job(f"{prefix}{index}", *fields)
            for index, fields in enumerate(jobs)]
