"""The standard desk-scale configuration matrix used by the verification
suite."""

from fractions import Fraction

KAC_CONFIGS = [
    {"flavor": "sl", "m": 2, "n": 1, "a": (0,)},
    {"flavor": "sl", "m": 2, "n": 1, "a": (1,)},
    {"flavor": "sl", "m": 2, "n": 1, "a": (2,)},
    {"flavor": "sl", "m": 3, "n": 1, "a": (0, 0)},
    {"flavor": "sl", "m": 3, "n": 1, "a": (1, 0)},
    {"flavor": "gl", "m": 2, "n": 1, "a": (0,)},
    {"flavor": "gl", "m": 2, "n": 1, "a": (1,)},
]

ALGEBRA_CONFIGS = [
    {"flavor": flavor, "m": m, "n": n}
    for flavor in ("sl", "gl")
    for (m, n) in ((2, 1), (3, 1), (2, 3))
]

REPLICATION_COUNTS = (1, 2, 3)

COUPLING_SETS = ((Fraction(1),), (Fraction(1), Fraction(1)),
                 (Fraction(2), Fraction(-3, 5)))

GENERIC_B = Fraction(5, 7)
GENERIC_C = Fraction(3, 11)


def bindings_for(flavor: str) -> dict:
    out = {"b": GENERIC_B}
    if flavor == "gl":
        out["c"] = GENERIC_C
    return out
