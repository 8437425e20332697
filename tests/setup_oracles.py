"""The Fraction set-up of a job, kept as the oracle of the integer one.

These are the root datum, fundamental representation and highest-weight
readers that ``superkac.algebra`` replaced: every root and every rho is
built from ``Fraction`` unit vectors, every matrix entry is a
``ParamPoly`` constant, and the highest weight is summed up coordinate by
coordinate in ``ParamPoly`` arithmetic.  ``rational_entries`` is the
``Fraction`` view of a parameter-free matrix that the structure constants
used to read, and ``reference_bilinear`` the pairing ``typicality_factors``
used to take.

The table checks' ``Fraction`` forms are kept here too: the generating
set grown by ``coeff * c`` products and the ad matrices built entry by
entry, which ``algebra.generating_set`` and ``super_jacobi_report`` now
form over integer columns and integer terms; and ``weight_eval`` and
``supertrace``, which only the tests call.
"""

from fractions import Fraction

from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              module_params, validate_even_labels)
from superkac.exact import ParamPoly, PolyMatrix, echelon_insert


def rational_entries(mat: PolyMatrix) -> dict:
    """{(row, col): Fraction} of the nonzero entries of a parameter-free
    matrix, read off its constant term."""
    den, rows = mat.integer_term()
    return {(r, c): Fraction(x, den)
            for r, row in rows.items() for c, x in row.items()}


def weight_add(w1, w2):
    return tuple(a + b for a, b in zip(w1, w2))


def weight_sub(w1, w2):
    return tuple(a - b for a, b in zip(w1, w2))


def weight_scale(w, s):
    return tuple(a * s for a in w)


def _eps(spec, i):
    w = [Fraction(0)] * spec.dim_fund
    w[i] = Fraction(1)
    return tuple(w)


def _delta(spec, j):
    w = [Fraction(0)] * spec.dim_fund
    w[spec.m + j] = Fraction(1)
    return tuple(w)


def reference_root_datum(spec) -> dict:
    """The fields of the distinguished root datum, built in Fractions."""
    m, n = spec.m, spec.n
    zero = tuple(Fraction(0) for _ in range(m + n))

    simple = []
    for i in range(m - 1):
        simple.append(weight_sub(_eps(spec, i), _eps(spec, i + 1)))
    for j in range(n - 1):
        simple.append(weight_sub(_delta(spec, j), _delta(spec, j + 1)))

    even_roots, even_pairs = [], []
    for base, size in ((0, m), (m, n)):
        for height in range(1, size):
            for a in range(size - height):
                lo, hi = base + a, base + a + height
                root = [Fraction(0)] * (m + n)
                root[lo], root[hi] = Fraction(1), Fraction(-1)
                even_roots.append(tuple(root))
                even_pairs.append((lo, hi))

    odd_roots, odd_pairs = [], []
    for i in range(m - 1, -1, -1):
        for j in range(n):
            odd_roots.append(weight_sub(_eps(spec, i), _delta(spec, j)))
            odd_pairs.append((i, j))

    cartan = []
    r = spec.rank
    for i in range(r):
        row = []
        for j in range(r):
            same_block = (i < m - 1) == (j < m - 1)
            if not same_block:
                row.append(0)
            elif i == j:
                row.append(2)
            elif abs(i - j) == 1:
                row.append(-1)
            else:
                row.append(0)
        cartan.append(tuple(row))

    half = Fraction(1, 2)
    rho0 = zero
    for root in even_roots:
        rho0 = weight_add(rho0, weight_scale(root, half))
    rho1 = zero
    for root in odd_roots:
        rho1 = weight_add(rho1, weight_scale(root, half))
    rho = weight_sub(rho0, rho1)

    return dict(
        spec=spec,
        simple_even_roots=tuple(simple),
        even_positive_roots=tuple(even_roots),
        even_root_pairs=tuple(even_pairs),
        odd_positive_roots=tuple(odd_roots),
        odd_pairs=tuple(odd_pairs),
        cartan_matrix=tuple(cartan),
        rho=rho,
    )


def reference_bilinear(spec, w1, w2):
    """Signature (+m, -n) diagonal pairing."""
    total = None
    for idx, (a, b) in enumerate(zip(w1, w2)):
        term = a * b if idx < spec.m else -(a * b)
        total = term if total is None else total + term
    return total


def _unit_matrix(dim, r, c, value=1):
    return PolyMatrix(dim, dim, (), {(r, c): ParamPoly.const((), value)})


def hypercharge_diagonal(spec) -> list:
    """Diagonal of y: [y, u] = u exactly; supertraceless whenever m != n."""
    m, n = spec.m, spec.n
    if m != n:
        top = Fraction(n, n - m)
        bot = Fraction(m, n - m)
    else:
        top, bot = Fraction(1, 2), Fraction(-1, 2)
    return [top] * m + [bot] * n


def reference_fundamental_matrices(spec) -> dict:
    """GenLabel -> PolyMatrix of the fundamental representation, built
    entry by entry from ParamPoly constants."""
    odd_pairs = reference_root_datum(spec)["odd_pairs"]
    m, dim = spec.m, spec.dim_fund
    mats: dict = {}
    for i in range(1, spec.rank + 1):
        if i <= m - 1:
            a = i - 1
        else:
            a = m + (i - m)
        mats[GenLabel("e", i)] = _unit_matrix(dim, a, a + 1)
        mats[GenLabel("f", i)] = _unit_matrix(dim, a + 1, a)
        mats[GenLabel("h", i)] = PolyMatrix(dim, dim, (), {
            (a, a): ParamPoly.const((), 1),
            (a + 1, a + 1): ParamPoly.const((), -1)})

    ydiag = hypercharge_diagonal(spec)
    mats[GenLabel("y")] = PolyMatrix(dim, dim, (), {
        (i, i): ParamPoly.const((), ydiag[i]) for i in range(dim)})
    if spec.flavor == "gl":
        mats[GenLabel("z0")] = PolyMatrix.identity(dim, ())

    for idx, (i, j) in enumerate(odd_pairs, start=1):
        mats[GenLabel("u", idx)] = _unit_matrix(dim, i, m + j)
        mats[GenLabel("v", idx)] = _unit_matrix(dim, m + j, i)
    return mats


def reference_weight_from_labels(spec, a) -> tuple:
    """Epsilon/delta coordinates of the highest weight, summed up in
    ParamPoly arithmetic."""
    validate_even_labels(spec, a)
    params = module_params(spec)
    m, n = spec.m, spec.n
    b = ParamPoly.var(params, "b")
    zero = ParamPoly.zero(params)

    lam = [zero] * m
    for i in range(m - 2, -1, -1):
        lam[i] = lam[i + 1] + a[i]
    cs = [zero] * n
    cs[0] = b - lam[m - 1]
    for j in range(1, n):
        cs[j] = cs[j - 1] - a[m - 1 + j - 1]

    coords = lam + cs
    if spec.flavor == "gl":
        if m == n:
            raise InputError(
                "gl(n|n) highest weights are not determined by (a, b, c); "
                "the odd label is not independent of the central charge")
        c = ParamPoly.var(params, "c")
        total = zero
        for coord in coords:
            total = total + coord
        t = (c - total) * Fraction(1, m - n)
        coords = [coord + t if i < m else coord - t
                  for i, coord in enumerate(coords)]
    return tuple(coords)


def reference_typicality_factors(spec, a) -> list:
    """<Lambda + rho | beta_i> on the Fraction datum."""
    datum = reference_root_datum(spec)
    coords = reference_weight_from_labels(spec, a)
    shifted = tuple(coord + r for coord, r in zip(coords, datum["rho"]))
    return [reference_bilinear(spec, shifted, beta)
            for beta in datum["odd_positive_roots"]]


def reference_labels_to_hypercharge(sc, a) -> ParamPoly:
    """(b - d^a_11 a_a) / k in ParamPoly arithmetic."""
    spec = sc.spec
    validate_even_labels(spec, a)
    params = module_params(spec)
    h_part = 0
    for label, coeff in sc.bracket(GenLabel("u", 1),
                                   GenLabel("v", 1)).items():
        if label.kind == "h":
            h_part += coeff * a[label.index - 1]
        elif label.kind == "z0" and coeff != 0:
            raise InternalConsistencyError("{u_1,v_1} acquired a z0 part")
    return (ParamPoly.var(params, "b") - h_part) * (Fraction(1) / sc.k)


def reference_generating_set(sc) -> tuple:
    """X of ``algebra.generating_set``, each bracket image summed up in
    ``coeff * c`` products of the table's rationals."""
    lowering = [lab for lab in sc.basis
                if lab.kind == "f" or lab == GenLabel("v", 1)]
    seed = [lab for lab in sc.basis
            if lab.kind == "e" or lab == GenLabel("u", 1)
            or not any(sc.bracket(x, lab) for x in lowering)]
    echelon: dict = {}
    order = {lab: pos for pos, lab in enumerate(sc.basis)}
    queue = [{order[lab]: 1} for lab in seed]
    while queue:
        vec = echelon_insert(echelon, queue.pop())
        if vec is None:
            continue
        for x in seed:
            image: dict = {}
            for pos, coeff in vec.items():
                for t, c in sc.bracket(x, sc.basis[pos]).items():
                    image[order[t]] = image.get(order[t], 0) + coeff * c
            queue.append(image)
    completion = [lab for lab in sc.basis
                  if echelon_insert(echelon, {order[lab]: 1}) is not None]
    return tuple(lab for lab in sc.basis
                 if lab in completion or lab in seed)


def reference_ad_matrices(sc) -> dict:
    """GenLabel a -> ad_a, ad_a[t, c] = table[(a, c)][t], built from its
    Fraction entries."""
    index = {lab: i for i, lab in enumerate(sc.basis)}
    entries = {lab: {} for lab in sc.basis}
    for (a, c), expansion in sc.table.items():
        for t, coeff in expansion.items():
            entries[a][(index[t], index[c])] = coeff
    dim = len(sc.basis)
    return {lab: PolyMatrix(dim, dim, (), entries[lab]) for lab in sc.basis}


def weight_eval(coords, diagonal):
    """Evaluate a weight on a diagonal Cartan element."""
    total = None
    for coord, d in zip(coords, diagonal):
        term = coord * d
        total = term if total is None else total + term
    return total


def supertrace(spec, mat: PolyMatrix):
    total = ParamPoly.zero(mat.params)
    for a in range(spec.dim_fund):
        val = mat.entry(a, a)
        total = total + val if a < spec.m else total - val
    return total
