"""Symbolic proof of the five support-matrix identities, and the oracle of
their route over a prime field.

``cosets.identity_sides`` evaluates each identity mod P = 2^31 - 1 at
random draws.  Here both sides are restated with symbolic entries: the datum
a, b, c, the torus and unipotent parameters u, w, the uniformizer-power
marker pm, the uniformizer varpi, and s = sqrt(d) with d = b^2 - 4ac.
Every entry of lhs - rhs is brought over one denominator and its numerator
is reduced modulo s^2 - d; the identity holds in the etale algebra exactly
when every remainder is zero.  The same restatement, evaluated at the
route's own draws and mapped to F_P, must give the route's every entry,
and its cross-multiplied numerator degrees are the D of the route's
Schwartz-Zippel bound.
"""

import pytest

sympy = pytest.importorskip("sympy")

from localzeta import cosets  # noqa: E402
from localzeta.rng import SplitMix64  # noqa: E402

P = cosets.P

a, b, c, u, w, pm, varpi, s = sympy.symbols("a b c u w pm varpi s")
DISC = b**2 - 4 * a * c
ALPHA = (b + s) / (2 * c)

S1 = sympy.Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
S2 = sympy.Matrix([[0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]])


def conj(x):
    return x.subs(s, -s)


def eta(scale):
    return sympy.Matrix(
        [[1, 0, 0, 0], [ALPHA * scale, 1, 0, 0], [0, 0, 1, -conj(ALPHA) * scale], [0, 0, 0, 1]]
    )


def lower_unipotent(x):
    return sympy.Matrix([[1, 0, 0, 0], [x, 1, 0, 0], [0, 0, 1, -x], [0, 0, 0, 1]])


def block_embed(g11, g12, g21, g22):
    return sympy.Matrix(
        [[g11, g12, 0, 0], [g21, g22, 0, 0], [0, 0, g22, -g21], [0, 0, -g12, g11]]
    )


def sides(which, m=0, l=0, diag=sympy.diag):
    """(lhs, rhs) of the named identity, as ``cosets.identity_sides`` builds them."""
    if which == "i":
        torus = diag(1, u, 1, 1 / u)
        return eta(pm) * torus, torus * eta(pm / u)

    beta = ALPHA * pm + u * w
    bbar = conj(beta)
    if which == "ii":
        lhs = eta(pm) * diag(1, u, 1, 1 / u) * lower_unipotent(w) * S1
        torus = diag(-u / beta, beta, -bbar / u, 1 / bbar)
        upper = sympy.Matrix(
            [[1, -beta / u, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, bbar / u, 1]]
        )
        lower = sympy.Matrix(
            [[1, 0, 0, 0], [u / beta, 1, 0, 0], [0, 0, 1, -(u / bbar)], [0, 0, 0, 1]]
        )
        return lhs, torus * upper * lower

    if which == "vi":
        lhs = eta(pm) * diag(1, u, 1, 1 / u) * lower_unipotent(w) * S1 * S2 * S1
        left = sympy.Matrix(
            [[1, 0, 0, 0], [0, 0, 0, u], [0, 0, 1, 0], [0, -(1 / u), 0, 0]]
        )
        right = sympy.Matrix(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, bbar / u, 1, 0], [beta / u, 0, 0, 1]]
        )
        return lhs, left * right

    if which == "m0-equiv":
        v = a + b * (u * w) + c * (u * w) ** 2
        y = -u / v
        x = -(u / v) * (c * w * u + b / 2)
        corner = sympy.Matrix(
            [
                [1, 0, 0, 0],
                [-u * (b + c * u * w) / v, c * u * u / v, 0, 0],
                [0, 0, c * u * u / v, u * (b + c * u * w) / v],
                [0, 0, 0, 1],
            ]
        )
    else:
        p = varpi**m
        x = b * p / (2 * c * w * w * u) - 1 / w
        y = -p / (c * w * w * u)
        top = 1 + p * p * a / (c * w * w * u * u)
        off = b * p / (c * w * w * u)
        corner = sympy.Matrix(
            [
                [top, -off, 0, 0],
                [-1 / w, 1 / (w * w), 0, 0],
                [0, 0, 1 / (w * w), 1 / w],
                [0, 0, off, top],
            ]
        )
    g = block_embed(x + y * b / 2, y * c, -y * a, x - y * b / 2)
    h = diag(varpi ** (2 * m + l), varpi ** (m + l), 1, varpi**m)
    h_inv = diag(varpi ** -(2 * m + l), varpi ** -(m + l), 1, varpi**-m)
    lhs = h_inv * g * h * diag(1, -u, 1, -(1 / u))
    rhs = diag(1, u, 1, 1 / u) * lower_unipotent(w) * S1 * corner
    return lhs, rhs


def read_set(which):
    """The draws the named identity reads: the free symbols of its sides,
    with s standing for a, b and c through d, and l or m where the sides
    change with them; d is read by every identity."""
    cases = {(m, l): sides(which, m, l) for name, m, l in CASES if name == which}
    symbols = set().union(*(lhs.free_symbols | rhs.free_symbols for lhs, rhs in cases.values()))
    names = {str(x) for x in symbols - {s}} | ({"a", "b", "c"} if s in symbols else set()) | {"d"}
    for k, name in enumerate(("m", "l")):
        # two cases that differ in this parameter alone, with different sides
        if any(x[1 - k] == y[1 - k] and cases[x] != cases[y] for x in cases for y in cases):
            names.add(name)
    return names


def reduces_to_zero(lhs, rhs) -> bool:
    modulus = sympy.Poly(s**2 - DISC, s)
    for entry in lhs - rhs:
        numerator = sympy.numer(sympy.together(entry))
        if not sympy.Poly(numerator, s).rem(modulus).is_zero:
            return False
    return True


CASES = (
    [("i", 0, 0), ("ii", 0, 0), ("vi", 0, 0)]
    + [("m0-equiv", 0, l) for l in (0, 1, 2)]
    + [("mpos-equiv", m, l) for m in (1, 2) for l in (0, 1, 2)]
)


@pytest.mark.parametrize("which,m,l", CASES)
def test_identity_is_a_polynomial_identity(which, m, l):
    assert reduces_to_zero(*sides(which, m, l))


@pytest.mark.parametrize("which", cosets.IDENTITY_NAMES)
def test_witness_names_the_draws_the_identity_reads(which):
    reads = cosets.IDENTITY_READS[which]
    assert set(reads) == read_set(which)
    order = ("a", "b", "c", "u", "w", "pm", "varpi", "m", "d")  # README's draw order
    assert list(reads) == sorted(reads, key=order.index)


def test_doubled_torus_entry_breaks_identity_i():
    def diag_fourth_doubled(t1, t2, t3, t4):
        return sympy.diag(t1, t2, t3, 2 * t4)

    assert not reduces_to_zero(*sides("i", diag=diag_fourth_doubled))


def _degree(x) -> int:
    x = sympy.expand(x)
    return sympy.Poly(x, a, b, c, u, w, pm, varpi, s).total_degree() if x != 0 else -1


def test_cross_multiplied_degrees_are_the_quoted_bound():
    # An entry compares L = nL/dL with R = nR/dR through nL dR - nR dL,
    # whose degree stays put when s^2 is replaced by b^2 - 4ac.
    degree = {}
    for which, m, l in CASES:
        for lhs_entry, rhs_entry in zip(*sides(which, m, l)):
            nL, dL = sympy.fraction(sympy.together(lhs_entry))
            nR, dR = sympy.fraction(sympy.together(rhs_entry))
            cross = max(_degree(nL) + _degree(dR), _degree(nR) + _degree(dL))
            degree[which, m] = max(degree.get((which, m), 0), cross)
    assert degree == {
        ("i", 0): 4, ("ii", 0): 5, ("vi", 0): 5, ("m0-equiv", 0): 10,
        ("mpos-equiv", 1): 8, ("mpos-equiv", 2): 10,
    }
    worst = {which: max(D for (name, _), D in degree.items() if name == which) for which, _ in degree}
    table = ", ".join(f"{which} {worst[which]}" for which in cosets.IDENTITY_NAMES)
    assert f"The degree D: {table} (8 at m = 1)." in " ".join(cosets.verify_matrix_identity.__doc__.split())


def _residue(x) -> int:
    x = sympy.Rational(x)
    return x.p * pow(x.q, -1, P) % P


def _value_mod_p(entry, values, disc):
    """``entry`` at integer ``values`` as (x0, x1) in F_P[X]/(X^2 - disc):
    over one denominator, each side reduced mod s^2 - disc and mapped to F_P."""
    modulus = sympy.Poly(s**2 - disc, s)
    num, den = (
        sympy.Poly(part, s).rem(modulus)
        for part in sympy.fraction(sympy.together(entry.subs(values)))
    )
    n0, n1, e0, e1 = (_residue(poly.coeff_monomial(x)) for poly in (num, den) for x in (1, s))
    d = disc % P
    inverse_norm = pow((e0 * e0 - d * e1 * e1) % P, -1, P)
    return (n0 * e0 - d * n1 * e1) * inverse_norm % P, (n1 * e0 - n0 * e1) * inverse_norm % P


SYMBOLS = {"a": a, "b": b, "c": c, "u": u, "w": w, "pm": pm, "varpi": varpi}


@pytest.mark.parametrize("which,m,l", CASES)
def test_prime_field_route_matches_the_symbolic_sides(which, m, l):
    # the route draws no l, so matching sides(which, m, l) at every l shows
    # that varpi^l cancels entry by entry
    draws = cosets.draw_residues(SplitMix64(CASES.index((which, m, l))), which, 2)
    if which == "mpos-equiv":
        draws["m"][:] = m
    route = cosets.identity_sides(which, draws)
    assert route[2].all()
    for t in range(2):
        values = {SYMBOLS[name]: int(draws[name][t]) for name in draws if name in SYMBOLS}
        disc = int(DISC.subs(values))
        for symbolic, batch in zip(sides(which, m, l), route):
            for k, entry in enumerate(symbolic):
                i, j = divmod(k, 4)
                assert _value_mod_p(entry, values, disc) == (int(batch.x0[t, i, j]), int(batch.x1[t, i, j]))
