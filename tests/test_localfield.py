import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localzeta.exact import rat
from localzeta.localfield import (
    LocalQuadData,
    PrecisionError,
    SplittingSymbol,
    splitting_symbol,
    uniformizer_values,
    unit_index,
    unit_index_oracle,
    volume_numerators,
)

# One (a, b, c) triple per prime and splitting class, with d = b^2 - 4ac
# landing in that class.  These are reused by the coset and integral tests.
TRIPLES = {
    (2, SplittingSymbol.INERT): (-1, 1, 1),  # d = 5
    (2, SplittingSymbol.RAMIFIED): (1, 0, 1),  # d = -4
    (2, SplittingSymbol.SPLIT): (0, 1, 1),  # d = 1
    (3, SplittingSymbol.INERT): (1, 0, 1),  # d = -4
    (3, SplittingSymbol.RAMIFIED): (1, 1, 1),  # d = -3
    (3, SplittingSymbol.SPLIT): (-1, 0, 1),  # d = 4
    (5, SplittingSymbol.INERT): (2, 0, 1),  # d = -8
    (5, SplittingSymbol.RAMIFIED): (-1, 1, 1),  # d = 5
    (5, SplittingSymbol.SPLIT): (1, 0, 1),  # d = -4
}


def make_data(p, symbol):
    """A LocalQuadData with simple nonzero character values."""
    if symbol is SplittingSymbol.INERT:
        return LocalQuadData(p, symbol, rat(3))
    if symbol is SplittingSymbol.RAMIFIED:
        return LocalQuadData(p, symbol, rat(4), lambda_piL=rat(-2))
    return LocalQuadData(
        p, symbol, rat(6), lambda_piL=rat(2), lambda_piF_over_piL=rat(3)
    )


class TestSplittingSymbol:
    def test_nonresidue_unit_is_inert(self):
        assert splitting_symbol(-4, 3) is SplittingSymbol.INERT

    def test_square_is_split(self):
        assert splitting_symbol(9, 5) is SplittingSymbol.SPLIT

    def test_odd_valuation_is_ramified(self):
        assert splitting_symbol(-3, 3) is SplittingSymbol.RAMIFIED

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            splitting_symbol(0, 3)

    def test_two_adic_unit_classes(self):
        # mod 8: 1 is a square, 5 is a non-square, -4 = 4 * (-1) ramifies
        assert splitting_symbol(17, 2) is SplittingSymbol.SPLIT
        assert splitting_symbol(5, 2) is SplittingSymbol.INERT
        assert splitting_symbol(-4, 2) is SplittingSymbol.RAMIFIED

    def test_non_fundamental_discriminants(self):
        # d = p^v u with v even takes the class of the unit u; at p = 2 a
        # unit u = 3 (mod 4) ramifies
        assert splitting_symbol(45, 3) is SplittingSymbol.INERT
        assert splitting_symbol(18, 3) is SplittingSymbol.INERT
        assert splitting_symbol(20, 2) is SplittingSymbol.INERT
        assert splitting_symbol(3, 2) is SplittingSymbol.RAMIFIED
        assert splitting_symbol(7, 2) is SplittingSymbol.RAMIFIED

    def test_reference_triples(self):
        for (p, expected), (a, b, c) in TRIPLES.items():
            assert splitting_symbol(b * b - 4 * a * c, p) is expected

    @given(
        d=st.integers(min_value=-300, max_value=300).filter(bool),
        p=st.sampled_from([2, 3, 5, 7]),
        u=st.integers(min_value=1, max_value=50),
    )
    def test_stable_under_unit_squares(self, d, p, u):
        if u % p == 0:
            u += 1
        assert splitting_symbol(d * u * u, p) is splitting_symbol(d, p)

    @given(
        d=st.integers(min_value=-300, max_value=300).filter(bool),
        p=st.sampled_from([2, 3, 5, 7]),
    )
    def test_stable_under_prime_squares(self, d, p):
        assert splitting_symbol(d * p * p, p) is splitting_symbol(d, p)


class TestLocalQuadData:
    def test_inert_carries_only_piF(self):
        data = make_data(3, SplittingSymbol.INERT)
        assert data.lambda_piL is None and data.lambda_piF_over_piL is None
        with pytest.raises(ValueError):
            LocalQuadData(3, SplittingSymbol.INERT, rat(3), lambda_piL=rat(1))

    def test_ramified_square_relation(self):
        data = make_data(5, SplittingSymbol.RAMIFIED)
        assert data.lambda_piL**2 == data.lambda_piF
        with pytest.raises(ValueError):
            LocalQuadData(5, SplittingSymbol.RAMIFIED, rat(4), lambda_piL=rat(3))

    def test_split_product_relation(self):
        data = make_data(2, SplittingSymbol.SPLIT)
        assert data.lambda_piL * data.lambda_piF_over_piL == data.lambda_piF
        with pytest.raises(ValueError):
            LocalQuadData(
                2,
                SplittingSymbol.SPLIT,
                rat(5),
                lambda_piL=rat(2),
                lambda_piF_over_piL=rat(3),
            )

    def test_zero_values_rejected(self):
        with pytest.raises(ValueError):
            LocalQuadData(3, SplittingSymbol.INERT, rat(0))
        with pytest.raises(ValueError):
            LocalQuadData(
                3,
                SplittingSymbol.SPLIT,
                rat(0),
                lambda_piL=rat(0),
                lambda_piF_over_piL=rat(1),
            )

    @pytest.mark.parametrize(
        "p", [-3, 0, 1, 4, 9, 561, 10**18, 10**300], ids=["-3", "0", "1", "4", "9", "561", "1e18", "1e300"]
    )
    def test_composite_or_unit_p_rejected(self, p):
        with pytest.raises(ValueError, match="p must be a prime"):
            LocalQuadData(p, SplittingSymbol.INERT, rat(1))

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError):
            LocalQuadData(5, SplittingSymbol.RAMIFIED, rat(4))
        with pytest.raises(ValueError):
            LocalQuadData(5, SplittingSymbol.SPLIT, rat(4), lambda_piL=rat(2))


class TestUniformizerValues:
    def test_each_class_of_both_data_types(self):
        from localzeta.assembly import PrimeQuadData

        assert uniformizer_values(LocalQuadData(3, SplittingSymbol.INERT, rat(4))) == ()
        assert uniformizer_values(
            LocalQuadData(3, SplittingSymbol.RAMIFIED, rat(4), lambda_piL=rat(-2))
        ) == (rat(-2),)
        assert uniformizer_values(
            LocalQuadData(3, SplittingSymbol.SPLIT, rat(4), lambda_piL=rat(8), lambda_piF_over_piL=rat(1, 2))
        ) == (rat(8), rat(1, 2))
        assert uniformizer_values(PrimeQuadData(symbol=-1, lambda_piF=1j)) == ()
        assert uniformizer_values(PrimeQuadData(symbol=0, lambda_piF=-1.0, lambda_piL=1j)) == (1j,)
        assert uniformizer_values(
            PrimeQuadData(symbol=1, lambda_piF=1.0, lambda_piL=2.0, lambda_piF_over_piL=0.5)
        ) == (2.0, 0.5)

    def test_reads_the_fields_when_called(self):
        # criterion 8 corrupts lambda_piL after construction, and both sides
        # of the identity must see the corrupted value
        data = LocalQuadData(3, SplittingSymbol.RAMIFIED, rat(4), lambda_piL=rat(2))
        object.__setattr__(data, "lambda_piL", rat(5))
        assert uniformizer_values(data) == (rat(5),)


class TestVolumeRow:
    """Each row of the volume formulas is geometric in m, the premise under
    which zeta._nonzero_brackets reads only m = 1 and 2 of a row: from
    m = 1 on, a step in m multiplies n1 and n2 by q^4."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("symbol", list(SplittingSymbol))
    def test_equals_the_volume_formula_cell_by_cell(self, p, symbol):
        data = make_data(p, symbol)
        for l in range(13):
            n1, n2, den = volume_numerators(data, l, 1)
            for m in range(1, 13):
                assert volume_numerators(data, l, m) == (n1, n2, den), (l, m)
                n1, n2 = n1 * p**4, n2 * p**4


class TestUnitIndex:
    def test_inert_example(self):
        assert unit_index(make_data(3, SplittingSymbol.INERT), 2) == 12

    def test_split_example(self):
        assert unit_index(make_data(2, SplittingSymbol.SPLIT), 1) == 1

    def test_ramified_is_plain_power(self):
        assert unit_index(make_data(5, SplittingSymbol.RAMIFIED), 3) == 125

    def test_m_zero_is_one(self):
        for symbol in SplittingSymbol:
            assert unit_index(make_data(3, symbol), 0) == 1

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            unit_index(make_data(3, SplittingSymbol.INERT), -1)


class TestUnitIndexOracle:
    def test_inert_p3_m1(self):
        a, b, c = TRIPLES[(3, SplittingSymbol.INERT)]
        assert unit_index_oracle(a, b, c, 3, 1) == 4

    def test_ramified_p3_m1(self):
        a, b, c = TRIPLES[(3, SplittingSymbol.RAMIFIED)]
        assert unit_index_oracle(a, b, c, 3, 1) == 3

    def test_m_zero_is_trivial(self):
        for (p, _symbol), (a, b, c) in TRIPLES.items():
            assert unit_index_oracle(a, b, c, p, 0) == 1

    def test_non_unit_c_rejected(self):
        with pytest.raises(ValueError):
            unit_index_oracle(1, 0, 3, 3, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize(
        "symbol", [SplittingSymbol.INERT, SplittingSymbol.RAMIFIED, SplittingSymbol.SPLIT]
    )
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_closed_formula(self, p, symbol, m):
        a, b, c = TRIPLES[(p, symbol)]
        data = make_data(p, symbol)
        assert unit_index_oracle(a, b, c, p, m) == unit_index(data, m)


def direct_index(a, b, c, p, m, k):
    """The oracle's index at depth k, visiting every pair (x, y) of the grid."""
    xs = np.arange(p**k)

    def unit_count(ys):
        x, y = xs[:, None], ys[None, :]
        return int(np.count_nonzero((x * x - b * x * y + a * c * y * y) % p))

    total = unit_count(xs)
    image = unit_count(np.arange(p ** (k - m)) * p**m)
    assert total % image == 0
    return total // image


def triple_of_class(p, symbol):
    """(a, 0, 1) with d = -4a in the given class over Q_p, p odd."""
    a = next(a for a in range(1, p + 1) if splitting_symbol(-4 * a, p) == symbol)
    return a, 0, 1


# Every TRIPLES cell, and three with c != 1, where a c and a differ.
DIRECT_CELLS = [(p, abc) for (p, _), abc in sorted(TRIPLES.items())] + [
    (2, (1, 1, 3)),
    (3, (1, 1, 2)),
    (5, (2, 1, 3)),
]


class TestGroupedOracle:
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("p, abc", DIRECT_CELLS)
    def test_matches_direct_enumeration(self, p, abc, m):
        a, b, c = abc
        direct = [direct_index(a, b, c, p, m, k) for k in (m + 1, m + 2)]
        assert direct == [unit_index_oracle(a, b, c, p, m)] * 2

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("p", [7, 11, 101])
    def test_matches_closed_formula_at_larger_primes(self, p, m):
        # p^(2k) grid cells at k = m + 2 (about 10^16 at p = 101, m = 2),
        # counted from two histograms of p^k and p^(k - m) entries.
        for symbol in SplittingSymbol:
            a, b, c = triple_of_class(p, symbol)
            assert unit_index_oracle(a, b, c, p, m) == unit_index(make_data(p, symbol), m)
