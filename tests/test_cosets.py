import random

import numpy as np
import pytest

from localzeta import batteries, cosets, kernels
from localzeta.exact import rat
from localzeta.kernels import IDENTITY, group_closure, mark_products, mat_mul_mod
from localzeta.localfield import LocalQuadData, SplittingSymbol, unit_index
from localzeta.rng import SplitMix64
from localzeta.cosets import (
    P,
    Batch,
    CosetAuditReport,
    IDENTITY_NAMES,
    IDENTITY_READS,
    bruhat_reps,
    coset_audit,
    coset_keys,
    count_polynomial_identity,
    ediag,
    eta_matrix,
    expected_rep_count,
    identity_sides,
    ksharp_mod_p,
    ksharp_mod_p_member,
    matrix_identity_witness,
    sp4_order,
    verify_matrix_identity,
    vol_k_sharp,
    volume_V1,
    volume_V2,
)


def _flat(rows) -> tuple:
    return tuple(v for row in rows for v in row)


def twisted_local(q, symbol):
    """Local data with a non-trivial character in every class."""
    if symbol is SplittingSymbol.INERT:
        return LocalQuadData(q, symbol, rat(2))
    if symbol is SplittingSymbol.RAMIFIED:
        return LocalQuadData(q, symbol, rat(9), lambda_piL=rat(3))
    return LocalQuadData(q, symbol, rat(2), lambda_piL=rat(1), lambda_piF_over_piL=rat(2))


def _entries(m, t):
    """Trial t of a MatrixBatch as rows of (x0, x1) integer pairs."""
    return [[(int(m.x0[t, i, j]), int(m.x1[t, i, j])) for j in range(4)] for i in range(4)]


def _schoolbook(x, y, t):
    """Trial t of the product in F_P[X]/(X^2 - d), entry by entry on Python ints."""
    d, left, right = int(x.d[t, 0, 0]), _entries(x, t), _entries(y, t)
    out = [[[0, 0] for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                (a0, a1), (b0, b1) = left[i][k], right[k][j]
                out[i][j][0] += a0 * b0 + d * a1 * b1
                out[i][j][1] += a0 * b1 + a1 * b0
    return [[(e0 % P, e1 % P) for e0, e1 in row] for row in out]


def _sparse_matrix(rng, d):
    """A seeded batch of matrices, about half the entries zero and many at
    the extremes 1 and P - 1 of the residues."""
    def residues():
        return np.array([rng.choice((1, P - 1, rng.randrange(P))) for _ in d])

    def entry():
        return 0 if rng.random() < 0.5 else Batch(residues(), residues(), d)

    return cosets.matrix([[entry() for _ in range(4)] for _ in range(4)], d)


class TestEtaleMatrixProduct:
    @pytest.mark.parametrize("d", [-4, -3, 5, 8, 4, 9])  # 4 and 9: zero divisors
    def test_matches_schoolbook_product(self, d):
        rng = random.Random(1000 + d)
        trials = np.full(6, d % P)
        for _ in range(10):
            x, y = _sparse_matrix(rng, trials), _sparse_matrix(rng, trials)
            product = x * y
            for t in range(len(trials)):
                assert _entries(product, t) == _schoolbook(x, y, t)

    def test_zero_divisor_terms_cancel_to_zero(self):
        # over d = 4, (2 + X)(2 - X) = 0 although neither factor is
        d = np.array([4])
        u, v = Batch(2, 1, d), Batch(2, P - 1, d)
        x, y = ediag(u, 1, u, 1, d), ediag(v, 1, 1, v, d)
        assert _entries(x * y, 0) == _entries(ediag(0, 1, u, v, d), 0) == _schoolbook(x, y, 0)
        assert _entries(x * y, 0)[0][0] == (0, 0)

    def test_plain_scalars_are_coerced_like_quadcoeffs(self):
        d = np.array([5, 7])
        row = [0, 1, -3, P + 5]
        plain = cosets.matrix([row] * 4, d)
        lifted = cosets.matrix([[Batch(np.full(2, e % P), 0, d) for e in row]] * 4, d)
        for t in range(2):
            assert _entries(plain, t) == _entries(lifted, t) == [[(0, 0), (1, 0), (P - 3, 0), (5, 0)]] * 4


# The eight cells' unipotent parts as explicit loops, the first loop
# outermost, and their Weyl words: the reference that the table
# ``cosets._CELLS`` and the formula ``cosets._unipotent`` must reproduce.
_REFERENCE_WORDS = {
    1: (),
    2: (cosets.S1,),
    3: (cosets.S2,),
    4: (cosets.S1, cosets.S2),
    5: (cosets.S2, cosets.S1),
    6: (cosets.S1, cosets.S2, cosets.S1),
    7: (cosets.S2, cosets.S1, cosets.S2),
    8: (cosets.S1, cosets.S2, cosets.S1, cosets.S2),
}


def _reference_unipotents(family: int, p: int):
    rng = range(p)
    if family == 1:
        yield ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    elif family == 2:
        for x in rng:
            yield ((1, 0, 0, 0), (x, 1, 0, 0), (0, 0, 1, -x), (0, 0, 0, 1))
    elif family == 3:
        for x in rng:
            yield ((1, 0, x, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    elif family == 4:
        for x in rng:
            for y in rng:
                yield ((1, 0, 0, 0), (x, 1, 0, y), (0, 0, 1, -x), (0, 0, 0, 1))
    elif family == 5:
        for x in rng:
            for y in rng:
                yield ((1, 0, x, y), (0, 1, y, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    elif family == 6:
        for x in rng:
            for y in rng:
                for z in rng:
                    yield (
                        (1, 0, 0, y),
                        (x, 1, y, x * y + z),
                        (0, 0, 1, -x),
                        (0, 0, 0, 1),
                    )
    elif family == 7:
        for x in rng:
            for y in rng:
                for z in rng:
                    yield ((1, 0, x, y), (0, 1, y, z), (0, 0, 1, 0), (0, 0, 0, 1))
    elif family == 8:
        for w in rng:
            for x in rng:
                for y in rng:
                    for z in rng:
                        yield (
                            (1, 0, x, y),
                            (w, 1, w * x + y, w * y + z),
                            (0, 0, 1, -w),
                            (0, 0, 0, 1),
                        )


class TestBruhatReps:
    def test_count_p2(self):
        assert len(bruhat_reps(2)) == 45

    def test_count_p3(self):
        assert len(bruhat_reps(3)) == 640

    def test_counts_match_both_formulas(self):
        for p in (2, 3):
            assert expected_rep_count(p) == (p**2 - 1) * (p**4 - 1)

    def test_torus_family_alone(self, monkeypatch):
        monkeypatch.setattr(cosets, "_CELLS", {1: cosets._CELLS[1]})
        for p in (2, 3):
            assert len(bruhat_reps(p)) == (p - 1) ** 2

    def test_count_polynomial_identity(self):
        assert count_polynomial_identity()

    def test_large_p_rejected(self):
        with pytest.raises(ValueError):
            bruhat_reps(5)

    def test_non_symplectic_rejected(self):
        bad = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert kernels.preserves_form([_flat(bad), IDENTITY], cosets.J4, 3).tolist() == [False, True]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_table_reproduces_the_reference_families(self, p):
        assert list(cosets._CELLS) == list(_REFERENCE_WORDS)
        for family, (word, free) in cosets._CELLS.items():
            assert word == _REFERENCE_WORDS[family]
            assert cosets._unipotents(free, p) == list(_reference_unipotents(family, p))

    @pytest.mark.parametrize("p", [2, 3])
    def test_batch_equals_scalar_construction(self, p):
        # The representatives one scalar product at a time: torus * unipotent,
        # then one product per letter of the Weyl word, in family, torus,
        # unipotent order.
        reference = []
        for family, word in _REFERENCE_WORDS.items():
            for a1 in range(1, p):
                for a2 in range(1, p):
                    t = _flat(cosets._torus(a1, a2, p))
                    for u in _reference_unipotents(family, p):
                        g = mat_mul_mod(t, _flat(u), p)
                        for s in word:
                            g = mat_mul_mod(g, _flat(s), p)
                        reference.append(g)
        reps = bruhat_reps(p)
        assert reps.dtype == np.uint8 and reps.shape == (len(reference), 16)
        assert [tuple(r) for r in reps.tolist()] == reference

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_family_8_unipotents_are_the_level_subgroup(self, p):
        family8 = kernels._batch(cosets._unipotents(cosets._CELLS[8][1], p), p)
        assert len(family8) == p**4
        assert sorted(family8.tolist()) == ksharp_mod_p(p).tolist()

    def test_non_symplectic_representative_raises(self, monkeypatch):
        bad = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        monkeypatch.setattr(cosets, "_CELLS", {2: ((bad,), "w")})
        with pytest.raises(ValueError, match="symplectic"):
            bruhat_reps(3)


class TestCosetAudit:
    def test_p2_full_audit(self):
        report = coset_audit(2)
        assert report.group_order == 720
        assert report.subgroup_order == 16
        assert report.rep_count == 45
        assert report.passed and report.witness is None

    def test_p3_full_audit(self):
        report = coset_audit(3)
        assert report.group_order == sp4_order(3) == 51840
        assert report.subgroup_order == 81
        assert report.rep_count == 640
        assert report.passed

    @pytest.mark.parametrize("p", [2, 3])
    def test_missing_representative_fails_the_count(self, monkeypatch, p):
        reps = cosets.bruhat_reps
        monkeypatch.setattr(cosets, "bruhat_reps", lambda p: reps(p)[:-1])
        report = coset_audit(p)
        assert not report.passed
        assert report.covers_group is False
        assert report.rep_count == expected_rep_count(p) - 1
        assert report.pairwise_distinct and report.witness is None
        assert report.positions is None and report.families is None

    @pytest.mark.parametrize("p", [2, 3])
    def test_extra_row_past_the_cells_fails_with_no_family(self, monkeypatch, p):
        """A copy of row 3 appended after the last cell: a failing report
        whose second position has no family, not an IndexError."""
        reps = cosets.bruhat_reps
        monkeypatch.setattr(cosets, "bruhat_reps", lambda p: np.concatenate([reps(p), reps(p)[3:4]]))
        report = coset_audit(p)
        n = expected_rep_count(p)
        assert not report.passed
        assert report.pairwise_distinct is False
        assert report.rep_count == n + 1
        assert report.positions == (3, n)
        assert report.families[1] is None and report.families[0] is not None
        assert report.witness == tuple(reps(p)[3].tolist())

    def test_large_p_rejected_by_the_representative_guard(self):
        with pytest.raises(ValueError, match="p in {2, 3}"):
            coset_audit(5)

    def test_identity_is_a_member(self):
        assert ksharp_mod_p_member(IDENTITY, 2)
        assert ksharp_mod_p_member(IDENTITY, 3)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("control", ["real", "duplicated", "missing"])
    def test_key_verdict_agrees_with_the_counting_oracle(self, monkeypatch, p, control):
        reps = bruhat_reps(p)
        if control == "duplicated":
            reps = reps.copy()
            reps[1] = reps[0]
        elif control == "missing":
            reps = reps[:-1]
        monkeypatch.setattr(cosets, "bruhat_reps", lambda p: reps)
        report = coset_audit(p)
        subgroup = ksharp_mod_p(p)
        distinct, duplicate = mark_products(reps, subgroup, p)
        assert report.passed == (control == "real")
        assert report.passed == (distinct == sp4_order(p) and duplicate is None)
        assert len(np.unique(coset_keys(reps, p))) * len(subgroup) == distinct
        assert report.pairwise_distinct == (duplicate is None)
        assert (report.witness is None) == (duplicate is None)
        if duplicate is not None:
            # the repeated product lies in the witness's coset
            assert report.witness == tuple(reps[1].tolist())
            assert coset_keys(duplicate, p) == coset_keys(report.witness, p)
            # family 1 holds the (p - 1)**2 tori, one row at p = 2
            assert report.positions == (0, 1)
            assert report.families == ((1, 1) if p == 3 else (1, 2))
        else:
            assert report.positions is None and report.families is None

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("free", ["wxz", "wxy", "xyz", "wxyz", "xz"])
    def test_misstated_cell_fails_the_audit(self, monkeypatch, p, free):
        # family 6's free coordinates are "wyz"; with x free, or y or z
        # fixed at 0, two of its representatives share a coset
        cells = dict(cosets._CELLS)
        cells[6] = (cells[6][0], free)
        monkeypatch.setattr(cosets, "_CELLS", cells)
        report = coset_audit(p)
        assert not report.passed and report.pairwise_distinct is False
        i, j = report.positions
        assert i < j and report.families == (6, 6)
        assert report.witness == tuple(bruhat_reps(p)[j].tolist())
        assert coset_keys(bruhat_reps(p)[i], p) == coset_keys(report.witness, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_carved_subgroup_fixes_the_key(self, p):
        # the shape the key rests on: middle entry 1, column 2 e2 and
        # column 1 e1 + c e2, so every k has the identity's key
        carved = _audit_subgroup(p)
        assert (carved[:, 5] == 1).all()
        assert (coset_keys(carved, p) == coset_keys(IDENTITY, p)).all()

    @pytest.mark.parametrize("p", [2, 3])
    def test_subgroup_without_a_generator_fails_the_cover(self, monkeypatch, p):
        # ksharp_mod_p's generators but the one with a 1 at flat index 2
        gens = [
            (1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1),
            (1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
            (1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, -1, 0, 0, 0, 1),
        ]

        def smaller(p):
            return group_closure(gens, p, max_size=p**4)

        assert len(smaller(p)) == p**3
        monkeypatch.setattr(cosets, "ksharp_mod_p", smaller)
        report = coset_audit(p)
        assert not report.passed
        assert report.covers_group is False and report.subgroup_order == p**3
        assert report.subgroup_closed and report.pairwise_distinct

    @pytest.mark.parametrize("p", [2, 3])
    def test_non_member_in_the_subgroup_fails_closure(self, monkeypatch, p):
        subgroup = ksharp_mod_p(p).copy()
        subgroup[-1] = _flat(cosets.S1)  # symplectic, but not a member
        monkeypatch.setattr(cosets, "ksharp_mod_p", lambda p: subgroup)
        report = coset_audit(p)
        assert not report.passed
        assert report.subgroup_closed is False

    def test_audit_forms_no_products_with_the_subgroup(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the audit multiplied rep * k")

        monkeypatch.setattr(kernels, "mark_products", refuse)
        assert coset_audit(3).passed


def _sp4_generators(p: int) -> list:
    """Flat generators of Sp4(F_p) for p in {2, 3}."""
    gens = [
        _flat(cosets.S1),
        _flat(cosets.S2),
        (1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, -1, 0, 0, 0, 1),
        (1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    ]
    if p > 2:
        g = 2  # generates F_3^x
        gens += [_flat(cosets._torus(g, 1, p)), _flat(cosets._torus(1, g, p))]
    return gens


def _audit_group(p):
    """All of Sp4(F_p), by closure from generators: the test oracle for the
    level subgroup and the key audit, which never builds the group."""
    return group_closure(_sp4_generators(p), p, max_size=sp4_order(p))


def _audit_subgroup(p):
    group = _audit_group(p)
    return group[ksharp_mod_p_member(group, p)]


class TestEnumeratedGroupOracle:
    @pytest.mark.parametrize("p", [2, 3])
    def test_group_has_the_formula_order(self, p):
        assert len(_audit_group(p)) == sp4_order(p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_carved_subgroup_is_the_audits_subgroup(self, p):
        carved = _audit_subgroup(p)
        built = ksharp_mod_p(p)
        assert built.dtype == carved.dtype and built.shape == carved.shape
        assert built.tolist() == carved.tolist()


class TestKernels:
    def test_duplicate_witness_is_first_repeat(self):
        reps = [tuple(r) for r in bruhat_reps(2).tolist()]
        reps.insert(5, reps[3])
        group = [tuple(m) for m in _audit_group(2).tolist()]
        subgroup = sorted(m for m in group if ksharp_mod_p_member(m, 2))
        distinct, duplicate = mark_products(reps, subgroup, 2)
        assert distinct == 720
        assert duplicate == (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)
        assert all(type(v) is int for v in duplicate)

    def test_closure_past_max_size_raises(self):
        sub = _audit_subgroup(3)
        with pytest.raises(RuntimeError):
            group_closure(sub[:-1], 3, max_size=len(sub) - 1)

    def test_batch_membership_agrees_with_single(self):
        group = _audit_group(2)
        mask = ksharp_mod_p_member(group, 2)
        assert mask.tolist() == [ksharp_mod_p_member(tuple(m), 2) for m in group.tolist()]
        assert mask.sum() == 16

    def test_membership_rejects_each_failed_condition(self):
        # a nonzero off-block entry, a corner entry != 1, unequal middle entries
        for index, value in ((14, 1), (0, 2), (15, 2), (10, 2)):
            m = list(IDENTITY)
            m[index] = value
            assert not ksharp_mod_p_member(m, 3)
        zero_mu = list(IDENTITY)
        zero_mu[5] = zero_mu[10] = 0
        assert ksharp_mod_p_member([IDENTITY, zero_mu], 3).tolist() == [True, False]

    def test_large_p_rejected(self):
        with pytest.raises(ValueError):
            group_closure([IDENTITY], 17, max_size=1)

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    def test_matches_loop_reference(self, p):
        # superdiagonal elementary matrices: the unitriangular group (order
        # p^6), or for p = 13 a Heisenberg subgroup (order p^3)
        rng = random.Random(p)
        gens = []
        for i in range(3 if p < 13 else 2):
            g = list(IDENTITY)
            g[5 * i + 1] = rng.randrange(1, p)
            gens.append(tuple(g))
        group, frontier = {IDENTITY}, [IDENTITY]
        while frontier:
            frontier = list({mat_mul_mod(f, g, p) for f in frontier for g in gens} - group)
            group.update(frontier)
        closure = group_closure(gens, p, max_size=len(group))
        assert [tuple(m) for m in closure.tolist()] == sorted(group)

        elements = sorted(group)
        reps = [rng.choice(elements) for _ in range(20)]
        subgroup = elements[:: max(1, len(elements) // 30)]
        seen, duplicate = set(), None
        for prod in (mat_mul_mod(r, k, p) for r in reps for k in subgroup):
            if prod in seen and duplicate is None:
                duplicate = prod
            seen.add(prod)
        assert mark_products(reps, subgroup, p) == (len(seen), duplicate)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sorted_codes_match_the_numpy_set_operations(self, seed, p):
        # The np.unique closure and marks against a reference that grows
        # the group by np.isin of each round's codes in the codes known and
        # sorts it once at the end, on SplitMix64-drawn batches with planted
        # duplicates at both audited primes.
        mix = SplitMix64(seed)
        codes = kernels._codes

        def unique_closure(gens, max_size):
            gens = kernels._batch(gens, p)
            group = kernels._batch(IDENTITY, p)
            group_codes, frontier = codes(group, p), group
            while len(frontier):
                prods = kernels.products(frontier, gens, p)
                found, first = np.unique(codes(prods, p), return_index=True)
                fresh = ~np.isin(found, group_codes)
                frontier = prods[first[fresh]]
                group = np.concatenate([group, frontier])
                group_codes = np.concatenate([group_codes, found[fresh]])
                assert len(group) <= max_size
            return group[np.argsort(group_codes)]

        def unique_marks(reps, subgroup):
            prods = kernels.products(reps, subgroup, p)
            found = codes(prods, p)
            first = np.unique(found, return_index=True)[1]
            repeated = np.ones(len(found), dtype=bool)
            repeated[first] = False
            return len(first), tuple(prods[np.argmax(repeated)].tolist()) if repeated.any() else None

        gens = [mix.choice(_sp4_generators(p)) for _ in range(3)]
        gens.insert(1, gens[2])  # a generator given twice
        closure = group_closure(gens, p, max_size=sp4_order(p))
        assert closure.tolist() == unique_closure(gens, sp4_order(p)).tolist()

        level = ksharp_mod_p(p)
        reps = [tuple(mix.below(p) for _ in range(16)) for _ in range(40)]
        subgroup = [level[mix.below(len(level))] for _ in range(30)]
        for i in range(4):  # plant repeated reps and subgroup members
            reps[10 + 7 * i] = reps[mix.below(10 + 7 * i)]
            subgroup[5 + 6 * i] = subgroup[mix.below(5 + 6 * i)]
        got = mark_products(reps, subgroup, p)
        assert got == unique_marks(reps, subgroup)
        assert got[1] is not None
        assert mark_products(reps[:1], subgroup[:1], p) == unique_marks(reps[:1], subgroup[:1])

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    def test_products_and_form_match_scalar_reference(self, p):
        rng = random.Random(100 + p)

        def draw():
            return tuple(rng.randrange(-p, 2 * p) for _ in range(16))

        left = [draw() for _ in range(6)]
        right = [draw() for _ in range(5)]
        batch = kernels.products(left, right, p)
        assert [tuple(m) for m in batch.tolist()] == [
            mat_mul_mod(a, b, p) for a in left for b in right
        ]

        # random words in integral symplectic generators, mixed with random matrices
        gens = _sp4_generators(2)
        mats = []
        for _ in range(12):
            g = IDENTITY
            for _ in range(8):
                g = mat_mul_mod(g, rng.choice(gens), p)
            mats += [g, draw()]

        def transpose(m):
            return tuple(m[4 * j + i] for i in range(4) for j in range(4))

        for form in (_flat(cosets.J4), draw()):
            want = [
                mat_mul_mod(mat_mul_mod(transpose(g), form, p), g, p)
                == tuple(v % p for v in form)
                for g in mats
            ]
            assert kernels.preserves_form(mats, form, p).tolist() == want
        assert kernels.preserves_form(mats, cosets.J4, p)[::2].all()


def _readme_splitmix64(seed):
    """SplitMix64 written from README "The seeded generator" alone."""
    state = seed % 2**64
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        yield z ^ (z >> 31)


def _patch_draws(monkeypatch, change):
    """Pass each chunk of draws through ``change`` before the route sees it;
    returns the list of chunk sizes drawn."""
    sizes = []
    draw = cosets.draw_residues

    def patched(rng, which, n):
        draws = draw(rng, which, n)
        change(draws)
        sizes.append(n)
        return draws

    monkeypatch.setattr(cosets, "draw_residues", patched)
    return sizes


def _add_one(monkeypatch, i, j, where=lambda draws: True):
    """The one-entry control: 1 added to rhs entry (i, j) wherever ``where``."""
    sides = cosets.identity_sides

    def patched(which, draws):
        lhs, rhs, valid = sides(which, draws)
        rhs.x0[:, i, j] = (rhs.x0[:, i, j] + np.asarray(where(draws), dtype=np.uint64)) % P
        return lhs, rhs, valid

    monkeypatch.setattr(cosets, "identity_sides", patched)


class TestMatrixIdentities:
    @pytest.mark.parametrize("which", IDENTITY_NAMES)
    def test_identity_holds(self, which):
        assert verify_matrix_identity(which, trials=15, seed=7)

    def test_identity_i_by_hand(self):
        # (a, b, c) = (1, 0, 1): d = -4 and alpha = (b + X)/(2c) = X/2, with u = 3
        d = np.array([-4 % P])
        alpha, u = Batch(0, 1, d) / 2, Batch(3, 0, d)
        root = alpha * alpha + 1  # c alpha^2 - b alpha + a
        assert (root.x0, root.x1) == (0, 0)
        torus = ediag(1, u, 1, 1 / u, d)
        lhs = eta_matrix(alpha, 1) * torus
        rhs = torus * eta_matrix(alpha, 1 / u)
        assert (lhs.x0 == rhs.x0).all() and (lhs.x1 == rhs.x1).all()
        # entry (1, 0) is alpha = X/2, entry (2, 3) is -conj(alpha)/u = X/6
        assert (lhs.x0[0, 1, 0], lhs.x1[0, 1, 0]) == (0, pow(2, -1, P))
        assert (lhs.x0[0, 2, 3], lhs.x1[0, 2, 3]) == (0, pow(6, -1, P))

    def test_degenerate_draw_raised(self, monkeypatch):
        chunks = []

        def v_vanishes_first(draws):
            if not chunks:
                # a = -2 and b = c = u = w = 1: v = a + b uw + c (uw)^2 = 0, d = 9
                for name, value in dict(a=P - 2, b=1, c=1, u=1, w=1, d=9).items():
                    draws[name][0] = value
            chunks.append(draws)

        sizes = _patch_draws(monkeypatch, v_vanishes_first)
        assert verify_matrix_identity("m0-equiv", trials=5, seed=7)
        assert sizes == [5, 1]
        assert identity_sides("m0-equiv", chunks[0])[2].tolist() == [False] + [True] * 4

        sizes = _patch_draws(monkeypatch, lambda draws: draws["c"].fill(0))
        with pytest.raises(RuntimeError, match="too many degenerate draws"):
            verify_matrix_identity("i", trials=3, seed=7)
        assert sum(sizes) == 40 * 3

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            verify_matrix_identity("iii")

    def test_unknown_identity_has_no_sides(self):
        draws = cosets.draw_residues(SplitMix64(7), "ii", 3)
        with pytest.raises(ValueError, match="unknown identity 'bogus'"):
            identity_sides("bogus", draws)

    def test_broken_torus_fails_every_identity(self, monkeypatch):
        ediag_ok = cosets.ediag

        def ediag_doubled(t1, t2, t3, t4, d):
            return ediag_ok(t1, t2, t3, 2 * t4, d)

        monkeypatch.setattr(cosets, "ediag", ediag_doubled)
        for which in IDENTITY_NAMES:
            assert not verify_matrix_identity(which, trials=5, seed=7), which

    def test_eta_without_conjugate_fails_ii_and_vi(self, monkeypatch):
        def eta_unconjugated(alpha, scale):
            a = alpha * scale
            return cosets.matrix(
                [[1, 0, 0, 0], [a, 1, 0, 0], [0, 0, 1, -a], [0, 0, 0, 1]], alpha.d
            )

        monkeypatch.setattr(cosets, "eta_matrix", eta_unconjugated)
        assert not verify_matrix_identity("ii", trials=5, seed=7)
        assert not verify_matrix_identity("vi", trials=5, seed=7)
        # identity i holds for any alpha, and the equivalences never use eta
        for which in ("i", "m0-equiv", "mpos-equiv"):
            assert verify_matrix_identity(which, trials=5, seed=7), which

    def test_one_entry_control_fails_with_its_witness(self, monkeypatch):
        checks = dict(batteries.coset_checks(2, seed=7, trials=5))
        for which in IDENTITY_NAMES:
            assert checks[f"cosets/identity/{which}"]() == (True, None)
        _add_one(monkeypatch, 2, 3)
        for k, which in enumerate(IDENTITY_NAMES):
            first = cosets.draw_residues(SplitMix64(7 ^ ((k + 1) * 0x9E3779B97F4A7C15)), which, 1)
            assert checks[f"cosets/identity/{which}"]() == (False, {
                "identity": which,
                "trial": 0,
                "residues": {name: int(first[name][0]) for name in cosets.IDENTITY_READS[which]},
                "entry": [2, 3],
            })

    def test_chunk_size_changes_no_verdict_or_witness(self, monkeypatch):
        def run(chunk):
            monkeypatch.setattr(cosets, "CHUNK", chunk)
            return [matrix_identity_witness(which, trials=60, seed=1) for which in IDENTITY_NAMES]

        # a quarter of the attempts degenerate (c = 0), so trials cross chunks
        _patch_draws(monkeypatch, lambda draws: draws["c"].__setitem__(draws["b"] % 4 == 0, 0))
        default = cosets.CHUNK
        assert run(default) == run(3) == [None] * 5
        # a control that fails only where a = 0 mod 8
        _add_one(monkeypatch, 1, 0, lambda draws: draws["a"] % 8 == 0)
        witnesses = run(default)
        assert run(3) == witnesses
        assert max(witness["trial"] for witness in witnesses) > 3 * 3

    def test_draws_follow_the_readme_definition(self, monkeypatch):
        seed, chunks, rngs = 1, [], []
        draw = cosets.draw_residues

        def recorded(rng, which, n):
            rngs.append(rng)
            draws = draw(rng, which, n)
            chunks.append({k: v.copy() for k, v in draws.items()})
            return draws

        monkeypatch.setattr(cosets, "draw_residues", recorded)
        for k, which in enumerate(IDENTITY_NAMES):
            chunks.clear()
            assert verify_matrix_identity(which, 5, seed)

            # key: seed XOR ((k + 1) * 0x9E3779B97F4A7C15) mod 2^64; below(n)
            # = output mod n; each attempt draws the identity's names but d,
            # in order, m = 1 + below(2) and the rest below P, and no more
            names = IDENTITY_READS[which][:-1]
            stream = _readme_splitmix64(seed ^ ((k + 1) * 0x9E3779B97F4A7C15))
            for draws in chunks:
                assert list(draws) == [*names, "d"]
                for t in range(len(draws["a"])):
                    want = [1 + next(stream) % 2 if name == "m" else next(stream) % P for name in names]
                    assert [int(draws[name][t]) for name in names] == want, which
                    a, b, c = want[:3]
                    assert draws["d"][t] == (b * b - 4 * a * c) % P
            assert rngs[-1].next_u64() == next(stream), which
        assert set(draw(SplitMix64(seed), "i", 3)) == {"a", "b", "c", "u", "pm", "d"}

    def test_drawn_alpha_solves_its_quadratic_over_integer_d(self, monkeypatch):
        chunks, alphas = [], []
        _patch_draws(monkeypatch, chunks.append)
        eta = cosets.eta_matrix
        monkeypatch.setattr(
            cosets, "eta_matrix", lambda alpha, scale: alphas.append(alpha) or eta(alpha, scale)
        )
        assert verify_matrix_identity("i", trials=300, seed=20260816)
        draws, alpha = chunks[0], alphas[0]
        assert len(draws["a"]) == 300
        a, b, c = (Batch(draws[name], 0, draws["d"]) for name in "abc")
        root = c * alpha * alpha - b * alpha + a  # in F_P[X]/(X^2 - d)
        assert not root.x0.any() and not root.x1.any()


class TestVolumes:
    def test_base_point_inert(self):
        local = twisted_local(2, SplittingSymbol.INERT)
        assert volume_V1(local, 0, 0) == rat(1, 15)

    def test_m1_pair_and_cancellation(self):
        local = twisted_local(2, SplittingSymbol.INERT)
        v1 = volume_V1(local, 0, 1)
        v2 = volume_V2(local, 0, 1)
        assert v1 == rat(16, 15) and v2 == rat(32, 15)
        assert v1 - rat(1, 2) * v2 == 0

    def test_cancellation_grid(self):
        for q in (2, 3):
            for symbol in SplittingSymbol:
                local = twisted_local(q, symbol)
                for l in range(4):
                    for m in range(1, 4):
                        lhs = volume_V1(local, l, m)
                        rhs = rat(1, q) * volume_V2(local, l, m)
                        assert lhs == rhs

    def test_v2_needs_positive_m(self):
        local = twisted_local(3, SplittingSymbol.SPLIT)
        with pytest.raises(ValueError):
            volume_V2(local, 0, 0)

    def test_level_subgroup_volume(self):
        assert vol_k_sharp(2) == rat(1, 45)

    def test_unit_index_bridge(self):
        for q in (2, 3, 5):
            for symbol in SplittingSymbol:
                local = twisted_local(q, symbol)
                for l in (0, 1, 2):
                    bridged = (
                        volume_V1(local, l, 0)
                        * (q + 1)
                        * (q**4 - 1)
                        / rat(q) ** (3 * l + 1)
                    )
                    assert bridged == 1 - rat(int(symbol), q)
                    assert bridged == unit_index(local, 1) / q
