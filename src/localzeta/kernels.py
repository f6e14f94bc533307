"""Mod-p arithmetic on 4x4 matrices for the coset audit.

A single matrix is a flat row-major 16-tuple of ints.  A batch is an
(n, 16) uint8 array of entries in [0, p); the batch functions reduce any
input that reshapes to (n, 16) to one.  ``products`` multiplies all pairs
of two batches with ``np.matmul`` on int16 views, ``preserves_form`` masks
the rows g with g^T F g = F, ``group_closure`` builds the level subgroup,
and ``mark_products`` counts every product rep*k (the tests' oracle for
the audit).  Each matrix has one int64 code, sum(entry_i * p**(15 - i));
the code is big-endian, so code order is the lexicographic order of the
tuples, and ``np.unique(codes, return_index=True)`` deduplicates a batch,
keeping each code's first occurrence.  The scalar ``mat_mul_mod`` is only
a reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

IDENTITY = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)

# Codes run up to p**16 - 1, which fits int64 for p <= 15; int16 product
# sums are at most 4 (p - 1)**2, far inside that range.
_MAX_P = 15


def backend_name() -> str:
    return "numpy"


def mat_mul_mod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """Product of two flat 4x4 matrices mod p, as a tuple of ints: the
    reference that the tests check ``products`` against and the benchmark times."""
    out = []
    for i in (0, 4, 8, 12):
        a0, a1, a2, a3 = a[i], a[i + 1], a[i + 2], a[i + 3]
        for j in (0, 1, 2, 3):
            out.append((a0 * b[j] + a1 * b[4 + j] + a2 * b[8 + j] + a3 * b[12 + j]) % p)
    return tuple(out)


def _batch(mats, p: int) -> np.ndarray:
    """An (n, 16) uint8 batch of the matrices reduced mod p."""
    if not 2 <= p <= _MAX_P:
        raise ValueError(f"mod-p kernels need 2 <= p <= {_MAX_P}, got p = {p}")
    return (np.asarray(mats, dtype=np.int64).reshape(-1, 16) % p).astype(np.uint8)


def _codes(batch: np.ndarray, p: int) -> np.ndarray:
    codes = np.zeros(len(batch), dtype=np.int64)
    for column in batch.T:  # Horner, one column at a time: no (n, 16) int64 copy
        codes = codes * p + column
    return codes


def products(left, right, p: int) -> np.ndarray:
    """All products l * r mod p, left-major, as an (len(left) * len(right), 16) batch."""
    a = _batch(left, p).astype(np.int16).reshape(-1, 1, 4, 4)
    b = _batch(right, p).astype(np.int16).reshape(1, -1, 4, 4)
    return (np.matmul(a, b) % p).astype(np.uint8).reshape(-1, 16)


def preserves_form(mats, form, p: int) -> np.ndarray:
    """Boolean mask of the matrices g with g^T * form * g = form mod p."""
    g = _batch(mats, p).astype(np.int16).reshape(-1, 4, 4)
    f = _batch(form, p).astype(np.int16).reshape(4, 4)
    gtf = np.matmul(np.swapaxes(g, 1, 2), f) % p  # reduce before the int16 product
    return (np.matmul(gtf, g) % p == f).all(axis=(1, 2))


def group_closure(gens, p: int, max_size: int) -> np.ndarray:
    """Closure of the generators under multiplication mod p.

    Breadth-first: repeatedly multiplies the frontier by every generator.
    Since the generated set is finite (a subgroup of GL4(F_p)) and every
    generator is invertible, closure under products equals the subgroup.
    Returns the group as a code-sorted (n, 16) uint8 batch.  Raises
    RuntimeError if the closure exceeds max_size.
    """
    gens = _batch(gens, p)
    group = frontier = _batch(IDENTITY, p)
    while len(frontier):
        both = np.concatenate([group, products(frontier, gens, p)])
        first = np.unique(_codes(both, p), return_index=True)[1]
        # the group's rows come first, so a first occurrence past them is new
        frontier = both[first[first >= len(group)]]
        group = both[first]
        if len(group) > max_size:
            raise RuntimeError(f"group closure exceeded {max_size} elements")
    return group


def mark_products(reps, subgroup, p: int) -> tuple[int, tuple[int, ...] | None]:
    """Mark every product rep*k; detect the first product reached twice.

    Returns (number of distinct products, first duplicated product or
    None); the duplicate is the earliest product, rep-major, whose value
    occurred before.  If the reps lie in pairwise distinct left cosets of
    the subgroup, no product repeats and the count is
    len(reps)*len(subgroup).
    """
    prods = products(reps, subgroup, p)
    first = np.unique(_codes(prods, p), return_index=True)[1]
    if len(first) == len(prods):
        return len(first), None
    repeated = np.ones(len(prods), dtype=bool)
    repeated[first] = False
    return len(first), tuple(prods[np.argmax(repeated)].tolist())
