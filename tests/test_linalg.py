import dataclasses
import random

import pytest

from reference import (
    from_lists,
    greedy_completion,
    mul_vec_rows,
    nullspace,
    rank,
    stack,
)
from thlrecon.codes import bch_build
from thlrecon.errors import LinAlgError
from thlrecon.linalg import BinaryMatrix, full_rank_completion, invert, transpose


def test_full_rank_completion_examples():
    h = from_lists([[1, 0]])
    assert full_rank_completion(h) == from_lists([[0, 1]])

    h = from_lists([[1, 0, 1], [0, 1, 1]])
    assert full_rank_completion(h) == from_lists([[0, 0, 1]])

    ident = from_lists([[1, 0], [0, 1]])
    comp = full_rank_completion(ident)
    assert comp.rows == 0 and comp.cols == 2


def test_full_rank_completion_row_deficient():
    h = from_lists([[1, 1], [1, 1]])
    with pytest.raises(LinAlgError):
        full_rank_completion(h)


def test_full_rank_completion_random():
    rng = random.Random(3)
    for trial in range(30):
        n = rng.randint(2, 16)
        r = rng.randint(0, n)
        rows = []
        while len(rows) < r:
            cand = rng.getrandbits(n)
            if rank(BinaryMatrix(len(rows) + 1, n, rows + [cand])) == len(rows) + 1:
                rows.append(cand)
        h = BinaryMatrix(r, n, rows)
        comp = full_rank_completion(h)
        assert rank(stack(h, comp)) == n


def _random_matrix(rng):
    """Random rows of up to 40 columns, dense or sparse; a quarter of
    those with two or more rows get a zero row or a row that is the sum
    of two others."""
    n = rng.randint(1, 40)
    r = rng.randint(0, n)
    sparse = rng.random() < 0.5
    rows = [
        rng.getrandbits(n) & (rng.getrandbits(n) if sparse else -1) for _ in range(r)
    ]
    if r >= 2 and rng.random() < 0.25:
        i, j, k = (rng.randrange(r) for _ in range(3))
        rows[i] = rows[j] ^ rows[k] if j != k and i not in (j, k) else 0
    return BinaryMatrix(r, n, rows)


def test_full_rank_completion_matches_greedy_scan():
    rng = random.Random(5)
    deficient = 0
    for _ in range(1200):
        h = _random_matrix(rng)
        try:
            want = greedy_completion(h)
        except LinAlgError:
            deficient += 1
            with pytest.raises(LinAlgError):
                full_rank_completion(h)
            continue
        assert full_rank_completion(h) == want
    assert 100 < deficient < 1100


@pytest.mark.parametrize("n,e", [(63, 2), (127, 1), (255, 3), (511, 2)])
def test_full_rank_completion_of_bch_parity(n, e):
    h = bch_build(n, e).parity
    comp = full_rank_completion(h)
    assert comp == greedy_completion(h)
    assert comp.rows == n - h.rows
    invert(stack(h, comp))


def test_invert_roundtrip():
    rng = random.Random(11)
    n = 10
    while True:
        m = BinaryMatrix(n, n, [rng.getrandbits(n) for _ in range(n)])
        if rank(m) == n:
            break
    inv = invert(m)
    for _ in range(20):
        x = rng.getrandbits(n)
        assert inv.mul_vec(m.mul_vec(x)) == x


def test_invert_singular():
    with pytest.raises(LinAlgError):
        invert(from_lists([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    with pytest.raises(LinAlgError):
        invert(from_lists([[0, 0], [0, 1]]))
    with pytest.raises(ValueError):
        invert(from_lists([[1, 0]]))


def test_transpose():
    assert transpose([], 3) == [0, 0, 0]
    assert transpose([0b01, 0b11, 0b10], 2) == [0b011, 0b110]
    rng = random.Random(2)
    for _ in range(50):
        height = rng.randint(1, 70)
        rows = [rng.getrandbits(40) >> rng.randrange(40) for _ in range(height)]
        cols = transpose(rows, 40)
        assert all(
            (cols[j] >> i) & 1 == (row >> j) & 1
            for i, row in enumerate(rows)
            for j in range(40)
        )
        assert transpose(cols, len(rows)) == rows


def test_nullspace():
    m = from_lists([[1, 0, 1], [0, 1, 1]])
    assert m.row_data == (0b101, 0b110)
    assert m.mul_vec(0b110) == 0b01  # x = (0,1,1): rows give 1 and 1^1=0
    basis = nullspace(m)
    assert len(basis) == 1
    assert m.mul_vec(basis[0]) == 0 and basis[0] != 0


def test_mul_vec_matches_row_products():
    # widths 1..70 cover a partial last table at every offset; rows may
    # be zero, and so may the row count.  Heights below cols / 8 take row
    # parities, as H_l does at 18x511; hf_inv at 511x511 reads tables.
    rng = random.Random(8)
    shapes = [(h, c) for c in range(1, 71) for h in (0, 1, rng.randint(2, 90))]
    for height, cols in shapes + [(18, 511), (511, 511)]:
        rows = [rng.getrandbits(cols) for _ in range(height)]
        if height > 1:
            rows[rng.randrange(height)] = 0
        m = BinaryMatrix(height, cols, rows)
        xs = [0, (1 << cols) - 1] + [rng.getrandbits(cols) for _ in range(20)]
        for x in xs:
            assert m.mul_vec(x) == mul_vec_rows(m, x), (cols, height, x)
        assert bool(m.ensure_tables()) == (8 * height >= cols), (cols, height)


def test_matrix_rejects_rows_that_do_not_fit():
    with pytest.raises(ValueError, match="row count mismatch"):
        BinaryMatrix(2, 4, [1])
    with pytest.raises(ValueError, match="row wider than column count"):
        BinaryMatrix(1, 4, [1 << 4])


def test_matrix_equality_ignores_product_tables():
    m = BinaryMatrix(3, 8, [1, 2, 3])
    m.ensure_tables()
    assert m == BinaryMatrix(3, 8, (1, 2, 3))
    with pytest.raises(TypeError):
        hash(m)


def test_matrix_repr_gives_its_shape():
    assert repr(BinaryMatrix(3, 8, [1, 2, 3])) == "BinaryMatrix(3x8)"


def test_matrix_fields_cannot_be_assigned():
    # the product tables are built from the fields once, so assigning a
    # field after them would leave them stale; assignment raises instead
    rows = (0b1011, 0b0110, 0b1111)
    m = BinaryMatrix(3, 4, rows)
    assert m.ensure_tables()
    for name, value in (("rows", 2), ("cols", 8), ("row_data", (1, 2, 3))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, value)
    assert m.row_data == rows
    for x in range(1 << 4):
        assert m.mul_vec(x) == mul_vec_rows(BinaryMatrix(3, 4, rows), x)
