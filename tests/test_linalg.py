import random

import pytest

from reference import from_lists, nullspace
from thlrecon.errors import LinAlgError
from thlrecon.linalg import BinaryMatrix, full_rank_completion, invert, rank


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
        assert rank(h.stack(comp)) == n


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


def test_nullspace():
    m = from_lists([[1, 0, 1], [0, 1, 1]])
    assert m.row_data == (0b101, 0b110)
    assert m.mul_vec(0b110) == 0b01  # x = (0,1,1): rows give 1 and 1^1=0
    basis = nullspace(m)
    assert len(basis) == 1
    assert m.mul_vec(basis[0]) == 0 and basis[0] != 0
