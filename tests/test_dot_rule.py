"""The product rule of the kinematics, retargeting, simulator and MLP paths:
a 1-D or 2-D product is written `a.dot(b)`, which costs about half the call
overhead of `a @ b`. Both reach the same BLAS routine, so the results are the
same bytes. Every operand shape those paths use is checked here over seeded
random draws: if a numpy or BLAS upgrade ever splits the two, this test names
the shape, rather than every pinned artifact digest failing at once. The
same holds for the one summation rule the retarget gradient relies on.
"""
import numpy as np
import pytest

DRAWS = 2000


def T(*shape):
    """A transposed view of a C-contiguous array, `shape` being the view's shape."""
    return ("T", shape)


# (left, right) operand: a shape, or T(shape) for a transposed view
CASES = [
    *[((d,), (d,)) for d in (3, 9, 16, 22, 30)],
    ((3, 3), (3,)),
    ((3,), (3, 3)),
    ((3, 3), (3, 3)),
    *[((3, 3), (3, d)) for d in (9, 16, 30)],
    (T(3, 3), (3,)),
    ((3,), T(3, 3)),
    ((3, 3), T(3, 3)),
    (T(3, 3), (3, 3)),
    *[((d, 3), (3,)) for d in (9, 22, 30)],
    *[(T(d, 3), (3,)) for d in (9, 22, 30)],
    *[((n, 3), T(3, 3)) for n in (1, 4, 8, 12)],
    *[((1, n), (n, 64)) for n in (40, 64)],
    *[((1, 64), (64, m)) for m in (1, 9, 22)],
    *[((b, 64), (64, m)) for b in (1, 7, 64) for m in (1, 22, 64)],
    *[(T(64, b), (b, m)) for b in (1, 7, 64) for m in (1, 22, 64)],
    *[((b, m), T(m, 64)) for b in (1, 7, 64) for m in (1, 22, 64)],
]


def draw(rng, spec):
    if spec[0] == "T":
        return draw(rng, spec[1][::-1]).T
    # a spread of magnitudes, so that rounding differs between summation orders
    return rng.standard_normal(spec) * 10.0 ** rng.uniform(-3.0, 3.0, size=spec)


def case_id(case):
    return " . ".join(f"{s[1]}T" if s[0] == "T" else str(s) for s in case)


@pytest.mark.parametrize("left, right", CASES, ids=map(case_id, CASES))
def test_dot_and_matmul_give_the_same_bytes(left, right):
    rng = np.random.default_rng(sum(map(ord, case_id((left, right)))))
    a = draw(rng, left)
    big = a.size * draw(rng, right).size > 1000
    for _ in range(DRAWS // 20 if big else DRAWS):
        a, b = draw(rng, left), draw(rng, right)
        got, want = a.dot(b), a @ b
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (a, b)
        if got.ndim == 2:  # `fk` writes its joint frames in place
            out = np.empty(got.shape)
            assert a.dot(b, out=out) is out
            assert out.tobytes() == want.tobytes(), (a, b)


@pytest.mark.parametrize("shape", [(3, 3), (4, 3)])
def test_product_of_a_matrix_and_its_own_transpose(shape):
    # one buffer on both sides, which BLAS may compute as a symmetric rank-k update
    rng = np.random.default_rng(3)
    for _ in range(DRAWS):
        v = draw(rng, shape)
        assert v.dot(v.T).tobytes() == (v @ v.T).tobytes()
        assert v.T.dot(v).tobytes() == (v.T @ v).tobytes()


@pytest.mark.parametrize("k", [1, 3, 5])
def test_outer_axis_sum_adds_rows_in_order(k):
    # the retarget gradient sums its per-target rows with one np.add.reduce,
    # which must give the bits of adding them to zeros one row at a time
    rng = np.random.default_rng(k)
    for _ in range(DRAWS):
        g = draw(rng, (k, 22))
        g[rng.random(g.shape) < 0.2] = -0.0
        want = np.zeros(22)
        for row in g:
            want += row
        assert np.add.reduce(g, axis=0, initial=0.0).tobytes() == want.tobytes()
