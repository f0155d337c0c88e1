"""Engine tests: forward values against independent oracles, backward
against central finite differences and hand-derived gradients."""

import ast
import inspect

import numpy as np
import pytest
from mpmath import mp

from minis2s import tensor as T
from minis2s.errors import DimensionError, DomainError
from minis2s.losses import ctc_log_likelihood
from minis2s.tensor import Tensor, Graph, backward, grad_check, no_grad


def rnd(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


# ---------------------------------------------------------------- forward


def test_matmul_matches_numpy():
    a = rnd((3, 4), 0)
    b = rnd((4, 5), 1)
    out = a @ b
    np.testing.assert_allclose(out.data, a.data @ b.data, rtol=0, atol=0)


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3, 4), (4, 5)),            # rows of a batch times one matrix
    ((2, 3, 4), (2, 4, 5)),         # one matrix per batch entry
    ((2, 3, 1, 4), (3, 4, 2)),      # b broadcast over a's leading axis
    ((1, 3, 4), (2, 1, 4, 2)),      # both operands broadcast
])
def test_batched_matmul_matches_numpy_and_grad_checks(a_shape, b_shape):
    a, b = rnd(a_shape, 40), rnd(b_shape, 41)
    out = a @ b
    want = np.matmul(a.data, b.data)
    assert out.shape == want.shape
    np.testing.assert_allclose(out.data, want, rtol=1e-13, atol=1e-13)
    assert grad_check(lambda a, b: (T.tanh(a @ b)).sum(), [a, b]) < 1e-6


@pytest.mark.parametrize("a_shape", [(5, 1, 4), (2, 3, 4), (2, 1, 3, 4),
                                     (1, 4), (0, 2, 4)])
def test_matmul_folds_leading_axes_against_a_matrix(a_shape):
    # against a 2-D b the leading axes fold into rows of one gemm; the
    # forward and both gradients agree with np.matmul and the per-batch
    # products summed over the batch
    a, b = rnd(a_shape, 60), rnd((4, 3), 61)
    g = np.random.default_rng(62).standard_normal(a_shape[:-1] + (3,))
    out = a @ b
    np.testing.assert_allclose(out.data, np.matmul(a.data, b.data),
                               rtol=0, atol=1e-12)
    backward((out * Tensor(g)).sum())
    want_a = np.matmul(g, b.data.T)
    want_b = np.matmul(np.swapaxes(a.data, -1, -2), g)
    want_b = want_b.reshape(-1, 4, 3).sum(axis=0)
    assert a.grad.shape == a.shape and b.grad.shape == b.shape
    np.testing.assert_allclose(a.grad, want_a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, want_b, rtol=0, atol=1e-12)


def test_matmul_folded_grad_checks():
    a, b = rnd((2, 3, 4), 63), rnd((4, 5), 64)
    assert grad_check(lambda a, b: (T.tanh(a @ b)).sum(), [a, b]) < 1e-6


@pytest.mark.parametrize("d,k", [(128, 256), (7, 13), (1, 1)])
def test_one_row_weight_gradient_equals_gemm_bit_for_bit(d, k):
    # every entry of a K = 1 gemm is one product, so a batch of one row
    # gets the outer product x_i * dz_j exactly
    rng = np.random.default_rng(d + k)
    x, dz = rng.standard_normal((1, d)), rng.standard_normal((1, k))
    a, b = Tensor(x, requires_grad=True), rnd((d, k), 65)
    backward((a @ b * Tensor(dz)).sum())
    assert np.array_equal(b.grad, np.multiply(x.T, dz))


def test_batched_matmul_rejects_mismatched_axes():
    with pytest.raises(DimensionError):
        _ = rnd((2, 3, 4), 42) @ rnd((3, 4, 5), 43)
    with pytest.raises(DimensionError):
        _ = rnd((2, 3, 4), 42) @ rnd((2, 3, 5), 44)
    with pytest.raises(DimensionError):
        _ = rnd((4,), 42) @ rnd((4, 5), 45)


def test_transpose_swaps_last_axes():
    x = rnd((2, 3, 4), 46)
    np.testing.assert_array_equal(T.transpose(x).data,
                                  np.swapaxes(x.data, -1, -2))
    w = Tensor(np.random.default_rng(47).standard_normal((2, 4, 3)))
    f = lambda x: (T.transpose(x) * w).sum()
    assert grad_check(f, [x]) < 1e-6
    with pytest.raises(DimensionError):
        T.transpose(rnd((4,), 48))


def test_leading_axis_broadcast_add_and_mul_grad_check():
    a, b = rnd((2, 1, 4), 48), rnd((3, 4), 49)
    np.testing.assert_array_equal((a + b).data, a.data + b.data)
    assert grad_check(lambda a, b: T.tanh(a + b).sum(), [a, b]) < 1e-6
    assert grad_check(lambda a, b: T.tanh(a * b).sum(), [a, b]) < 1e-6


def test_softmax_against_extended_precision():
    # Oracle: 50-digit arithmetic, independent of the implementation.
    mp.dps = 50
    logits = [1.25, -0.5, 3.0, 0.0]
    es = [mp.e ** v for v in logits]
    s = sum(es)
    want = np.array([float(e / s) for e in es])
    got = T.softmax(Tensor(logits)).data
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    assert abs(got.sum() - 1.0) < 1e-15


def test_log_softmax_consistent_with_softmax():
    x = rnd((4, 7), 2, scale=3.0)
    ls = T.log_softmax(x).data
    np.testing.assert_allclose(np.exp(ls), T.softmax(x).data, rtol=1e-14, atol=1e-300)
    np.testing.assert_allclose(np.exp(ls).sum(axis=-1), 1.0, rtol=1e-14)


def test_softmax_stable_for_huge_logits():
    out = T.softmax(Tensor([1000.0, 1000.0, -1000.0])).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[:2], 0.5, rtol=1e-15)
    assert out[2] == 0.0  # exp(-2000) underflows to exactly zero


def test_sigmoid_and_log_sigmoid_extremes():
    x = Tensor([-800.0, 0.0, 800.0])
    s = T.sigmoid(x).data
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s[1], 0.5)
    ls = T.log_sigmoid(x).data
    assert np.all(np.isfinite(ls))
    np.testing.assert_allclose(ls[0], -800.0)  # log sigmoid(x) -> x for x << 0
    np.testing.assert_allclose(ls[1], np.log(0.5), rtol=1e-15)


def test_relu_and_sigmoid_keep_the_bits_of_their_where_forms():
    # relu and sigmoid run without a data-dependent branch per element
    # (np.fmax, np.maximum); on signed zeros, NaNs, infinities,
    # subnormals and random data they give the bits of the np.where
    # forms they replace, and relu's gradient keeps the x > 0 mask
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                        5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0,
                        745.0, -745.0, 800.0, -800.0])
    noise = np.random.default_rng(7).standard_normal(4000) * 30.0

    def same_bits(a, b):
        return np.array_equal(a.view(np.int64), b.view(np.int64))

    # a ufunc's SIMD loop and its scalar remainder can treat a signed
    # zero differently, so each special value also fills arrays of 1 to
    # 33 elements
    cases = [np.concatenate([special, noise])]
    cases += [np.full(n, v) for v in special for n in range(1, 34)]
    for x in cases:
        a = Tensor(x, requires_grad=True)
        y = T.relu(a)
        assert same_bits(y.data, np.where(x > 0, x, 0.0))
        backward(T.tsum(y))
        assert same_bits(a.grad, np.ones_like(x) * (x > 0))
        e = np.exp(-np.abs(x))
        assert same_bits(T.sigmoid(Tensor(x)).data,
                         np.where(x >= 0, 1.0, e) / (1.0 + e))


def test_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        T.log(Tensor([1.0, 0.0]))
    with pytest.raises(DomainError):
        T.log(Tensor([-2.0]))


def test_conv1d_output_length_and_values():
    # length: floor((t + 2p - k)/s) + 1; t=7, k=3, s=2, p=1 -> 4
    t, c_in, c_out, k = 7, 2, 3, 3
    x = rnd((1, t, c_in), 3)              # one sequence, a batch of one
    w = rnd((c_out, c_in, k), 4)
    b = rnd((c_out,), 5)
    out = T.conv(x, w, b, stride=2, padding=1)
    assert out.shape == (1, 4, c_out)
    assert T.conv_len(t, k, 2, 1) == 4

    # Oracle: direct loop over window positions.
    xpad = np.pad(x.data[0], ((1, 1), (0, 0)))
    for i in range(4):
        for o in range(c_out):
            acc = b.data[o]
            for kk in range(k):
                for c in range(c_in):
                    acc += xpad[i * 2 + kk, c] * w.data[o, c, kk]
            assert abs(out.data[0, i, o] - acc) < 1e-12


def test_conv1d_kernel_too_large():
    with pytest.raises(DimensionError):
        T.conv(rnd((1, 2, 3), 0), rnd((1, 3, 7), 1), rnd((1,), 2),
               stride=2, padding=1)


def test_conv2d_values_against_loop():
    c_in, h, w = 2, 5, 6
    c_out, kh, kw = 3, 3, 3
    x = rnd((1, h, w, c_in), 6)           # one image, a batch of one
    wt = rnd((c_out, c_in, kh, kw), 7)
    out = T.conv(x, wt, Tensor(np.zeros(c_out)), stride=2, padding=1)
    h_out = (h + 2 - kh) // 2 + 1
    w_out = (w + 2 - kw) // 2 + 1
    assert out.shape == (1, h_out, w_out, c_out)
    xpad = np.pad(x.data[0], ((1, 1), (1, 1), (0, 0)))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    acc += np.sum(xpad[i * 2:i * 2 + kh, j * 2:j * 2 + kw, c]
                                  * wt.data[o, c])
                assert abs(out.data[0, i, j, o] - acc) < 1e-12


def test_max_pool2d_values():
    x = Tensor(np.arange(24, dtype=float).reshape(1, 4, 6, 1),
               requires_grad=True)
    out = T.max_pool2d(x, kernel=2)
    want = np.array([[[7, 9, 11], [19, 21, 23]]], dtype=float)[..., None]
    np.testing.assert_array_equal(out.data, want)


def test_layer_norm_normalizes_rows():
    x = rnd((5, 8), 8, scale=4.0)
    g = Tensor(np.ones(8), requires_grad=True)
    b = Tensor(np.zeros(8), requires_grad=True)
    out = T.layer_norm(x, g, b).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=-1), 1.0, rtol=1e-9)


def test_embedding_lookup_rows_and_oov():
    table = rnd((6, 3), 9)
    out = T.embedding_lookup([4, 0, 4], table)
    np.testing.assert_array_equal(out.data, table.data[[4, 0, 4]])
    with pytest.raises(IndexError):
        T.embedding_lookup([6], table)
    with pytest.raises(IndexError):
        T.embedding_lookup([-1], table)


def test_embedding_lookup_empty_prefix():
    table = rnd((6, 3), 10)
    out = T.embedding_lookup([], table)
    assert out.shape == (0, 3)


def test_reshape_concat_slice_transpose_roundtrip():
    x = rnd((4, 6), 12)
    assert x.reshape(3, 8).shape == (3, 8)
    assert T.transpose(x).shape == (6, 4)
    assert x[1:3].shape == (2, 6)
    assert x[:, 2:5].shape == (4, 3)
    assert x[1].shape == (6,) and x[1:3, 2].shape == (2,)
    np.testing.assert_array_equal(x[2].data, x.data[2])
    both = T.concat([x, x], axis=0)
    assert both.shape == (8, 6)
    np.testing.assert_array_equal(both.data[4:], x.data)



def test_integer_array_index_gathers_and_sums_repeated_gradients():
    x = rnd((4, 3, 2), 15)
    rows, cols = np.array([[3, 0], [3, 1]]), np.array([[2, 2], [2, 0]])
    np.testing.assert_array_equal(x[rows, cols].data, x.data[rows, cols])
    # (3, 2) is gathered twice, so its gradient is the sum of two terms
    assert grad_check(lambda t: T.tanh(t[rows, cols]).sum(), [x]) < 1e-6
    with pytest.raises(DimensionError):
        x[np.array([0.5])]

def test_broadcast_rules():
    a = rnd((3, 4), 13)
    v = rnd((4,), 14)
    s = Tensor(2.0, requires_grad=True)
    np.testing.assert_array_equal((a + v).data, a.data + v.data)
    np.testing.assert_array_equal((a * s).data, a.data * 2.0)
    with pytest.raises(DimensionError):
        _ = a + rnd((3,), 15)   # column broadcast not supported
    with pytest.raises(DimensionError):
        _ = a @ rnd((3, 4), 16)


# ---------------------------------------------------------------- backward


def test_hand_derived_simple_gradients():
    # f(x, y) = sum(x * y) + sum(x): df/dx = y + 1, df/dy = x
    x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    y = Tensor([[4.0, 0.25], [-1.0, 2.0]], requires_grad=True)
    loss = (x * y).sum() + x.sum()
    backward(loss)
    np.testing.assert_allclose(x.grad, y.data + 1.0, rtol=0, atol=0)
    np.testing.assert_allclose(y.grad, x.data, rtol=0, atol=0)


def test_matmul_hand_gradient():
    # d(sum(A@B))/dA = ones @ B^T, /dB = A^T @ ones
    a = rnd((3, 4), 17)
    b = rnd((4, 2), 18)
    loss = (a @ b).sum()
    backward(loss)
    ones = np.ones((3, 2))
    np.testing.assert_allclose(a.grad, ones @ b.data.T, rtol=1e-15)
    np.testing.assert_allclose(b.grad, a.data.T @ ones, rtol=1e-15)


def test_grad_check_detects_a_wrong_backward():
    # Sensitivity control: an op whose backward is off by 2x must fail,
    # with and without the absolute-agreement escape enabled.
    def broken_square(x):
        return T.from_op(x, np.asarray((x.data ** 2).sum()),
                         lambda g: g * 4.0 * x.data)  # correct factor is 2

    err = grad_check(broken_square, [rnd((3,), 19)])
    assert err > 0.3
    err = grad_check(broken_square, [rnd((3,), 19)], atol=1e-7)
    assert err > 0.3


EPS = 5e-6

UNARY_CASES = [
    ("relu", lambda x: T.relu(x).sum(), 1.0),
    ("tanh", lambda x: T.tanh(x).sum(), 1.0),
    ("sigmoid", lambda x: T.sigmoid(x).sum(), 2.0),
    ("exp", lambda x: T.exp(x).sum(), 1.0),
    ("abs", lambda x: T.absval(x).sum(), 1.0),
    ("mean", lambda x: x.mean(), 3.0),
    ("softmax", lambda x: (T.softmax(x) * T.softmax(x)).sum(), 2.0),
    ("log_softmax", lambda x: (T.log_softmax(x) * T.log_softmax(x)).sum(), 2.0),
    ("log_sigmoid", lambda x: T.log_sigmoid(x).sum(), 2.0),
    ("transpose", lambda x: (T.transpose(x) @ x).sum(), 1.0),
    ("reshape", lambda x: (x.reshape(x.size, 1) * x.reshape(x.size, 1)).sum(), 1.0),
    ("slice", lambda x: x[1:3, 0:2].sum(), 1.0),
    ("index", lambda x: (x[1] * x[2]).sum() + x[0, 1:3].sum(), 1.0),
]


@pytest.mark.parametrize("name,f,scale", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_grad_unary(name, f, scale):
    x = rnd((3, 4), hash(name) % 1000, scale=scale)
    if name == "relu" or name == "abs":
        # keep away from the kink
        x.data[np.abs(x.data) < 0.05] = 0.1
    assert grad_check(f, [x]) < EPS


def test_grad_log():
    x = Tensor(np.random.default_rng(20).uniform(0.2, 3.0, (3, 4)), requires_grad=True)
    assert grad_check(lambda t: T.log(t).sum(), [x]) < EPS


def test_grad_matmul_add_mul_chain():
    a = rnd((3, 4), 21)
    b = rnd((4, 2), 22)
    c = rnd((2,), 23)

    def f(a, b, c):
        return T.tanh(a @ b + c).sum()

    assert grad_check(f, [a, b, c]) < EPS


def test_grad_concat_and_pick():
    a = rnd((2, 5), 24)
    b = rnd((3, 5), 25)

    def f(a, b):
        cat = T.concat([a, b], axis=0)
        # one entry per row, as cross-entropy reads its targets
        picked = T.log_softmax(cat)[np.arange(5), np.array([0, 3, 1, 4, 2])]
        return picked.sum()

    assert grad_check(f, [a, b]) < EPS


def test_grad_layer_norm():
    x = rnd((4, 6), 26, scale=2.0)
    g = Tensor(np.random.default_rng(27).uniform(0.5, 1.5, 6), requires_grad=True)
    b = rnd((6,), 28)

    def f(x, g, b):
        return (T.layer_norm(x, g, b) * T.layer_norm(x, g, b)).sum()

    assert grad_check(f, [x, g, b]) < EPS


def _layer_norm_mean_form(x, gain, bias, g, eps=1e-12):
    """Layer norm written with ndarray.mean, and its gradients of x, gain
    and bias under the upstream gradient g: the reference that
    tensor.layer_norm's sums over d must equal bit for bit."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xc * ivar
    gh = g * gain
    m1 = gh.mean(axis=-1, keepdims=True)
    m2 = (gh * xhat).mean(axis=-1, keepdims=True)
    return (xhat * gain + bias, ivar * (gh - m1 - xhat * m2),
            (g * xhat).reshape(-1, d).sum(axis=0),
            g.reshape(-1, d).sum(axis=0))


@pytest.mark.parametrize("d", [1, 5, 64, 80])
@pytest.mark.parametrize("lead", [(3,), (2, 3), (2, 1, 3)],
                         ids=["rank2", "rank3", "rank4"])
def test_layer_norm_equals_the_mean_form_bit_for_bit(d, lead):
    rng = np.random.default_rng(100 + d + len(lead))
    shape = lead + (d,)
    x = Tensor(rng.standard_normal(shape) * 3.0 + 0.5, requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, d), requires_grad=True)
    bias = Tensor(rng.standard_normal(d), requires_grad=True)
    up = rng.standard_normal(shape)
    y = T.layer_norm(x, gain, bias)
    # the product's gradient hands y exactly `up`
    backward((y * Tensor(up)).sum())
    want = _layer_norm_mean_form(x.data, gain.data, bias.data, up)
    for got, w in zip((y.data, x.grad, gain.grad, bias.grad), want):
        assert got.shape == w.shape and got.tobytes() == w.tobytes()


def test_grad_conv1d():
    x = rnd((1, 7, 2), 29)
    w = rnd((3, 2, 3), 30)
    b = rnd((3,), 31)

    def f(x, w, b):
        return T.tanh(T.conv(x, w, b, stride=2, padding=1)).sum()

    assert grad_check(f, [x, w, b]) < EPS


def test_grad_conv2d_and_pool():
    x = rnd((1, 6, 5, 2), 32)
    w = rnd((3, 2, 3, 3), 33)

    def f(x, w):
        return T.max_pool2d(T.relu(T.conv(x, w, Tensor(np.zeros(3)),
                                          stride=1, padding=1)), 2).sum()

    assert grad_check(f, [x, w]) < EPS


def test_grad_embedding():
    table = rnd((5, 4), 34)

    def f(t):
        return T.tanh(T.embedding_lookup([1, 3, 1], t)).sum()

    assert grad_check(f, [table]) < EPS


def test_grad_check_coordinate_sampling():
    x = rnd((10, 10), 35)
    err = grad_check(lambda t: T.tanh(t).sum(), [x], max_coords=7, rng=3)
    assert err < EPS


def test_backward_twice_raises():
    x = rnd((3,), 36)
    loss = x.sum()
    backward(loss)
    with pytest.raises(RuntimeError):
        backward(loss)


def test_backward_accumulates_across_losses():
    x = rnd((3,), 37)
    backward(x.sum())
    g1 = x.grad.copy()
    backward((x * x).sum())
    np.testing.assert_allclose(x.grad, g1 + 2.0 * x.data, rtol=1e-15)


def test_backward_spends_the_tape():
    # an op result gives up its gradient and parents once its backward has
    # run; a later loss on it cannot reach the leaves, and says so
    x = rnd((3,), 40)
    h = x * 3.0
    backward((h * h).sum())
    np.testing.assert_allclose(x.grad, 18.0 * x.data, rtol=1e-15)
    assert h.grad is None and h._parents == ()
    with pytest.raises(RuntimeError, match="spent"):
        backward(h.sum())
    np.testing.assert_allclose(x.grad, 18.0 * x.data, rtol=1e-15)


def test_backward_needs_scalar():
    x = rnd((3,), 38)
    with pytest.raises(DimensionError):
        backward(x * x)


def test_diamond_graph_accumulates_once_per_path():
    # z = x*x used twice: loss = sum(z) + sum(z) -> grad = 4x
    x = rnd((4,), 39)
    z = x * x
    backward(z.sum() + z.sum())
    np.testing.assert_allclose(x.grad, 4.0 * x.data, rtol=1e-15)


def test_first_gradient_write_is_a_private_copy():
    # _add hands one array to both operands; z, made before y, reaches a
    # after y has, so an aliased first write would leak z's part into b
    a, b = rnd((2, 3), 46), rnd((2, 3), 47)
    z = a * Tensor(np.full((2, 3), 3.0))
    y = a + b
    backward(y.sum() + z.sum())
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
    # a transposed gradient is stored C-ordered
    m = rnd((3, 2), 48)
    backward(T.transpose(m).sum())
    assert m.grad.flags["C_CONTIGUOUS"]


def test_no_grad_builds_no_tape():
    x = rnd((3,), 40)
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad
    assert y._parents == ()


def _leaf(rng, *shape, scale=1.0, shift=0.0):
    return Tensor(rng.standard_normal(shape) * scale + shift,
                  requires_grad=True)


def _log_probs(rng, *shape):
    z = rng.standard_normal(shape)
    z -= z.max(axis=-1, keepdims=True)
    return Tensor(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)),
                  requires_grad=True)


def _lstm(rng, reverse):
    return T.lstm_scan(_leaf(rng, 3, 5, 2), _leaf(rng, 2, 12),
                       _leaf(rng, 3, 12), _leaf(rng, 12), [5, 2, 4], reverse)


# Small random cases of every op, by the name of the tensor.py function
# that records it; each makes its inputs from the rng it is given.
OP_CASES = {
    "_add": [lambda r: _leaf(r, 2, 3) + _leaf(r, 3),
             lambda r: _leaf(r, 2, 1, 3) + _leaf(r, 4, 1),
             lambda r: _leaf(r, 2, 3) + 1.5],
    "_mul": [lambda r: _leaf(r, 2, 3) * _leaf(r, 2, 1)],
    "_scale": [lambda r: _leaf(r, 2, 3) * 0.3, lambda r: -_leaf(r, 3)],
    "matmul": [lambda r: _leaf(r, 3, 4) @ _leaf(r, 4, 5),
               lambda r: _leaf(r, 1, 4) @ _leaf(r, 4, 5),
               lambda r: _leaf(r, 2, 3, 4) @ _leaf(r, 4, 5),
               lambda r: _leaf(r, 2, 3, 4) @ _leaf(r, 2, 4, 5)],
    "transpose": [lambda r: T.transpose(_leaf(r, 2, 3, 4))],
    "_slice": [lambda r: _leaf(r, 4, 3)[1:3, 0],
               lambda r: _leaf(r, 4, 3)[np.array([0, 2, 2])]],
    "reshape": [lambda r: _leaf(r, 2, 6).reshape(3, 4)],
    "concat": [lambda r: T.concat([_leaf(r, 2, 3), _leaf(r, 2, 1)], axis=1)],
    "relu": [lambda r: T.relu(_leaf(r, 3, 4))],
    "tanh": [lambda r: T.tanh(_leaf(r, 3, 4))],
    "sigmoid": [lambda r: T.sigmoid(_leaf(r, 3, 4, scale=5.0))],
    "exp": [lambda r: T.exp(_leaf(r, 3, 4))],
    "log": [lambda r: T.log(T.Tensor(r.uniform(0.1, 2.0, (3, 4)),
                                     requires_grad=True))],
    "absval": [lambda r: T.absval(_leaf(r, 3, 4))],
    "tsum": [lambda r: T.tsum(_leaf(r, 3, 4))],
    "tmean": [lambda r: T.tmean(_leaf(r, 3, 7))],
    "softmax": [lambda r: T.softmax(_leaf(r, 2, 3, 5))],
    "log_softmax": [lambda r: T.log_softmax(_leaf(r, 2, 3, 5))],
    "log_sigmoid": [lambda r: T.log_sigmoid(_leaf(r, 3, 4, scale=30.0))],
    "layer_norm": [lambda r: T.layer_norm(_leaf(r, 2, 3, 5), _leaf(r, 5),
                                          _leaf(r, 5))],
    "dropout": [lambda r: T.dropout(_leaf(r, 4, 6), 0.4, training=True)],
    "conv": [lambda r: T.conv(_leaf(r, 2, 7, 3), _leaf(r, 4, 3, 3),
                              _leaf(r, 4), stride=2, padding=1),
             lambda r: T.conv(_leaf(r, 2, 5, 6, 2), _leaf(r, 3, 2, 3, 3),
                              _leaf(r, 3), padding=1)],
    "max_pool2d": [lambda r: T.max_pool2d(_leaf(r, 2, 5, 7, 3), 2)],
    "embedding_lookup": [lambda r: T.embedding_lookup([[3, 0], [3, 1]],
                                                      _leaf(r, 4, 5))],
    "lstm_scan": [lambda r: _lstm(r, False), lambda r: _lstm(r, True)],
    "lstm_cell": [lambda r: T.lstm_cell(_leaf(r, 3, 2), _leaf(r, 3, 3),
                                        _leaf(r, 3, 3), _leaf(r, 2, 12),
                                        _leaf(r, 3, 12), _leaf(r, 12))],
    "attention_weights": [
        lambda r: T.attention_weights(_leaf(r, 2, 4, 6), _leaf(r, 2, 5, 6), 2),
        lambda r: T.attention_weights(
            _leaf(r, 2, 4, 6), _leaf(r, 2, 5, 6), 2,
            np.arange(5) < np.array([3, 0])[:, None, None, None]),
        lambda r: T.attention_weights(_leaf(r, 1, 5, 4), _leaf(r, 1, 5, 4),
                                      1, np.tril(np.ones((5, 5), bool)))],
    "mix_heads": [lambda r: T.mix_heads(T.softmax(_leaf(r, 2, 2, 4, 5)),
                                        _leaf(r, 2, 5, 6))],
    "ctc_log_likelihood": [lambda r: ctc_log_likelihood(
        _log_probs(r, 2, 6, 4), [[1, 2, 2], [3]], [6, 4])],
}


def test_every_recording_op_has_a_case():
    tree = ast.parse(inspect.getsource(T))
    recording = {fn.name for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name != "from_op"
                 and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                         and n.func.id in ("_result", "from_op")
                         for n in ast.walk(fn))}
    assert recording and recording <= set(OP_CASES)


@pytest.mark.parametrize("make", [
    pytest.param(make, id=f"{name}-{i}")
    for name, makes in OP_CASES.items() for i, make in enumerate(makes)])
def test_recording_does_not_change_the_data(make):
    with Graph(seed=1):
        recorded = make(np.random.default_rng(7))
    with no_grad(), Graph(seed=1):
        free = make(np.random.default_rng(7))
    assert recorded.requires_grad and recorded._grads is not None
    assert not free.requires_grad
    assert free._parents == () and free._grads is None
    assert recorded.shape == free.shape
    assert recorded.data.tobytes() == free.data.tobytes()


def test_zero_length_dims_allowed():
    x = Tensor(np.zeros((0, 4)), requires_grad=True)
    y = x @ rnd((4, 2), 41)
    assert y.shape == (0, 2)
    out = T.concat([y, rnd((3, 2), 42)], axis=0)
    assert out.shape == (3, 2)


# ---------------------------------------------------------------- graph rng


def test_dropout_deterministic_under_seed():
    x = rnd((50, 20), 43)
    outs = []
    for _ in range(2):
        with Graph(seed=7):
            outs.append(T.dropout(x, 0.3, training=True).data.copy())
    np.testing.assert_array_equal(outs[0], outs[1])
    with Graph(seed=8):
        other = T.dropout(x, 0.3, training=True).data
    assert not np.array_equal(outs[0], other)


def test_dropout_scaling_and_eval_mode():
    x = Tensor(np.ones((400, 50)), requires_grad=True)
    with Graph(seed=0):
        y = T.dropout(x, 0.25, training=True)
    vals = np.unique(y.data)
    assert set(np.round(vals, 12)) <= {0.0, np.round(1 / 0.75, 12)}
    # survivor mean stays near 1 because of inverted scaling
    assert abs(y.data.mean() - 1.0) < 0.02
    z = T.dropout(x, 0.25, training=False)
    assert z is x


def test_dropout_requires_rng_when_training():
    x = rnd((3, 3), 44)
    with pytest.raises(RuntimeError):
        T.dropout(x, 0.5, training=True)
    with pytest.raises(DomainError):
        T.dropout(x, 1.0, training=False)


def test_graph_counts_ops():
    x = rnd((3, 3), 45)
    with Graph(seed=0) as g:
        _ = (x * x).sum()
    assert g.op_count == 2


def test_batched_conv_and_pool_equal_per_row():
    # every row of a batch convolves and pools as a batch of one of it,
    # forward and backward; the weight gradients sum over the rows
    rng = np.random.default_rng(70)
    cases = [
        (lambda x, w, b: T.conv(x, w, b, stride=2, padding=1),
         (3, 7, 2), (4, 2, 3), 4),
        (lambda x, w, b: T.conv(x, w, b, stride=1, padding=1),
         (2, 5, 6, 2), (3, 2, 3, 3), 3),
        (lambda x, w, b: T.max_pool2d(T.conv(x, w, b), 2),
         (2, 5, 7, 1), (2, 1, 2, 2), 2),
    ]
    for op, x_shape, w_shape, c_out in cases:
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(c_out), requires_grad=True)
        out = op(x, w, b)
        r = rng.standard_normal(out.shape)
        backward((out * Tensor(r)).sum())
        gx, gw, gb = x.grad, w.grad, b.grad
        want_w, want_b = np.zeros_like(w.data), np.zeros_like(b.data)
        for i in range(x_shape[0]):
            xi = Tensor(x.data[i:i + 1], requires_grad=True)
            w.grad = b.grad = None
            oi = op(xi, w, b)
            np.testing.assert_allclose(out.data[i], oi.data[0], rtol=0,
                                       atol=1e-12)
            backward((oi * Tensor(r[i])).sum())
            np.testing.assert_allclose(gx[i], xi.grad[0], rtol=0, atol=1e-12)
            want_w += w.grad
            want_b += b.grad
        np.testing.assert_allclose(gw, want_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gb, want_b, rtol=0, atol=1e-12)
        assert grad_check(lambda x, w, b: (op(x, w, b) * Tensor(r)).sum(),
                          [x, w, b]) < 1e-6
