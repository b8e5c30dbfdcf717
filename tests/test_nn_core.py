import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidual import nn_core
from pidual.errors import ShapeError
from pidual.model import ModelConfig
from pidual.nn_core import (
    Gradients,
    MlpParams,
    MlpWorkspace,
    init_mlp,
    init_optimizer,
    sgd_step,
    softmax,
)

from conftest import finite_difference, rel_err


def forward(net, x):
    """(output, workspace) of a pass through a new workspace of x's rows."""
    ws = MlpWorkspace(net, x.shape[0])
    return ws.forward(x), ws


def backward(ws, upstream, input_grad=True):
    """(parameter gradients, input gradient) of the workspace's latest pass,
    in new gradient arrays; ``upstream`` is left as it is, the pass's hidden
    outputs are not."""
    net = ws.params
    grads = Gradients([np.empty_like(w) for w in net.weights], [np.empty_like(b) for b in net.biases])
    return grads, ws.backward(upstream.copy(), grads, input_grad)


def softmax_ce(logits, label):
    """Cross-entropy of one logit vector against a class index: the oracle
    for ``nn_core.softmax_ce``.

    Returns (loss, dlogits) with dlogits = softmax(logits) - onehot(label).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ShapeError("logits must be a non-empty vector")
    if not 0 <= label < logits.size:
        raise ShapeError(f"label {label} out of range for {logits.size} classes")
    shifted = logits - logits.max()
    log_z = np.log(np.exp(shifted).sum())
    loss = float(log_z - shifted[label])
    dlogits = np.exp(shifted - log_z)
    dlogits[label] -= 1.0
    return loss, dlogits


def identity_net(dim):
    return MlpParams([np.eye(dim)], [np.zeros(dim)], [nn_core.IDENTITY])


def test_forward_identity_net():
    out, _ = forward(identity_net(2), np.array([1.0, 2.0])[None])
    assert np.array_equal(out[0], [1.0, 2.0])


def test_forward_relu_kills_negative():
    net = MlpParams([np.array([[1.0], [-1.0]])], [np.zeros(2)], [nn_core.RELU])
    out, _ = forward(net, np.array([3.0])[None])
    assert np.array_equal(out[0], [3.0, 0.0])


def scalar_loop_forward(net, x):
    """Straight-line scalar recomputation of the layer arithmetic."""
    h = list(x)
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = []
        for row in range(w.shape[0]):
            acc = b[row]
            for col in range(w.shape[1]):
                acc += w[row, col] * h[col]
            z.append(acc)
        if act == nn_core.RELU:
            h = [max(v, 0.0) for v in z]
        elif act == nn_core.SIGMOID:
            h = [1.0 / (1.0 + math.exp(-v)) for v in z]
        else:
            h = z
    return np.array(h)


def test_forward_matches_scalar_loop_oracle():
    net = init_mlp([4, 6, 5, 3], [nn_core.RELU, nn_core.RELU, nn_core.IDENTITY], seed=11)
    x = np.random.default_rng(5).standard_normal(4)
    out, _ = forward(net, x[None])
    assert np.allclose(out[0], scalar_loop_forward(net, x), rtol=0, atol=1e-12)


def test_forward_deterministic():
    net = init_mlp([3, 8, 2], [nn_core.RELU, nn_core.IDENTITY], seed=0)
    x = np.linspace(-1, 1, 3)[None]
    a, _ = forward(net, x)
    b, _ = forward(net, x)
    assert np.array_equal(a, b)


def test_backward_linear_outer_product():
    w = np.random.default_rng(1).standard_normal((3, 4))
    net = MlpParams([w.copy()], [np.zeros(3)], [nn_core.IDENTITY])
    x = np.random.default_rng(2).standard_normal(4)
    u = np.random.default_rng(3).standard_normal(3)
    _, tape = forward(net, x[None])
    grads, dx = backward(tape, u[None])
    assert np.allclose(grads.d_weights[0], np.outer(u, x))
    assert np.allclose(grads.d_biases[0], u)
    assert np.allclose(dx[0], w.T @ u)


def test_backward_zero_upstream():
    net = init_mlp([3, 5, 2], [nn_core.RELU, nn_core.IDENTITY], seed=3)
    x = np.random.default_rng(4).standard_normal(3)
    _, tape = forward(net, x[None])
    grads, dx = backward(tape, np.zeros((1, 2)))
    assert all(np.all(g == 0) for g in grads.d_weights + grads.d_biases)
    assert np.all(dx == 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_finite_differences(seed):
    net = init_mlp([4, 6, 3], [nn_core.RELU, nn_core.IDENTITY], seed=seed)
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal(4)[None]
    u = rng.standard_normal(3)

    def value():
        out, _ = forward(net, x)
        return float(out[0] @ u)

    _, tape = forward(net, x)
    grads, dx = backward(tape, u[None])
    fd = finite_difference(value, net.weights + net.biases + [x])
    analytic = grads.d_weights + grads.d_biases + [dx]
    for a, f in zip(analytic, fd):
        assert rel_err(a, f).max() < 1e-4


def test_backward_through_two_relu_layers_matches_finite_differences():
    # a batch of rows through two hidden ReLU layers: every layer's mask counts
    net = init_mlp([4, 6, 5, 3], [nn_core.RELU, nn_core.RELU, nn_core.IDENTITY], seed=7)
    rng = np.random.default_rng(107)
    x = rng.standard_normal((3, 4))
    u = rng.standard_normal((3, 3))

    def value():
        out, _ = forward(net, x)
        return float((out * u).sum())

    _, tape = forward(net, x)
    assert (tape.outputs[1] == 0).any() and (tape.outputs[2] == 0).any()  # both masks cut
    grads, dx = backward(tape, u)
    fd = finite_difference(value, net.weights + net.biases + [x])
    for a, f in zip(grads.d_weights + grads.d_biases + [dx], fd):
        assert rel_err(a, f).max() < 1e-4


def test_softmax_ce_uniform():
    loss, dlogits = softmax_ce(np.array([0.0, 0.0]), 0)
    assert abs(loss - math.log(2.0)) < 1e-12
    assert np.allclose(dlogits, [-0.5, 0.5])


def test_softmax_ce_saturated_no_overflow():
    loss, _ = softmax_ce(np.array([30.0, -30.0]), 0)
    assert 0.0 <= loss < 1e-12


def test_softmax_ce_matches_direct_formula():
    loss, _ = softmax_ce(np.array([1.0, 2.0, 3.0]), 1)
    direct = -math.log(math.exp(2.0) / (math.exp(1.0) + math.exp(2.0) + math.exp(3.0)))
    assert abs(loss - direct) < 1e-12


def test_softmax_ce_empty_logits():
    with pytest.raises(ShapeError):
        softmax_ce(np.array([]), 0)


def test_batch_softmax_ce_matches_scalar():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    losses, dlogits = nn_core.softmax_ce(logits, labels)
    for i in range(6):
        loss_i, d_i = softmax_ce(logits[i], int(labels[i]))
        assert abs(losses[i] - loss_i) < 1e-12
        assert np.allclose(dlogits[i], d_i)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
    st.floats(min_value=-100, max_value=100),
)
def test_softmax_properties(logits, shift):
    logits = np.asarray(logits)
    probs = softmax(logits)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs > 0) and np.all(probs < 1 + 1e-15)
    label = 0
    base, _ = softmax_ce(logits, label)
    shifted, _ = softmax_ce(logits + shift, label)
    assert abs(base - shifted) < 1e-9


def scalar_net():
    """A 1x1 identity layer with weight 1 and bias 0, flattened to [1.0, 0.0]."""
    net = MlpParams([np.array([[1.0]])], [np.zeros(1)], [nn_core.IDENTITY])
    return nn_core.flatten({"net": net})


def test_sgd_zero_grads_noop():
    params = nn_core.flatten({"net": init_mlp([2, 3], [nn_core.IDENTITY], seed=0)})
    before = params.copy()
    state = init_optimizer(params, base_lr=0.1, momentum=0.9, weight_decay=0.0)
    sgd_step(params, np.zeros_like(params), state, epoch=0)
    assert np.array_equal(params, before)


def test_sgd_zero_lr_noop():
    params = nn_core.flatten({"net": init_mlp([2, 3], [nn_core.IDENTITY], seed=0)})
    before = params.copy()
    state = init_optimizer(params, base_lr=0.0, momentum=0.9, weight_decay=1e-2)
    sgd_step(params, np.ones_like(params), state, epoch=0)
    assert np.array_equal(params, before)


def test_sgd_plain_scalar_step():
    params = scalar_net()
    state = init_optimizer(params, base_lr=0.1, momentum=0.0, weight_decay=0.0)
    sgd_step(params, np.array([1.0, 0.0]), state, epoch=0)
    assert abs(params[0] - 0.9) < 1e-15


def test_sgd_nesterov_matches_scalar_oracle():
    # two steps on the quadratic 0.5*w^2 (gradient = w), hand-rolled recursion
    w = 1.0
    v = 0.0
    lr, mu = 0.1, 0.9
    expected = []
    for _ in range(2):
        g = w
        v = mu * v - lr * g
        w = w + mu * v - lr * g
        expected.append(w)

    params = scalar_net()
    state = init_optimizer(params, base_lr=lr, momentum=mu, weight_decay=0.0)
    for step in range(2):
        sgd_step(params, np.array([params[0], 0.0]), state, epoch=0)
        assert abs(params[0] - expected[step]) < 1e-15


def test_sgd_weight_decay_and_exemption():
    params = scalar_net()
    state = init_optimizer(params, base_lr=0.1, momentum=0.0, weight_decay=0.5)
    sgd_step(params, np.zeros(2), state, epoch=0)
    assert abs(params[0] - 0.95) < 1e-15  # decayed by lr*wd*w
    exempt = scalar_net()
    state2 = init_optimizer(exempt, base_lr=0.1, momentum=0.0, weight_decay=0.5)
    sgd_step(exempt, np.zeros(2), state2, epoch=0, decayed=0)
    assert exempt[0] == 1.0


def test_sgd_step_schedule():
    params = nn_core.flatten({"net": init_mlp([1, 1], [nn_core.IDENTITY], seed=0)})
    state = init_optimizer(params, base_lr=1.0, decay_epochs=[3, 6], decay_factor=0.2)
    assert nn_core.current_lr(state, 0) == 1.0
    assert nn_core.current_lr(state, 2) == 1.0
    assert abs(nn_core.current_lr(state, 3) - 0.2) < 1e-15
    assert abs(nn_core.current_lr(state, 6) - 0.04) < 1e-15


def per_tensor_nesterov(p, g, v, lr, mu, wd):
    """The per-tensor update, one tensor at a time, as the flat step must reproduce it."""
    if wd != 0.0:
        g = g + wd * p
    v *= mu
    v -= lr * g
    p += mu * v
    p -= lr * g


def test_flat_step_matches_per_tensor_nesterov_bitwise():
    model = ModelConfig(pred_hidden=(6, 5), pi_width=5, share_first_layer=False).build(3, 4, 3, seed=9)
    nets = {name: copy.deepcopy(net) for name, net in model.components().items()}
    velocities = {
        name: [np.zeros_like(t) for t in net.weights + net.biases] for name, net in nets.items()
    }
    lr, mu, wd = 0.05, 0.9, 1e-2
    state = init_optimizer(model.params, lr, momentum=mu, weight_decay=wd)
    rng = np.random.default_rng(4)
    for _ in range(5):
        grads = rng.standard_normal(model.params.shape)
        views = model.views(grads)  # cut through the model's layout
        for name, net in nets.items():
            decay = wd if name == "prediction" else 0.0  # the PI components are exempt
            tensors = net.weights + net.biases
            grad_tensors = views[name][0] + views[name][1]
            for p, g, v in zip(tensors, grad_tensors, velocities[name]):
                per_tensor_nesterov(p, g, v, lr, mu, decay)
        sgd_step(model.params, grads, state, epoch=0, decayed=model.prediction.size)
    for name, net in model.components().items():
        assert net.equals(nets[name])


def test_locate_names_the_tensor_of_every_entry():
    model = ModelConfig(pred_hidden=(6, 5), pi_width=5).build(3, 4, 3, seed=2)
    indices = np.arange(model.params.size, dtype=np.float64)  # each entry holds its index
    for name, (weights, biases) in model.views(indices).items():
        for k, (w, b) in enumerate(zip(weights, biases)):
            for kind, t in (("weight", w), ("bias", b)):
                for index in (t.flat[0], t.flat[-1]):
                    assert nn_core.locate(model.layout, int(index)) == f"{name} layer {k} {kind}"


def masked_sigmoid(x):
    """The per-branch logistic: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bitwise_the_masked_formula():
    edges = [0.0, 1e-300, 1.0, 36.0, 745.0, np.inf, np.nan]
    x = np.array(edges + [-v for v in edges])
    x = np.concatenate([x, np.random.default_rng(5).standard_normal(1000) * 30])
    assert nn_core.sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()
    col = x[:, None]  # the gate head's (batch, 1) pre-activations
    assert nn_core.sigmoid(col).tobytes() == masked_sigmoid(col).tobytes()


@pytest.mark.parametrize("dims", [[4, 6, 3], [5, 7, 1], [3, 1]])
def test_backward_without_input_gradient_keeps_the_parameter_gradients(dims):
    acts = [nn_core.RELU] * (len(dims) - 2) + [nn_core.SIGMOID]
    net = init_mlp(dims, acts, seed=len(dims))
    rng = np.random.default_rng(9)
    x = rng.standard_normal((16, dims[0]))
    upstream = rng.standard_normal((16, dims[-1]))
    full, dx = backward(forward(net, x)[1], upstream)
    lean, none = backward(forward(net, x)[1], upstream, input_grad=False)
    assert dx.shape == (16, dims[0]) and none is None
    for a, b in zip(full.d_weights + full.d_biases, lean.d_weights + lean.d_biases):
        assert a.tobytes() == b.tobytes()


def test_single_output_input_gradient_is_bitwise_the_matmul():
    rng = np.random.default_rng(10)
    dz = rng.standard_normal((128, 1)) * 10.0 ** rng.integers(-300, 300, (128, 1))
    w = rng.standard_normal((1, 64))
    assert (dz * w).tobytes() == (dz @ w).tobytes()
    # the input gradient through a sigmoid output unit, against the matmul
    # form of the same chain
    net = init_mlp([64, 1], [nn_core.SIGMOID], seed=11)
    x = rng.standard_normal((128, 64))
    out, tape = forward(net, x)
    u = rng.standard_normal((128, 1))
    _, dx = backward(tape, u)
    assert dx.tobytes() == ((u * out * (1.0 - out)) @ net.weights[0]).tobytes()


@pytest.mark.parametrize("last", [nn_core.RELU, nn_core.IDENTITY, nn_core.SIGMOID])
@pytest.mark.parametrize("dims", [[5, 7, 6, 3], [8, 128, 128, 4]], ids=["small", "benchmark"])
def test_forward_into_given_arrays_is_bitwise_the_allocating_pass(dims, last):
    # a workspace with room for 800 rows runs a 700-row pass in the leading
    # rows of its arrays, over what an 800-row pass left there, and gives the
    # bits of a new workspace of exactly 700 rows
    net = init_mlp(dims, [nn_core.RELU] * (len(dims) - 2) + [last], seed=len(dims))
    rng = np.random.default_rng(12)
    x = rng.standard_normal((700, dims[0]))
    expected, expected_tape = forward(net, x)
    ws = MlpWorkspace(net, 800)
    ws.forward(rng.standard_normal((800, dims[0])))
    got = ws.forward(x)
    tape = ws  # the workspace is the tape of its latest pass
    assert got.tobytes() == expected.tobytes()
    assert [h.tobytes() for h in tape.outputs] == [h.tobytes() for h in expected_tape.outputs]
    for k, act in enumerate(net.activations):
        if act == nn_core.SIGMOID:  # a new array; the workspace's holds the pre-activation
            assert not np.shares_memory(tape.outputs[k + 1], ws.buffers[k])
            pre = ws.buffers[k][:700]
            assert nn_core.sigmoid(pre).tobytes() == tape.outputs[k + 1].tobytes()
        else:
            assert np.shares_memory(tape.outputs[k + 1], ws.buffers[k])
    upstream = rng.standard_normal(expected.shape)
    expected_grads, expected_dx = backward(expected_tape, upstream)
    grads, dx = backward(ws, upstream)  # writes its input gradients over the hidden outputs
    for a, b in zip(grads.d_weights + grads.d_biases, expected_grads.d_weights + expected_grads.d_biases):
        assert a.tobytes() == b.tobytes()
    assert dx.tobytes() == expected_dx.tobytes()
