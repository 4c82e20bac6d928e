"""Dense-network engine with hand-written backpropagation.

Fixed topology: affine layers with penalized-tanh hidden activations and a
linear output. The output is read either as one value-estimate per action
or, for stochastic heads, as (mean, log-std) pairs sampled through the
reparameterization q = mu + exp(log_sigma) * noise. Gradients are exact
reverse-mode rules for this stack, so no autodiff framework is needed.
"""

import math

import numpy as np

PTANH_NEG_SLOPE = 0.25
LOG_2PI = math.log(2.0 * math.pi)

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

DETERMINISTIC = "deterministic"
GAUSSIAN = "gaussian"


def head_output_dim(mode: str, n_actions: int) -> int:
    """Output width: one estimate per action, twice that for a Gaussian head."""
    if mode == DETERMINISTIC:
        return n_actions
    if mode == GAUSSIAN:
        return 2 * n_actions
    raise ValueError(f"unknown head mode {mode!r}")


class NetworkParams:
    """Weights (out x in) and biases of every layer, in forward order.

    All values live in one flat float64 buffer; the per-layer arrays are
    views into it, so whole-network updates (Adam, Polyak averaging) run as
    single vector operations.
    """

    __slots__ = ("flat", "shapes", "weights", "biases")

    def __init__(self, shapes):
        """Zeroed parameters for chained layers whose weights have the (rows, cols) ``shapes``."""
        self.shapes = list(shapes)
        if not self.shapes:
            raise ValueError("the network has no layers")
        for i, (rows, cols) in enumerate(self.shapes):
            inputs = self.shapes[i - 1][0] if i else cols
            if min(rows, cols) < 1 or cols != inputs:
                raise ValueError(f"layer {i} has shape ({rows}, {cols}); it needs positive "
                                 f"dimensions and {inputs} cols")
        total = sum(rows * cols + rows for rows, cols in self.shapes)
        self.flat = np.zeros(total)
        self.weights, self.biases = [], []
        offset = 0
        for rows, cols in self.shapes:
            self.weights.append(self.flat[offset : offset + rows * cols].reshape(rows, cols))
            offset += rows * cols
            self.biases.append(self.flat[offset : offset + rows])
            offset += rows

    @classmethod
    def init(
        cls,
        input_dim: int,
        hidden_dims,
        output_dim: int,
        rng: np.random.Generator,
    ) -> "NetworkParams":
        """Uniform weights on [-1/sqrt(fan_in), 1/sqrt(fan_in)], zero biases."""
        params = cls.zeros(input_dim, hidden_dims, output_dim)
        for w in params.weights:
            bound = 1.0 / math.sqrt(w.shape[1])
            w[:] = rng.uniform(-bound, bound, size=w.shape)
        return params

    @classmethod
    def zeros(cls, input_dim: int, hidden_dims, output_dim: int) -> "NetworkParams":
        dims = [input_dim, *hidden_dims, output_dim]
        return cls([(o, i) for i, o in zip(dims[:-1], dims[1:])])

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    def arrays(self):
        """All parameter arrays, weights interleaved with biases."""
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b

    def copy(self) -> "NetworkParams":
        params = NetworkParams(self.shapes)
        params.flat[:] = self.flat
        return params

    def zeros_like(self) -> "NetworkParams":
        return NetworkParams(self.shapes)

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    def __getstate__(self):
        return {"shapes": self.shapes, "flat": self.flat}

    def __setstate__(self, state):
        self.__init__(state["shapes"])
        self.flat[:] = state["flat"]


def _hidden_layer(w, b, a, t, out) -> None:
    """t <- tanh(a W^T + b), out <- penalized tanh of the same pre-activation.

    tanh keeps the sign of its argument, so max(t, slope * t) picks t on the
    positive half-line and slope * t elsewhere.
    """
    np.matmul(a, w.T, out=t)
    t += b
    np.tanh(t, out=t)
    np.multiply(t, PTANH_NEG_SLOPE, out=out)
    np.maximum(t, out, out=out)


class ForwardCache:
    """Per-layer buffers of one single-input forward pass, refilled by every pass that reuses them.

    Holds what backward() needs (the layer inputs and the hidden tanh
    values) plus backward's own scratch, sized from ``params``.
    """

    __slots__ = ("acts", "tanhs", "out", "delta", "dact", "nonpos")

    def __init__(self, params: NetworkParams):
        widths = [w.shape[0] for w in params.weights[:-1]]
        self.acts = [np.empty(k) for k in (params.input_dim, *widths)]
        self.tanhs = [np.empty(k) for k in widths]
        self.out = np.empty(params.output_dim)
        self.delta = [np.empty(k) for k in widths]
        self.dact = [np.empty(k) for k in widths]
        self.nonpos = [np.empty(k, dtype=bool) for k in widths]


def forward_cached(params: NetworkParams, s: np.ndarray, cache: ForwardCache):
    """Forward pass on one input ``(d,)``; batches go through forward().

    Refills ``cache`` and returns the output and the cache backward() needs.
    The output is the cache's buffer, so the next pass through that cache
    overwrites it.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (params.input_dim,):
        raise ValueError(f"forward_cached takes one input of shape ({params.input_dim},), "
                         f"got {s.shape}")
    np.copyto(cache.acts[0], s)
    for i in range(len(params.weights) - 1):
        _hidden_layer(params.weights[i], params.biases[i], cache.acts[i], cache.tanhs[i],
                      cache.acts[i + 1])
    np.matmul(cache.acts[-1], params.weights[-1].T, out=cache.out)
    cache.out += params.biases[-1]
    return cache.out, cache


def forward(params: NetworkParams, s: np.ndarray) -> np.ndarray:
    """Output for one input ``(d,)`` or a batch ``(n, d)``, in a fresh array.

    Keeps no per-layer cache, so a batch needs two hidden-width buffers.
    """
    a = np.asarray(s, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != params.input_dim:
        raise ValueError(f"input of shape {a.shape} does not match input_dim {params.input_dim}")
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        t = np.empty(a.shape[:-1] + (w.shape[0],))
        act = np.empty_like(t)
        _hidden_layer(w, b, a, t, act)
        a = act
    out = a @ params.weights[-1].T
    out += params.biases[-1]
    return out


def backward(params: NetworkParams, cache: ForwardCache, grad_out: np.ndarray,
             out: NetworkParams) -> NetworkParams:
    """Exact gradients of (grad_out . output) w.r.t. every parameter.

    Takes the cache of a forward_cached pass, overwrites ``out`` with the
    gradients and returns it.
    """
    n_layers = len(params.weights)
    g = np.asarray(grad_out, dtype=float)
    # einsum fills an outer product faster than a broadcast multiply, with the
    # same single product per element
    np.einsum("i,j->ij", g, cache.acts[-1], out=out.weights[-1])
    out.biases[-1][:] = g
    if n_layers > 1:
        np.matmul(params.weights[-1].T, g, out=cache.delta[-1])
    for i in range(n_layers - 2, -1, -1):
        g = cache.delta[i]
        # the activation's slope from its tanh value t: (1 - t^2) times the
        # slope of the half-line the pre-activation was on
        t, dact, nonpos = cache.tanhs[i], cache.dact[i], cache.nonpos[i]
        np.multiply(t, t, out=dact)
        np.subtract(1.0, dact, out=dact)
        np.less_equal(t, 0.0, out=nonpos)
        np.multiply(dact, PTANH_NEG_SLOPE, out=dact, where=nonpos)
        g *= dact
        np.einsum("i,j->ij", g, cache.acts[i], out=out.weights[i])
        out.biases[i][:] = g
        if i > 0:
            np.matmul(params.weights[i].T, g, out=cache.delta[i - 1])
    return out


def split_gaussian(out: np.ndarray):
    """Read a Gaussian-head output, one row or a batch, as (mu, log_sigma) halves."""
    n = out.shape[-1]
    if n % 2 != 0:
        raise ValueError(f"Gaussian head needs an even output width, got {n}")
    half = n // 2
    return out[..., :half], out[..., half:]


def reparameterize(mu: np.ndarray, log_sigma: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """q = mu + exp(log_sigma) * noise; differentiable in mu and log_sigma."""
    return mu + np.exp(log_sigma) * noise


def sample_gaussian_head(mu: np.ndarray, log_sigma: np.ndarray, rng: np.random.Generator):
    """Sample per-action estimates; returns (q, noise) so gradients can replay."""
    noise = rng.standard_normal(mu.shape[0])
    return reparameterize(mu, log_sigma, noise), noise


def gaussian_log_density(q, mu, log_sigma):
    """Log density of q under Normal(mu, exp(log_sigma)); elementwise."""
    q = np.asarray(q, dtype=float)
    mu = np.asarray(mu, dtype=float)
    log_sigma = np.asarray(log_sigma, dtype=float)
    # standardize before squaring so huge log_sigma cannot overflow
    z = (q - mu) * np.exp(-log_sigma)
    return -log_sigma - 0.5 * LOG_2PI - z * z / 2.0


class Adam:
    """Bias-corrected Adam over a NetworkParams instance, updated in place."""

    def __init__(self, params: NetworkParams, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first_moment = np.zeros_like(params.flat)
        self.second_moment = np.zeros_like(params.flat)
        self._scratch = np.zeros_like(params.flat)

    def step(self, params: NetworkParams, grads: NetworkParams) -> None:
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        scale = self.learning_rate / bc1
        root_bc2 = math.sqrt(bc2)
        g = grads.flat
        m = self.first_moment
        v = self.second_moment
        buf = self._scratch
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=buf)
        m += buf
        v *= ADAM_BETA2
        np.multiply(g, g, out=buf)
        buf *= 1.0 - ADAM_BETA2
        v += buf
        # update = scale * m / (sqrt(v) / root_bc2 + eps), assembled in place
        np.sqrt(v, out=buf)
        # 1 - beta2**t rounds to exactly 1.0 from some step on (37 412 at
        # beta2 = 0.999), and dividing by 1.0 changes no value
        if root_bc2 != 1.0:
            buf /= root_bc2
        buf += ADAM_EPSILON
        np.divide(m, buf, out=buf)
        buf *= scale
        params.flat -= buf


class TargetPair:
    """Online parameters and their slowly tracking target, which starts as a copy."""

    def __init__(self, online: NetworkParams, tau: float):
        self.online = online
        self.target = online.copy()
        self.tau = tau
        self._scratch = np.empty_like(online.flat)

    def polyak_update(self) -> None:
        """target <- (1 - tau) * target + tau * online, elementwise."""
        self.target.flat *= 1.0 - self.tau
        np.multiply(self.online.flat, self.tau, out=self._scratch)
        self.target.flat += self._scratch
