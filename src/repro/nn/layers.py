"""Operator definitions for the NN IR.

Every op is a stateless descriptor: it knows its output shape, its
per-sample FLOP and MAC counts, its parameter tensors, and how to run
forward/backward in numpy.  Parameter values live in the owning
:class:`repro.nn.graph.Graph`, keyed by node id, so a single op instance
can be reused.

Accounting conventions (used consistently by Table-1 calibration, the
systolic model, and the energy model):

* shapes exclude the batch dimension; images are ``(C, H, W)``;
* one multiply-accumulate (MAC) counts as **2 FLOPs**, matching how the
  paper's Table 1 reports FLOPs for its fully-connected models
  (``FLOPs = 2 x weights`` for MIR/ESTP/TextQA);
* element-wise ops count 1 FLOP per output element.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

Shape = Tuple[int, ...]
Params = Dict[str, np.ndarray]

_EW_KINDS = ("add", "sub", "mul", "absdiff")
_ACT_KINDS = ("relu", "sigmoid", "tanh", "identity")


def _as_f32(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


class Op(abc.ABC):
    """Base class for IR operators."""

    #: number of graph inputs the op consumes
    arity: int = 1

    @abc.abstractmethod
    def output_shape(self, *in_shapes: Shape) -> Shape:
        """Per-sample output shape given per-sample input shapes."""

    @abc.abstractmethod
    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        """Run the op on batched inputs ``(batch, *shape)``."""

    def backward(
        self,
        params: Params,
        inputs: Sequence[np.ndarray],
        output: np.ndarray,
        grad_out: np.ndarray,
        needs: Sequence[bool],
    ) -> Tuple[Params, Tuple[Optional[np.ndarray], ...]]:
        """Return (parameter gradients, input gradients).

        ``needs[i]`` says whether the caller uses input ``i``'s gradient;
        an op may return ``None`` in place of one that is not needed.
        """
        raise NotImplementedError(f"{type(self).__name__} has no backward")

    def flops(self, *in_shapes: Shape) -> int:
        """Per-sample FLOPs (MAC = 2 FLOPs)."""
        return 0

    def macs(self, *in_shapes: Shape) -> int:
        """Per-sample multiply-accumulates (for systolic mapping)."""
        return 0

    def weight_params(self) -> int:
        """Number of trainable scalars."""
        return 0

    def weight_bytes(self, dtype_bytes: int = 4) -> int:
        """Parameter bytes at the given scalar width."""
        return self.weight_params() * dtype_bytes

    def init_params(self, rng: np.random.Generator) -> Params:
        """Freshly initialized parameter tensors (may be empty)."""
        return {}

    def config(self) -> dict:
        """JSON-serializable constructor arguments (for onnx_lite)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v}" for k, v in self.config().items())
        return f"{type(self).__name__}({args})"


class Input(Op):
    """Graph input placeholder with a fixed per-sample shape."""

    arity = 0

    def __init__(self, shape: Sequence[int]):
        self.shape = tuple(int(s) for s in shape)
        if not self.shape or any(s <= 0 for s in self.shape):
            raise ValueError(f"invalid input shape {shape}")

    def output_shape(self, *in_shapes: Shape) -> Shape:
        return self.shape

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        raise RuntimeError("Input nodes are fed, not executed")

    def config(self) -> dict:
        return {"shape": list(self.shape)}

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


class Dense(Op):
    """Fully connected layer ``y = x @ W + b`` over flattened input."""

    arity = 1

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.bias = bool(bias)

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        if int(np.prod(shape)) != self.in_features:
            raise ValueError(
                f"Dense expects {self.in_features} features, got shape {shape}"
            )
        return (self.out_features,)

    def flops(self, *in_shapes: Shape) -> int:
        return 2 * self.in_features * self.out_features

    def macs(self, *in_shapes: Shape) -> int:
        return self.in_features * self.out_features

    def weight_params(self) -> int:
        return self.in_features * self.out_features + (
            self.out_features if self.bias else 0
        )

    def init_params(self, rng: np.random.Generator) -> Params:
        scale = math.sqrt(2.0 / self.in_features)
        params = {
            "W": _as_f32(rng.normal(0.0, scale, (self.in_features, self.out_features)))
        }
        if self.bias:
            params["b"] = np.zeros(self.out_features, dtype=np.float32)
        return params

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        x2 = x.reshape(x.shape[0], -1)
        y = x2 @ params["W"]
        if self.bias:
            y = y + params["b"]
        return y

    def backward(self, params, inputs, output, grad_out, needs):
        (x,) = inputs
        x2 = x.reshape(x.shape[0], -1)
        grads: Params = {"W": x2.T @ grad_out}
        if self.bias:
            grads["b"] = grad_out.sum(axis=0)
        if not needs[0]:
            return grads, (None,)
        return grads, ((grad_out @ params["W"].T).reshape(x.shape),)

    def config(self) -> dict:
        return {
            "in_features": self.in_features,
            "out_features": self.out_features,
            "bias": self.bias,
        }


def _conv_out_dim(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError("convolution output dimension is non-positive")
    return out


def _windows(k: int, s: int, out_h: int, out_w: int):
    """Yield ``(i, j, index)`` per kernel offset: the strided input slice it reads."""
    for i in range(k):
        for j in range(k):
            yield i, j, (Ellipsis, slice(i, i + out_h * s, s), slice(j, j + out_w * s, s))


class Conv2D(Op):
    """2-D convolution over ``(C, H, W)`` inputs (channel-first im2col + BLAS GEMM)."""

    arity = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        if min(in_channels, out_channels, kernel, stride) <= 0 or padding < 0:
            raise ValueError("invalid Conv2D configuration")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.padding = int(padding)
        self.bias = bool(bias)

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        if len(shape) != 3 or shape[0] != self.in_channels:
            raise ValueError(f"Conv2D expects (C={self.in_channels},H,W), got {shape}")
        _, h, w = shape
        out_h = _conv_out_dim(h, self.kernel, self.stride, self.padding)
        out_w = _conv_out_dim(w, self.kernel, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def macs(self, *in_shapes: Shape) -> int:
        _, out_h, out_w = self.output_shape(*in_shapes)
        return (
            out_h * out_w * self.out_channels
            * self.in_channels * self.kernel * self.kernel
        )

    def flops(self, *in_shapes: Shape) -> int:
        return 2 * self.macs(*in_shapes)

    def weight_params(self) -> int:
        return (
            self.out_channels * self.in_channels * self.kernel * self.kernel
            + (self.out_channels if self.bias else 0)
        )

    def init_params(self, rng: np.random.Generator) -> Params:
        fan_in = self.in_channels * self.kernel * self.kernel
        scale = math.sqrt(2.0 / fan_in)
        params = {
            "W": _as_f32(
                rng.normal(
                    0.0, scale,
                    (self.out_channels, self.in_channels, self.kernel, self.kernel),
                )
            )
        }
        if self.bias:
            params["b"] = np.zeros(self.out_channels, dtype=np.float32)
        return params

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """Lower ``(N, C, H, W)`` to ``(N, C*k*k, out_h*out_w)`` columns."""
        n, c = x.shape[:2]
        k, p = self.kernel, self.padding
        _, out_h, out_w = self.output_shape(x.shape[1:])
        if p:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        cols = np.empty((n, c, k, k, out_h, out_w), dtype=x.dtype)
        for i, j, win in _windows(k, self.stride, out_h, out_w):
            cols[:, :, i, j] = x[win]
        return cols.reshape(n, c * k * k, out_h * out_w)

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        out_c, out_h, out_w = self.output_shape(x.shape[1:])
        y = np.matmul(params["W"].reshape(out_c, -1), self._im2col(x))  # (N, out_c, P)
        if self.bias:
            y += params["b"][:, None]
        return y.reshape(x.shape[0], out_c, out_h, out_w)

    def backward(self, params, inputs, output, grad_out, needs):
        (x,) = inputs
        n, c, h, w = x.shape
        out_c, out_h, out_w = output.shape[1:]
        k, p = self.kernel, self.padding
        g = grad_out.reshape(n, out_c, out_h * out_w)
        # per-sample GEMMs summed over N; a tensordot would copy the columns
        grad_w = np.matmul(g, self._im2col(x).transpose(0, 2, 1)).sum(axis=0)
        grads: Params = {"W": grad_w.reshape(params["W"].shape)}
        if self.bias:
            grads["b"] = g.sum(axis=(0, 2))
        if not needs[0]:
            return grads, (None,)
        # col2im: scatter-add each offset's column gradient into the input
        gcols = np.matmul(params["W"].reshape(out_c, -1).T, g).reshape(n, c, k, k, out_h, out_w)
        grad_x = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
        for i, j, win in _windows(k, self.stride, out_h, out_w):
            grad_x[win] += gcols[:, :, i, j]
        if p:
            grad_x = grad_x[:, :, p:-p, p:-p]
        return grads, (grad_x,)

    def config(self) -> dict:
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
            "bias": self.bias,
        }


class Activation(Op):
    """Pointwise nonlinearity."""

    arity = 1

    def __init__(self, kind: str = "relu"):
        if kind not in _ACT_KINDS:
            raise ValueError(f"unknown activation {kind!r}; choose from {_ACT_KINDS}")
        self.kind = kind

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        return shape

    def flops(self, *in_shapes: Shape) -> int:
        (shape,) = in_shapes
        return 0 if self.kind == "identity" else int(np.prod(shape))

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "sigmoid":
            return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        if self.kind == "tanh":
            return np.tanh(x)
        return x

    def backward(self, params, inputs, output, grad_out, needs):
        if self.kind == "relu":
            grad = grad_out * (output > 0)
        elif self.kind == "sigmoid":
            grad = grad_out * output * (1.0 - output)
        elif self.kind == "tanh":
            grad = grad_out * (1.0 - output * output)
        else:
            grad = grad_out
        return {}, (grad,)

    def config(self) -> dict:
        return {"kind": self.kind}


class Elementwise(Op):
    """Binary element-wise op between two same-shaped tensors.

    These are the "element-wise layers" of paper Table 1 (e.g. the
    cross-feature difference in ReId and the gating ops in TIR/TextQA).
    """

    arity = 2

    def __init__(self, kind: str = "absdiff"):
        if kind not in _EW_KINDS:
            raise ValueError(f"unknown elementwise kind {kind!r}")
        self.kind = kind

    def output_shape(self, *in_shapes: Shape) -> Shape:
        a, b = in_shapes
        if a != b:
            raise ValueError(f"elementwise shape mismatch: {a} vs {b}")
        return a

    def flops(self, *in_shapes: Shape) -> int:
        return int(np.prod(in_shapes[0]))

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        a, b = inputs
        if self.kind == "add":
            return a + b
        if self.kind == "sub":
            return a - b
        if self.kind == "mul":
            return a * b
        return np.abs(a - b)

    def backward(self, params, inputs, output, grad_out, needs):
        a, b = inputs
        if self.kind == "add":
            return {}, (grad_out, grad_out)
        if self.kind == "sub":
            return {}, (grad_out, -grad_out)
        if self.kind == "mul":
            return {}, (grad_out * b, grad_out * a)
        sign = np.sign(a - b)
        return {}, (grad_out * sign, -grad_out * sign)

    def config(self) -> dict:
        return {"kind": self.kind}


class Dot(Op):
    """Batched inner product of two flattened inputs -> shape ``(1,)``."""

    arity = 2

    def output_shape(self, *in_shapes: Shape) -> Shape:
        a, b = in_shapes
        if int(np.prod(a)) != int(np.prod(b)):
            raise ValueError(f"dot size mismatch: {a} vs {b}")
        return (1,)

    def flops(self, *in_shapes: Shape) -> int:
        return 2 * int(np.prod(in_shapes[0]))

    def macs(self, *in_shapes: Shape) -> int:
        return int(np.prod(in_shapes[0]))

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        a, b = inputs
        a2 = a.reshape(a.shape[0], -1)
        b2 = b.reshape(b.shape[0], -1)
        return np.sum(a2 * b2, axis=1, keepdims=True)

    def backward(self, params, inputs, output, grad_out, needs):
        a, b = inputs
        a2 = a.reshape(a.shape[0], -1)
        b2 = b.reshape(b.shape[0], -1)
        return {}, (
            (grad_out * b2).reshape(a.shape),
            (grad_out * a2).reshape(b.shape),
        )


class Concat(Op):
    """Concatenate two flattened inputs along the feature axis."""

    arity = 2

    def output_shape(self, *in_shapes: Shape) -> Shape:
        a, b = in_shapes
        return (int(np.prod(a)) + int(np.prod(b)),)

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        a, b = inputs
        return np.concatenate(
            [a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)], axis=1
        )

    def backward(self, params, inputs, output, grad_out, needs):
        a, b = inputs
        na = int(np.prod(a.shape[1:]))
        return {}, (
            grad_out[:, :na].reshape(a.shape),
            grad_out[:, na:].reshape(b.shape),
        )


class Flatten(Op):
    """Reshape any input to a flat feature vector."""

    arity = 1

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        return (int(np.prod(shape)),)

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        return x.reshape(x.shape[0], -1)

    def backward(self, params, inputs, output, grad_out, needs):
        (x,) = inputs
        return {}, (grad_out.reshape(x.shape),)


class ScoreHead(Op):
    """Parameter-free similarity-score head.

    Two-branch SCNs in the source applications end in a 2-logit classifier
    (match / no-match).  This head reduces the final layer to the scalar
    similarity score the query engine sorts on:

    * ``sigmoid_diff`` — ``sigmoid(z[1] - z[0])`` over a 2-logit output,
      equivalent to the softmax match probability;
    * ``sigmoid`` — plain sigmoid over a 1-dim output (e.g. TextQA's
      bilinear ``q^T M d`` score).

    With ``affine=True`` the head applies ``sigmoid(scale * z - shift)``
    with a fixed ``scale`` and a *learnable* ``shift`` — needed when the
    upstream score has no threshold of its own (TextQA's bias-free
    bilinear form centers negatives at z = 0, which a plain sigmoid
    cannot separate).  The scale stays fixed because the upstream weights
    already control magnitude; learning it double-parameterizes the
    logit and destabilizes training.

    It is a *score extraction*, not a network layer: it is excluded from
    Table-1 layer counts and its single calibration scalar is negligible.
    """

    arity = 1

    def __init__(self, kind: str = "sigmoid", affine: bool = False,
                 scale: float = 0.05):
        if kind not in ("sigmoid", "sigmoid_diff"):
            raise ValueError(f"unknown score head {kind!r}")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.kind = kind
        self.affine = bool(affine)
        self.scale = float(scale)

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        expected = 2 if self.kind == "sigmoid_diff" else 1
        if shape != (expected,):
            raise ValueError(f"{self.kind} score head expects ({expected},), got {shape}")
        return (1,)

    def weight_params(self) -> int:
        return 1 if self.affine else 0

    def init_params(self, rng: np.random.Generator) -> Params:
        if not self.affine:
            return {}
        return {"shift": np.array([0.0], dtype=np.float32)}

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    def _logit(self, params: Params, x: np.ndarray) -> np.ndarray:
        z = x[:, 1:2] - x[:, 0:1] if self.kind == "sigmoid_diff" else x
        if self.affine:
            z = self.scale * z - params["shift"]
        return z

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        return self._sigmoid(self._logit(params, x))

    def backward(self, params, inputs, output, grad_out, needs):
        local = grad_out * output * (1.0 - output)  # dL/dz
        grads: Params = {}
        if self.affine:
            grads["shift"] = np.array([float(-local.sum())], dtype=np.float32)
            local = local * self.scale
        if self.kind == "sigmoid_diff":
            grad = np.concatenate([-local, local], axis=1)
        else:
            grad = local
        return grads, (grad,)

    def config(self) -> dict:
        return {"kind": self.kind, "affine": self.affine, "scale": self.scale}


#: registry used by onnx_lite deserialization
OP_REGISTRY = {
    cls.__name__: cls
    for cls in (
        Input, Dense, Conv2D, Activation, Elementwise, Dot, Concat, Flatten, ScoreHead,
    )
}
