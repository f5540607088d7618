"""Minimal reverse-mode autodiff over numpy arrays.

Design: a flat execution tape. Every differentiable op appends one node
(output, inputs, backward closure) to its thread's open ``Graph`` as it
runs, so the tape is already in topological order and ``Graph.backward``
just walks it in reverse. A gradient is ``None`` until its first
contribution, which becomes the buffer (it is copied only if it must
broadcast); later ones are added with ``+=`` (``_accum``). A node
output's gradient is dropped once its backward rule has run, so the rule
owns its incoming ``g`` and hands it, or views of it, on to its inputs
without copying. Leaves keep their gradients until ``zero_grad()``.

Ops on another thread never land on that tape. ``Graph.branch`` runs a
function on one worker thread, started by the first branch, under a tape
of its own, and splices that tape onto the caller's as one contiguous
segment when the caller takes the result. ``backward`` hands such a
segment's reverse walk to the worker when it reaches it and walks the
rest on the calling thread. Both threads run the same rules in the same
order as one thread would, so the gradients are bit-identical to an
inline call. A segment whose backward would write a gradient that an
earlier node also reads or writes is walked inline instead. Both build
on ``on_worker``, which runs any call on that worker beside the caller
(evaluation embeds every other image or caption chunk there) and runs
it inline when called on the worker itself.

Two numeric modes: training computes in float32; ``verification_mode()``
switches new tensors, on every thread, to float64 so finite-difference
gradient checks have enough headroom. Only GELU's erf differs between
them: scipy's exact erf in float64, a cache-blocked rational erf in
float32. ``scipy.special`` is imported by the first float64 GELU, so
training, evaluation and checkpoint loading never load scipy through
this module.

The op set is deliberately small: exactly what transformer encoders and
the contrastive / reconstruction losses need, each registered with a
backward rule and covered by ``check_gradients``. Five of them are
fused, one tape node each: ``linear`` (matmul plus bias over the last
axis, plus an optional same-shape residual), ``mlp`` (``linear``, GELU,
``linear`` with the residual), ``attention`` (head split, scaled QK^T,
padding bias, softmax, AV and head merge), ``symmetric_info_nce``
(clamped temperature, scaled similarities, both directions' log-sum-exp
minus the diagonal, mean) and ``mean_squared_error`` (difference,
square, mean). They run the same numpy expressions in the same order as
the chain of primitive ops they replace, so results are bit-identical
to it; the tape is what shrinks.

Evaluation records no tape, and ``mlp`` alone uses that: without a tape
it runs GELU in place over its hidden rows and keeps no erf array, so
an inference forward holds one hidden-width array per block where
training holds three.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import queue
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

_default_dtype = np.float32
LAYER_NORM_EPS = 1e-6
L2_NORM_EPS = 1e-8  # keeps a zero row finite


@contextlib.contextmanager
def verification_mode():
    """Compute in float64 within the block. Used by gradient checks."""
    global _default_dtype
    prev = _default_dtype
    _default_dtype = np.float64
    try:
        yield
    finally:
        _default_dtype = prev


class Tensor:
    """Dense float array with an optional same-shape gradient.

    ``requires_grad=True`` marks the tensor as tracked: backward passes
    accumulate into ``grad``, which stays ``None`` until they do. Data is
    row-major and immutable by convention after the forward pass.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_default_dtype)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """Leaf tensor tracked for gradients."""
    return Tensor(data, requires_grad=True)


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: Sequence[Tensor],
                 backward_fn: Callable[[np.ndarray], None]):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class _Tape(threading.local):
    graph: Optional["Graph"] = None  # the open graph of the current thread


_tape = _Tape()


class Job:
    """One call run on the worker thread (see ``on_worker``).

    As a context manager it waits for the call when its block ends, also
    when the block raises, and then raises again whatever the call
    raised, unless the block's own exception is already on its way.
    """

    __slots__ = ("fn", "result", "error", "_done")

    def __init__(self, fn: Callable):
        self.fn, self.result, self.error = fn, None, None
        self._done = threading.Lock()
        self._done.acquire()  # released when the call has returned or raised

    def run(self) -> None:
        try:
            self.result = self.fn()
        except BaseException as e:  # raised again on the thread that waits
            self.error = e
        self._done.release()

    def join(self) -> None:
        with self._done:
            pass

    def wait(self):
        """The call's result, or its exception raised again."""
        self.join()
        if self.error is not None:
            raise self.error
        return self.result

    def __enter__(self) -> "Job":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.join()
        if exc_type is None:
            self.wait()
        return False


_worker: Optional[threading.Thread] = None
_jobs: queue.SimpleQueue = queue.SimpleQueue()
_start_lock = threading.Lock()


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        jobs.get().run()


def on_worker(fn: Callable) -> Job:
    """Run ``fn()`` on the one worker thread, starting it on first use,
    beside the calling thread. Called on the worker itself, ``fn()`` runs
    at once, since a queued job would wait behind the one calling it."""
    global _worker
    job = Job(fn)
    if threading.current_thread() is _worker:
        job.run()
        return job
    with _start_lock:
        if _worker is None:
            _worker = threading.Thread(target=_serve, args=(_jobs,), daemon=True,
                                       name="flip-autodiff-branch")
            _worker.start()
    _jobs.put(job)
    return job


def _forget_worker() -> None:
    """A forked child has no worker thread; its first branch starts one."""
    global _worker, _jobs, _start_lock
    _worker, _jobs, _start_lock = None, queue.SimpleQueue(), threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _walk(nodes: Sequence[_Node]) -> None:
    """Run the backward rules of ``nodes`` in reverse, dropping each
    output's gradient once its rule has consumed it."""
    for node in reversed(nodes):
        g = node.output.grad
        if g is None:
            continue
        node.backward_fn(g)
        node.output.grad = None


class Graph:
    """Execution tape: topologically ordered record of executed ops.

    Entering the context installs the graph for the current thread, so
    the ops that thread runs record themselves; another thread's ops do
    not. ``backward`` visits nodes in exact reverse execution (= reverse
    topological) order, with each ``branch`` segment walked on the
    worker thread while the calling thread walks the nodes before it.
    Leaving the context waits for any branch whose result was not taken.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._segments: list[tuple[int, int]] = []  # spliced branch tapes, in tape order
        self._untaken: list[Job] = []

    def __enter__(self):
        if _tape.graph is not None:
            raise RuntimeError("nested autodiff graphs are not supported")
        _tape.graph = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape.graph = None
        for job in self._untaken:
            job.join()
        self._untaken.clear()
        return False

    def branch(self, fn: Callable, *args) -> Callable[[], object]:
        """Start ``fn(*args)`` on the worker thread, recording its ops on a
        tape of its own, and return a function that waits for its result.

        The first call of that function splices the branch's nodes onto
        this tape as one segment, after every node recorded so far, and
        raises again whatever ``fn`` raised. ``fn`` runs beside the
        caller, so neither may change an array that the other reads. A
        branch whose result is never taken adds no node.
        """
        if threading.current_thread() is _worker:
            raise RuntimeError("a branch cannot start another branch")
        tape = Graph()

        def run():
            with tape:
                return fn(*args)

        job = on_worker(run)
        self._untaken.append(job)

        def take():
            result = job.wait()
            if job in self._untaken:
                self._untaken.remove(job)
                start = len(self.nodes)
                self.nodes += tape.nodes
                self._segments.append((start, len(self.nodes)))
            return result

        return take

    def _walks_alone(self, lo: int, hi: int) -> bool:
        """True when the backward of ``nodes[lo:hi]`` writes no gradient
        that a node before it reads or writes: every tracked input from
        outside the segment is a tensor no earlier node takes or makes."""
        inside = {node.output for node in self.nodes[lo:hi]}
        before = {t for node in self.nodes[:lo] for t in (node.output, *node.inputs)}
        return not any(t.requires_grad and t not in inside and t in before
                       for node in self.nodes[lo:hi] for t in node.inputs)

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every tracked leaf's grad and
        drop each node output's gradient once its rule has consumed it.
        A branch's error in its backward is raised here, once both
        threads are done."""
        if loss.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad:
            raise ValueError("loss is not tracked; nothing to differentiate")
        loss.grad = np.ones_like(loss.data)
        handed = []
        try:
            stop = len(self.nodes)
            for lo, hi in reversed(self._segments):
                _walk(self.nodes[hi:stop])
                if self._walks_alone(lo, hi):
                    handed.append(on_worker(functools.partial(_walk, self.nodes[lo:hi])))
                else:
                    _walk(self.nodes[lo:hi])
                stop = lo
            _walk(self.nodes[:stop])
        except BaseException:
            for job in handed:
                job.join()
            raise
        for job in handed:
            job.wait()


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Mark ``out`` tracked and append a tape node if recording is active.

    A node whose output never received a gradient is skipped in backward.
    """
    graph = _tape.graph
    if graph is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        graph.nodes.append(_Node(out, inputs, backward_fn))
    return out


def _accum(t: Tensor, g) -> None:
    """Add the contribution ``g`` to ``t``'s gradient.

    A first contribution of ``t``'s shape and dtype becomes the buffer;
    only one that must broadcast or cast is copied. Later ones are added
    with ``+=``. So ``g`` passes to ``t``: it is the rule's incoming
    gradient, a view of it, or an array the rule computed, and the rule
    reads it no more once it is handed on. A rule never hands one array,
    or overlapping views of one, to two inputs.
    """
    if t.grad is not None:
        t.grad += g
    elif isinstance(g, np.ndarray) and g.shape == t.data.shape and g.dtype == t.data.dtype:
        t.grad = g
    else:
        t.grad = np.array(np.broadcast_to(g, t.data.shape), dtype=t.data.dtype)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad down to ``shape`` (inverse of the bias-add broadcast)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# operator set


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked (batched) matmul when both have equal leading dims."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise DimensionError(f"matmul: incompatible ranks {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _record(out, (a, b), backward)


def _affine_shape(op: str, x_shape, w: Tensor, b: Tensor, residual: Tensor | None = None):
    """The output shape of ``x @ w + b`` over the last axis of ``x``, or a
    ``DimensionError`` naming ``op``. ``residual`` must have exactly that
    shape."""
    if w.data.ndim != 2 or not x_shape or x_shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"{op}: shapes {x_shape} x {w.shape} + {b.shape} do not fit")
    shape = x_shape[:-1] + w.shape[1:]
    if residual is not None and residual.shape != shape:
        raise DimensionError(f"{op}: residual {residual.shape} does not match output {shape}")
    return shape


def _affine(x2: np.ndarray, w: Tensor, b: Tensor, residual: Tensor | None) -> np.ndarray:
    """``x2 @ w + b (+ residual)`` on rows, in one fresh buffer."""
    out2 = x2 @ w.data
    out2 += b.data
    if residual is not None:
        out2 += residual.data.reshape(out2.shape)
    return out2


def _affine_backward(g2: np.ndarray, x2: np.ndarray, w: Tensor, b: Tensor,
                     wants_input: bool) -> np.ndarray | None:
    """Accumulate ``b``'s and ``w``'s gradients from ``x2 @ w + b``'s
    output gradient ``g2`` on rows, and return the rows' own gradient if
    ``wants_input``."""
    if b.requires_grad:
        _accum(b, g2.sum(axis=0))
    g_in = g2 @ w.data.T if wants_input else None
    if w.requires_grad:
        _accum(w, x2.T @ g2)
    return g_in


def linear(x: Tensor, w: Tensor, b: Tensor, residual: Tensor | None = None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``; leading axes are kept.
    ``residual``, of exactly the output's shape, is added last into the
    same buffer (a pre-norm block's skip connection)."""
    shape = _affine_shape("linear", x.shape, w, b, residual)
    x2 = x.data.reshape(-1, w.shape[0])
    out = Tensor(_affine(x2, w, b, residual).reshape(shape))

    def backward(g):
        gx = _affine_backward(g.reshape(-1, w.shape[1]), x2, w, b, x.requires_grad)
        if gx is not None:
            _accum(x, gx.reshape(x.shape))
        if residual is not None and residual.requires_grad:
            _accum(residual, g)  # last: the rows are a view of g

    return _record(out, (x, w, b) if residual is None else (x, w, b, residual), backward)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        residual: Tensor | None = None) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2, residual)``, a transformer
    block's MLP, as one tape node.

    When a tape records, it keeps the chain's arrays (the hidden rows,
    their GELU and its erf term) and its backward frees GELU's incoming
    gradient as soon as GELU's rule has read it, as the chain's walk
    does. When none records, GELU overwrites the hidden rows block by
    block and no erf array is kept, so the forward holds one
    hidden-width array instead of three.
    """
    hidden = _affine_shape("mlp", x.shape, w1, b1)
    shape = _affine_shape("mlp", hidden, w2, b2, residual)
    inputs = (x, w1, b1, w2, b2) if residual is None else (x, w1, b1, w2, b2, residual)
    x2 = x.data.reshape(-1, w1.shape[0])
    h = _affine(x2, w1, b1, None)
    if _tape.graph is not None and any(t.requires_grad for t in inputs):
        y, e = np.empty_like(h), np.empty_like(h)
    else:
        y, e = h, None
    _gelu_forward(h, y, e)
    out = Tensor(_affine(y, w2, b2, residual).reshape(shape))

    def backward(g):
        gy = _affine_backward(g.reshape(-1, w2.shape[1]), y, w2, b2,
                              x.requires_grad or w1.requires_grad or b1.requires_grad)
        if residual is not None and residual.requires_grad:
            _accum(residual, g)
        if gy is not None:
            gh = _gelu_backward(h, e, gy)
            del gy
            gx = _affine_backward(gh, x2, w1, b1, x.requires_grad)
            if gx is not None:
                _accum(x, gx.reshape(x.shape))

    return _record(out, inputs, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may broadcast against ``a`` (bias-add pattern)."""
    if np.broadcast_shapes(a.shape, b.shape) != a.shape:
        raise DimensionError(f"add: {b.shape} does not broadcast onto {a.shape}")
    out = Tensor(a.data + b.data)

    def backward(g):
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            _accum(b, gb.copy() if gb is g and a.requires_grad else gb)  # a takes g
        if a.requires_grad:
            _accum(a, g)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if np.broadcast_shapes(a.shape, b.shape) != a.shape:
        raise DimensionError(f"mul: {b.shape} does not broadcast onto {a.shape}")
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant."""
    out = Tensor(x.data * c)

    def backward(g):
        if x.requires_grad:
            _accum(x, g * c)

    return _record(out, (x,), backward)


# Eigen's and XLA's float32 erf: an odd 7-term over an even 5-term
# polynomial in z, coefficients highest power first. With z clamped to
# [-4, 4] it stays within 8 ulp of erf and gives exactly +-1 past the clamp.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)
# Elements per pass of the blocked elementwise kernels (256 KB of
# float32): each of a kernel's ~25 passes then reads its operands from
# cache instead of streaming the whole activation from memory.
_BLOCK = 1 << 16


def _blocks(*arrays: np.ndarray):
    """Matching ``_BLOCK``-sized slices of equally long flat arrays."""
    for s in range(0, arrays[0].size, _BLOCK):
        yield tuple(a[s : s + _BLOCK] for a in arrays)


def _erf32(z: np.ndarray, out: np.ndarray, z2: np.ndarray) -> None:
    """Rational float32 erf of the block ``z`` into ``out``; ``z`` and
    ``z2`` are overwritten as scratch. NaN stays NaN."""
    np.clip(z, -4.0, 4.0, out=z)
    np.multiply(z, z, out=z2)
    np.multiply(z2, _ERF_P[0], out=out)
    out += _ERF_P[1]
    for c in _ERF_P[2:]:
        out *= z2
        out += c
    out *= z
    np.multiply(z2, _ERF_Q[0], out=z)
    z += _ERF_Q[1]
    for c in _ERF_Q[2:]:
        z *= z2
        z += c
    out /= z


def _gelu_forward(x: np.ndarray, out: np.ndarray, e: np.ndarray | None) -> None:
    """GELU of ``x`` into ``out``, which may be ``x`` itself, blockwise
    over preallocated scratch. ``e`` receives the ``erf(x / sqrt(2))``
    term that the gradient reuses; with ``e=None`` each block's term lives
    in scratch only. float32 takes the rational erf; float64
    (``verification_mode``) keeps scipy's exact erf."""
    xf, of = x.reshape(-1), out.reshape(-1)
    scratch = np.empty((2 if e is not None else 3, min(xf.size, _BLOCK)), x.dtype)
    ef = e.reshape(-1) if e is not None else None
    for s in range(0, xf.size, _BLOCK):
        xb, ob = xf[s : s + _BLOCK], of[s : s + _BLOCK]
        zb, z2b = scratch[0, : xb.size], scratch[1, : xb.size]
        eb = ef[s : s + _BLOCK] if ef is not None else scratch[2, : xb.size]
        np.multiply(xb, _INV_SQRT2, out=zb)
        if x.dtype == np.float32:
            _erf32(zb, eb, z2b)
        else:
            from scipy.special import erf  # loaded by gradient checks only

            erf(zb, out=eb)
        np.multiply(xb, 0.5, out=ob)  # xb's last read: ob may be xb
        np.add(eb, 1.0, out=zb)
        ob *= zb


def _gelu_backward(x: np.ndarray, e: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g * (0.5 * (1 + e) + x * pdf(x))`` blockwise, into a fresh array."""
    xf, ef, gf = x.reshape(-1), e.reshape(-1), g.reshape(-1)
    gx = np.empty_like(xf)
    t, u = np.empty((2, min(xf.size, _BLOCK)), x.dtype)
    for xb, eb, gb, gxb in _blocks(xf, ef, gf, gx):
        tb, ub = t[: xb.size], u[: xb.size]
        np.multiply(xb, -0.5, out=tb)
        tb *= xb
        np.exp(tb, out=tb)
        tb *= _INV_SQRT2PI
        tb *= xb
        np.add(eb, 1.0, out=ub)
        ub *= 0.5
        ub += tb
        np.multiply(gb, ub, out=gxb)
    return gx.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """erf GELU: 0.5 * x * (1 + erf(x / sqrt(2))), with erf exact in
    float64 and within 8 ulp in float32."""
    y, e = np.empty_like(x.data), np.empty_like(x.data)
    _gelu_forward(x.data, y, e)
    out = Tensor(y)

    def backward(g):
        if x.requires_grad:
            _accum(x, _gelu_backward(x.data, e, g))

    return _record(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero mean / unit variance over the last axis, then affine.

    Every row mean is one BLAS matrix-vector product against a constant
    ``1/d`` column (or ``gain/d`` in the backward pass).
    """
    d = x.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm: empty last axis")
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match axis {d}"
        )
    x2 = x.data.reshape(-1, d)
    mean_col = np.full((d, 1), 1.0 / d, dtype=x2.dtype)
    xhat = x2 - x2 @ mean_col
    y = np.square(xhat)
    inv = y @ mean_col
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y.reshape(x.shape))

    def backward(g):
        g2 = g.reshape(-1, d)
        gx = g2 * xhat
        if gain.requires_grad:
            _accum(gain, gx.sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g2.sum(axis=0))
        if x.requires_grad:
            # mean(gh) and mean(gh * xhat) with gh = g * gain
            mean_gain = (gain.data / d)[:, None]
            m1 = g2 @ mean_gain
            m2 = gx @ mean_gain
            np.multiply(xhat, m2, out=gx)
            gh = g2 * gain.data
            gh -= m1
            gh -= gx
            gh *= inv
            _accum(x, gh.reshape(x.shape))

    return _record(out, (x, gain, bias), backward)


def _softmax_forward(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis. The row max is taken one column at a
    time: exact like ``max(axis=-1)``, and faster over short rows."""
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j : j + 1], out=m)
    ez = np.exp(x - m)
    return ez / ez.sum(axis=-1, keepdims=True)


def _softmax_backward(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Input gradient of a last-axis softmax with output ``s``."""
    return (g - np.sum(g * s, axis=-1, keepdims=True)) * s


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, bias: Tensor | None = None) -> Tensor:
    """Multi-head scaled dot-product attention on ``[b, t, d]`` inputs.

    Splits ``d`` into ``heads`` heads, computes softmax(q k^T / sqrt(dh)
    + bias) v per head and merges the heads back to ``[b, t, d]``.
    ``bias`` is a constant (e.g. -1e9 on padding keys) that broadcasts
    onto the ``[b, heads, t, t]`` scores and receives no gradient.
    """
    if q.data.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(
            f"attention: needs equal [b, t, d] inputs, got {q.shape}, {k.shape}, {v.shape}"
        )
    b, t, d = q.shape
    if heads < 1 or d % heads:
        raise DimensionError(f"attention: width {d} not divisible by {heads} heads")
    if bias is not None and bias.requires_grad:
        raise ValueError("attention: the bias is a constant and gets no gradient")
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    def split(x):  # [b, t, d] -> [b, heads, t, dh] view
        return x.data.reshape(b, t, heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * c
    if bias is not None:
        scores = scores + bias.data
    s = _softmax_forward(scores)
    out = Tensor((s @ vh).transpose(0, 2, 1, 3).reshape(b, t, d))

    def merge(gh):  # [b, heads, t, dh] -> fresh [b, t, d]
        return gh.transpose(0, 2, 1, 3).reshape(b, t, d)

    def backward(g):
        gh = np.ascontiguousarray(g.reshape(b, t, heads, dh).transpose(0, 2, 1, 3))
        ds = _softmax_backward(gh @ vh.swapaxes(-1, -2), s) * c
        if v.requires_grad:
            _accum(v, merge(s.swapaxes(-1, -2) @ gh))
        if q.requires_grad:
            _accum(q, merge(ds @ kh))
        if k.requires_grad:
            _accum(k, merge((qh.swapaxes(-1, -2) @ ds).transpose(0, 1, 3, 2)))

    return _record(out, (q, k, v), backward)


def symmetric_info_nce(image_emb: Tensor, text_emb: Tensor, logit_scale: Tensor,
                       max_log_scale: float) -> Tensor:
    """CLIP's symmetric InfoNCE on ``[b, d]`` embeddings and a ``[1]``
    log-space scale, with matched pairs on the diagonal.

    The logits are ``exp(min(logit_scale, max_log_scale)) * image_emb @
    text_emb^T``; the loss is the mean of the row-wise (image-to-text) and
    column-wise (text-to-image) cross entropies. The log-scale gets no
    gradient past the cap.
    """
    if image_emb.data.ndim != 2 or text_emb.shape != image_emb.shape:
        raise DimensionError(f"symmetric_info_nce: needs equal [b, d] embeddings, "
                             f"got {image_emb.shape} and {text_emb.shape}")
    if logit_scale.size != 1:
        raise DimensionError(f"symmetric_info_nce: scale must be a scalar, got {logit_scale.shape}")
    img, txt = image_emb.data, text_emb.data
    b = img.shape[0]
    s = np.exp(np.minimum(logit_scale.data, max_log_scale)).reshape(())
    raw = img @ txt.T
    logits = raw * s
    probs, ce = [], []
    for x in (logits, logits.T):  # rows are image-to-text, columns text-to-image
        m = x.max(axis=-1, keepdims=True)
        ez = np.exp(x - m)
        sez = ez.sum(axis=-1, keepdims=True)
        ce.append(((m + np.log(sez)).squeeze(-1) - x.diagonal()).mean())
        ez /= sez
        probs.append(ez)
    out = Tensor((ce[0] + ce[1]) * 0.5)

    def backward(g):
        gm = (g * 0.5) / b
        d = (gm * probs[1]).T.copy()
        diag = d.reshape(-1)[:: b + 1]
        diag -= gm  # the two directions' target terms, one at a time
        diag -= gm
        d += gm * probs[0]
        graw = d * s
        if image_emb.requires_grad:
            _accum(image_emb, graw @ txt)
        if text_emb.requires_grad:
            _accum(text_emb, (img.T @ graw).T)
        if logit_scale.requires_grad:
            _accum(logit_scale, np.sum(d * raw) * s * (logit_scale.data < max_log_scale))

    return _record(out, (image_emb, text_emb, logit_scale), backward)


def _check_indices(idx: np.ndarray, n: int):
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"index out of range for {n} rows: [{idx.min()}, {idx.max()}]")


def take_rows(x: Tensor, idx) -> Tensor:
    """Select rows of a 2-D tensor; indices may repeat (embedding tables).

    ``idx`` may have any shape; the output is ``idx.shape + (d,)``.
    Backward scatter-adds the output gradient into the selected rows and
    leaves every other row's gradient untouched (zero contribution).
    """
    if x.data.ndim != 2:
        raise DimensionError(f"take_rows: needs a 2-D tensor, got {x.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    _check_indices(idx, x.shape[0])
    out = Tensor(x.data[idx])

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            _accum(x, gx)

    return _record(out, (x,), backward)


def _check_axis(axis: int, ndim: int, op: str):
    if not 0 <= axis < ndim:
        raise DimensionError(f"{op}: axis {axis} out of range for {ndim} dims")


def concat(xs: Sequence[Tensor], axis: int) -> Tensor:
    """Join tensors along ``axis``; every other axis must match."""
    if not xs:
        raise DimensionError("concat: needs at least one tensor")
    _check_axis(axis, xs[0].data.ndim, "concat")
    rest = [x.shape[:axis] + x.shape[axis + 1 :] for x in xs]
    if any(r != rest[0] for r in rest):
        raise DimensionError(
            f"concat: shapes {[x.shape for x in xs]} differ off axis {axis}"
        )
    out = Tensor(np.concatenate([x.data for x in xs], axis=axis))
    ends = np.cumsum([x.shape[axis] for x in xs])

    def backward(g):
        for x, part in zip(xs, np.split(g, ends[:-1], axis=axis)):
            if x.requires_grad:
                _accum(x, part)

    return _record(out, xs, backward)


def slice_axis(x: Tensor, start: int, stop: int, axis: int) -> Tensor:
    """Positions ``start:stop`` of ``axis``; the other positions get a
    zero gradient."""
    _check_axis(axis, x.data.ndim, "slice_axis")
    if not 0 <= start <= stop <= x.shape[axis]:
        raise DimensionError(
            f"slice_axis: [{start}, {stop}) outside axis {axis} of {x.shape}"
        )
    window = (slice(None),) * axis + (slice(start, stop),)
    out = Tensor(x.data[window])

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[window] = g
            _accum(x, gx)

    return _record(out, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def backward(g):
        if x.requires_grad:
            _accum(x, g.reshape(x.shape))

    return _record(out, (x,), backward)


def mean_over_axis(x: Tensor, axis: int) -> Tensor:
    """Mean along one axis (dropped from the output shape)."""
    n = x.shape[axis]
    out = Tensor(x.data.mean(axis=axis))

    def backward(g):
        if x.requires_grad:
            _accum(x, np.expand_dims(g, axis) / n)

    return _record(out, (x,), backward)


def mean_squared_error(pred: Tensor, target) -> Tensor:
    """``mean((pred - target)^2)`` over all elements. ``target`` is a
    constant array of ``pred``'s shape and gets no gradient."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.shape or target.size == 0:
        raise DimensionError(
            f"mean_squared_error: target {target.shape} does not fit prediction {pred.shape}"
        )
    d = pred.data - target
    out = Tensor((d * d).mean())

    def backward(g):
        if pred.requires_grad:
            gd = (g / d.size) * d
            gd += gd  # the two factors of d * d, one at a time
            _accum(pred, gd)

    return _record(out, (pred,), backward)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def backward(g):
        if x.requires_grad:
            _accum(x, g)

    return _record(out, (x,), backward)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Per-row L2 normalization with an eps guard for zero rows."""
    if x.data.ndim != 2:
        raise DimensionError(f"l2_normalize_rows: needs a 2-D tensor, got {x.shape}")
    norm = np.linalg.norm(x.data, axis=1, keepdims=True)
    denom = norm + L2_NORM_EPS
    out = Tensor(x.data / denom)

    def backward(g):
        if x.requires_grad:
            safe = np.where(norm > 0.0, norm, 1.0)
            dot = np.sum(x.data * g, axis=1, keepdims=True)
            _accum(x, g / denom - x.data * dot / (safe * denom * denom))

    return _record(out, (x,), backward)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class OpCheck:
    """A registered op plus a way to draw valid random inputs for it."""

    name: str
    apply: Callable[..., Tensor]
    make_inputs: Callable[[np.random.Generator], tuple[list[Tensor], dict]]


@dataclass
class GradCheckReport:
    op: str
    tolerance: float
    max_rel_err: list[float] = field(default_factory=list)

    @property
    def worst(self) -> float:
        return max(self.max_rel_err) if self.max_rel_err else 0.0

    @property
    def passed(self) -> bool:
        return self.worst < self.tolerance

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        errs = ", ".join(f"{e:.3g}" for e in self.max_rel_err)
        return f"{self.op}: [{errs}] tol={self.tolerance:g} {status}"


def _rand(rng, shape):
    return rng.standard_normal(shape)


def _padding_bias(rng, b, t):
    """[b, 1, 1, t] key bias of 0 or -1e9 that leaves every sample at least
    one key, as ``encode_text`` does (a fully masked row would make central
    differences on -1e9 meaningless)."""
    hidden = rng.random((b, t)) < 0.5
    hidden[:, 0] = False
    return Tensor(np.where(hidden, -1e9, 0.0)[:, None, None, :])


def _default_checks() -> dict[str, OpCheck]:
    def t(rng, shape):
        return Tensor(_rand(rng, shape), requires_grad=True)

    checks = [
        OpCheck("matmul", matmul, lambda rng: ([t(rng, (3, 4)), t(rng, (4, 2))], {})),
        OpCheck(
            "matmul_stacked",
            matmul,
            lambda rng: ([t(rng, (2, 3, 4)), t(rng, (2, 4, 3))], {}),
        ),
        OpCheck(
            "linear", linear, lambda rng: ([t(rng, (3, 4)), t(rng, (4, 2)), t(rng, (2,))], {})
        ),
        OpCheck(
            "linear_3d",
            linear,
            lambda rng: ([t(rng, (2, 3, 4)), t(rng, (4, 3)), t(rng, (3,))], {}),
        ),
        OpCheck(
            "linear_residual",
            linear,
            lambda rng: ([t(rng, (2, 3, 4)), t(rng, (4, 3)), t(rng, (3,)), t(rng, (2, 3, 3))], {}),
        ),
        OpCheck(
            "attention",
            attention,
            lambda rng: ([t(rng, (2, 3, 4)) for _ in range(3)], {"heads": 2}),
        ),
        OpCheck(
            "attention_bias",
            attention,
            lambda rng: (
                [t(rng, (2, 3, 4)) for _ in range(3)],
                {"heads": 2, "bias": _padding_bias(rng, 2, 3)},
            ),
        ),
        OpCheck(  # a N(0, 1) log-scale lands on either side of the cap
            "symmetric_info_nce",
            symmetric_info_nce,
            lambda rng: ([t(rng, (4, 5)), t(rng, (4, 5)), t(rng, (1,))], {"max_log_scale": 0.5}),
        ),
        OpCheck("add", add, lambda rng: ([t(rng, (3, 4)), t(rng, (3, 4))], {})),
        OpCheck("add_bias", add, lambda rng: ([t(rng, (3, 4)), t(rng, (4,))], {})),
        OpCheck("mul", mul, lambda rng: ([t(rng, (3, 4)), t(rng, (3, 4))], {})),
        OpCheck("scale", scale, lambda rng: ([t(rng, (3, 4))], {"c": 1.7})),
        OpCheck("gelu", gelu, lambda rng: ([t(rng, (3, 4))], {})),
        OpCheck(
            "mlp",
            mlp,
            lambda rng: ([t(rng, (2, 3, 4)), t(rng, (4, 6)), t(rng, (6,)), t(rng, (6, 4)),
                          t(rng, (4,)), t(rng, (2, 3, 4))], {}),
        ),
        OpCheck(
            "layer_norm",
            layer_norm,
            lambda rng: ([t(rng, (3, 8)), t(rng, (8,)), t(rng, (8,))], {}),
        ),
        OpCheck(
            "layer_norm_3d",
            layer_norm,
            lambda rng: ([t(rng, (2, 3, 6)), t(rng, (6,)), t(rng, (6,))], {}),
        ),
        OpCheck(
            "take_rows",
            take_rows,
            lambda rng: ([t(rng, (6, 3))], {"idx": rng.integers(0, 6, size=8)}),
        ),
        OpCheck("take_rows_2d_idx", take_rows,
                lambda rng: ([t(rng, (6, 3))], {"idx": rng.integers(0, 6, size=(2, 4))})),
        OpCheck(
            "concat",
            lambda *xs, axis: concat(xs, axis),
            lambda rng: ([t(rng, (2, 1, 3)), t(rng, (2, 3, 3)), t(rng, (2, 2, 3))], {"axis": 1}),
        ),
        OpCheck(
            "concat_axis_0",
            lambda *xs, axis: concat(xs, axis),
            lambda rng: ([t(rng, (1, 4)), t(rng, (3, 4))], {"axis": 0}),
        ),
        OpCheck("slice_axis_head", slice_axis,
                lambda rng: ([t(rng, (2, 5, 3))], {"start": 0, "stop": 2, "axis": 1})),
        OpCheck("slice_axis_tail", slice_axis,
                lambda rng: ([t(rng, (2, 5, 3))], {"start": 3, "stop": 5, "axis": 1})),
        OpCheck("slice_axis_0", slice_axis,
                lambda rng: ([t(rng, (5, 3))], {"start": 1, "stop": 4, "axis": 0})),
        OpCheck("reshape", reshape, lambda rng: ([t(rng, (3, 4))], {"shape": (2, 6)})),
        OpCheck(
            "mean_over_axis", mean_over_axis, lambda rng: ([t(rng, (3, 4))], {"axis": 0})
        ),
        OpCheck("mean_squared_error", mean_squared_error,
                lambda rng: ([t(rng, (2, 3, 4))], {"target": _rand(rng, (2, 3, 4))})),
        OpCheck("sum_all", sum_all, lambda rng: ([t(rng, (3, 4))], {})),
        OpCheck("l2_normalize_rows", l2_normalize_rows, lambda rng: ([t(rng, (4, 5))], {})),
    ]
    return {c.name: c for c in checks}


REGISTERED_OPS = _default_checks()


def check_gradients(
    op: str | OpCheck,
    tolerance: float = 1e-4,
    n_seeds: int = 10,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Runs in 64-bit verification mode on randomized inputs over ``n_seeds``
    seeds and reports the max relative error per input position. Failures
    are reported in the result, never raised.
    """
    spec = REGISTERED_OPS[op] if isinstance(op, str) else op
    report = GradCheckReport(op=spec.name, tolerance=tolerance)
    with verification_mode():
        worst_per_input: list[float] = []
        for seed in range(n_seeds):
            rng = np.random.default_rng((seed, zlib.crc32(spec.name.encode())))
            inputs, kwargs = spec.make_inputs(rng)
            weights = None

            def loss_value() -> tuple[float, Tensor | None]:
                nonlocal weights
                out = spec.apply(*inputs, **kwargs)
                if weights is None:
                    weights = rng.standard_normal(out.shape)
                return float(np.sum(out.data * weights)), out

            with Graph() as graph:
                value, out = loss_value()
                if not out.requires_grad:  # op has no tracked inputs
                    continue
                graph.backward(sum_all(mul(out, Tensor(weights))))

            for i, inp in enumerate(inputs):
                analytic = inp.grad.copy()
                numeric = np.zeros_like(analytic)
                flat = inp.data.reshape(-1)
                nflat = numeric.reshape(-1)
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + step
                    up, _ = loss_value()
                    flat[j] = orig - step
                    down, _ = loss_value()
                    flat[j] = orig
                    nflat[j] = (up - down) / (2 * step)
                denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
                err = float(np.max(np.abs(analytic - numeric) / denom))
                if len(worst_per_input) <= i:
                    worst_per_input.append(err)
                else:
                    worst_per_input[i] = max(worst_per_input[i], err)
        report.max_rel_err = worst_per_input
    return report
