"""Functional operations on :class:`~repro.tensor.Tensor`.

Besides the usual dense ops (:func:`concat`, :func:`softmax`, ...) this
module provides the *segment* operations that make graph neural networks
practical on a numpy backend:

* :func:`gather_rows` — select node rows by edge endpoint indices;
* :func:`segment_sum` / :func:`segment_mean` — scatter-add edge messages back
  to node slots;
* :func:`segment_softmax` — softmax of attention scores *within* each target
  node's neighbourhood (variable neighbourhood sizes, no padding).

All segment ops take an integer ``segment_ids`` array aligned with axis 0 of
the data and a ``num_segments`` total, mirroring the message-passing pattern
``messages = gather_rows(h, src); out = segment_sum(messages, dst, n)``.

Each segment op has two implementations: the *reference* kernels built on
``np.add.at`` / ``np.maximum.at`` (simple, obviously correct, slow) and a
fast path that reduces over a cached :class:`~repro.tensor.segment.SegmentPlan`
with ``ufunc.reduceat`` (see :mod:`repro.tensor.segment`).  The dispatch is
controlled by :func:`repro.tensor.segment.set_fast_kernels`; the
``*_reference`` functions stay importable so tests and benchmarks can pin
the fast path against them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import cnative as _cnative
from . import plan as _plan
from . import pool as _pool
from . import segment as _segment
from .segment import get_plan
from .tensor import ArrayLike, Tensor, as_tensor, unbroadcast

# Row-block size of :func:`matmul_blocked`.  BLAS results vary *bitwise*
# with the row count M (kernel/blocking selection changes the FMA
# accumulation order), so an edge-count-sized matmul computed over a row
# subset does not reproduce the full-matrix bytes.  Evaluating in fixed
# blocks anchored at absolute row offsets makes every output row a pure
# function of its own block's input bytes -- any process recomputing the
# covering blocks of a row range (repro.core.shard_train bands) gets results
# bit-identical to the full single-process evaluation.
MATMUL_BLOCK = 4096


def matmul_blocked(a: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """``a @ w`` evaluated in fixed :data:`MATMUL_BLOCK`-row blocks.

    Block ``k`` covers absolute rows ``[k*B, min((k+1)*B, n))``; results are
    independent of buffer alignment and of which other blocks are computed
    alongside, which is the reproducibility contract sharded propagation
    relies on.  ``out=None`` allocates (matching ``np.matmul``'s dtype
    promotion); a pooled buffer may be passed through.
    """
    n = a.shape[0]
    if n <= MATMUL_BLOCK:
        return np.matmul(a, w, out=out)
    if out is None:
        out = np.empty((n, w.shape[1]), dtype=np.result_type(a, w))
    for start in range(0, n, MATMUL_BLOCK):
        stop = min(start + MATMUL_BLOCK, n)
        np.matmul(a[start:stop], w, out=out[start:stop])
    return out


def matmul_grad_blocked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b`` as a strictly ascending sum of per-block partials.

    The weight-gradient counterpart of :func:`matmul_blocked`: block ``k``
    contributes ``a[kB:kE].T @ b[kB:kE]`` and the partials are accumulated
    in ascending block order.  Any executor that computes the same per-block
    partials -- a sharded backward summing its bands' contributions
    master-side in block order -- reproduces the result bit-for-bit.
    Identical to ``a.T @ b`` below :data:`MATMUL_BLOCK` rows.
    """
    n = a.shape[0]
    if n <= MATMUL_BLOCK:
        return a.T @ b
    out = None
    for start in range(0, n, MATMUL_BLOCK):
        stop = min(start + MATMUL_BLOCK, n)
        partial = np.matmul(a[start:stop].T, b[start:stop])
        out = partial if out is None else np.add(out, partial, out=out)
    return out


def rows_matmul(a: ArrayLike, w: ArrayLike) -> Tensor:
    """Differentiable ``a @ w`` with a :func:`matmul_blocked` forward.

    Used for edge-count-sized projections (edge attributes through the
    fusion weight's edge block) so that sharded workers can rebuild any
    block-aligned row range of the value bit-for-bit without the master
    shipping the (E, F) product through the feature arena.  Identical to
    ``a @ w`` below :data:`MATMUL_BLOCK` rows.
    """
    t_a = as_tensor(a)
    t_w = as_tensor(w)
    value = matmul_blocked(
        t_a.data,
        t_w.data,
        out=_pool.out_buffer(
            (t_a.shape[0], t_w.shape[1]), t_a.data.dtype, tag="rows-matmul"
        ),
    )

    def backward(grad: np.ndarray):
        out = []
        if t_a.requires_grad:
            g_a = np.matmul(
                grad,
                t_w.data.T,
                out=_pool.out_buffer(t_a.shape, t_a.data.dtype, tag="rows-mm-ga"),
            )
            out.append((t_a, g_a))
        if t_w.requires_grad:
            out.append((t_w, matmul_grad_blocked(t_a.data, grad)))
        return out

    result = Tensor(value, parents=(t_a, t_w), backward=backward)
    if _plan._TRACE is not None:
        x, y, dst = t_a.data, t_w.data, result.data

        def _replay_rows_matmul():
            matmul_blocked(x, y, out=dst)

        _plan.emit(_replay_rows_matmul)
    return result


def concat(tensors: Sequence[ArrayLike], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    ts = [as_tensor(t) for t in tensors]
    datas = [t.data for t in ts]
    out = None
    if datas and all(d.dtype == datas[0].dtype for d in datas[1:]):
        shape = list(datas[0].shape)
        ax = axis if axis >= 0 else len(shape) + axis
        shape[ax] = sum(d.shape[ax] for d in datas)
        out = _pool.out_buffer(shape, datas[0].dtype, tag="concat")
    data = np.concatenate(datas, axis=axis, out=out)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray):
        pieces = np.split(grad, splits, axis=axis)
        return tuple(zip(ts, pieces))

    result = Tensor(data, parents=tuple(ts), backward=backward)
    if _plan._TRACE is not None:
        dst = result.data
        _plan.emit(lambda: np.concatenate(datas, axis=axis, out=dst))
    return result


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    ts = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in ts], axis=axis)

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(ts), axis=axis)
        return tuple(
            (t, np.squeeze(piece, axis=axis)) for t, piece in zip(ts, pieces)
        )

    result = Tensor(data, parents=tuple(ts), backward=backward)
    if _plan._TRACE is not None:
        srcs = [t.data for t in ts]
        dst = result.data
        _plan.emit(lambda: np.stack(srcs, axis=axis, out=dst))
    return result


def gather_rows(tensor: ArrayLike, indices: np.ndarray) -> Tensor:
    """Select rows ``tensor[indices]`` along axis 0 (differentiable).

    ``indices`` may repeat; the backward pass scatter-adds into the source
    (via a cached :class:`SegmentPlan` on the fast path).
    """
    t = as_tensor(tensor)
    idx = np.asarray(indices, dtype=np.int64)
    shape = t.shape

    def backward(grad: np.ndarray):
        if _segment.fast_kernels_enabled():
            return ((t, get_plan(idx, shape[0]).sum(grad)),)
        full = _pool.zeros(shape, tag="gather-bwd")
        np.add.at(full, idx, grad)
        return ((t, full),)

    result = Tensor(
        _pool.take_rows(t.data, idx, tag="gather"), parents=(t,), backward=backward
    )
    if _plan._TRACE is not None:
        # ``idx`` is the caller's int64 array object (asarray is a no-copy
        # for int64 input): batch-dependent index arrays are refreshed in
        # place by the plan's bind hooks before this thunk runs, and the
        # backward closure's get_plan() rebuilds over the new contents.
        src, dst = t.data, result.data
        _plan.emit(lambda: np.take(src, idx, axis=0, out=dst, mode="clip"))
    return result


def gather_rows_reference(tensor: ArrayLike, indices: np.ndarray) -> Tensor:
    """:func:`gather_rows` pinned to the ``np.add.at`` scatter backward."""
    t = as_tensor(tensor)
    idx = np.asarray(indices, dtype=np.int64)
    shape = t.shape

    def backward(grad: np.ndarray):
        full = np.zeros(shape, dtype=np.float64)
        np.add.at(full, idx, grad)
        return ((t, full),)

    result = Tensor(t.data[idx], parents=(t,), backward=backward)
    if _plan._TRACE is not None:
        src, dst = t.data, result.data
        _plan.emit(lambda: np.copyto(dst, src[idx]))
    return result


def _check_segment_lengths(ids: np.ndarray, t: Tensor) -> None:
    if ids.shape[0] != t.shape[0]:
        raise ValueError(
            f"segment_ids length {ids.shape[0]} does not match data rows "
            f"{t.shape[0]}"
        )


def segment_sum(data: ArrayLike, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``data`` into ``num_segments`` buckets by ``segment_ids``."""
    t = as_tensor(data)
    ids = np.asarray(segment_ids, dtype=np.int64)
    _check_segment_lengths(ids, t)
    if _segment.fast_kernels_enabled():
        result = get_plan(ids, num_segments).sum(t.data)
    else:
        result = _pool.zeros((num_segments,) + t.shape[1:], tag="segsum")
        np.add.at(result, ids, t.data)

    def backward(grad: np.ndarray):
        return ((t, _pool.take_rows(grad, ids, tag="segsum-bwd")),)

    out = Tensor(result, parents=(t,), backward=backward)
    if _plan._TRACE is not None:
        src, dst = t.data, out.data
        if _segment.fast_kernels_enabled():
            plan = get_plan(ids, num_segments)
            _plan.emit(lambda: np.copyto(dst, plan.sum(src)))
        else:

            def _replay_segsum():
                dst.fill(0.0)
                np.add.at(dst, ids, src)

            _plan.emit(_replay_segsum)
    return out


def segment_sum_reference(
    data: ArrayLike, segment_ids: np.ndarray, num_segments: int
) -> Tensor:
    """:func:`segment_sum` pinned to the ``np.add.at`` kernel."""
    t = as_tensor(data)
    ids = np.asarray(segment_ids, dtype=np.int64)
    _check_segment_lengths(ids, t)
    result = np.zeros((num_segments,) + t.shape[1:], dtype=np.float64)
    np.add.at(result, ids, t.data)

    def backward(grad: np.ndarray):
        return ((t, grad[ids]),)

    out = Tensor(result, parents=(t,), backward=backward)
    if _plan._TRACE is not None:
        src, dst = t.data, out.data

        def _replay_segsum_ref():
            dst.fill(0.0)
            np.add.at(dst, ids, src)

        _plan.emit(_replay_segsum_ref)
    return out


def segment_counts(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Number of rows mapped to each segment (plain numpy, no autograd)."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    if _segment.fast_kernels_enabled():
        return get_plan(ids, num_segments).counts.astype(np.float64)
    return np.bincount(ids, minlength=num_segments).astype(np.float64)


def segment_mean(data: ArrayLike, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of rows per segment; empty segments yield zeros."""
    t = as_tensor(data)
    counts = segment_counts(segment_ids, num_segments)
    denom = np.maximum(counts, 1.0)
    summed = segment_sum(t, segment_ids, num_segments)
    if summed.data.ndim > 1:
        denom = denom.reshape((-1,) + (1,) * (summed.data.ndim - 1))
    return summed * Tensor(1.0 / denom)


def segment_softmax(
    scores: ArrayLike, segment_ids: np.ndarray, num_segments: int
) -> Tensor:
    """Softmax of ``scores`` computed independently within each segment.

    ``scores`` has shape ``(E,)`` or ``(E, H)`` (per-head scores); the softmax
    normalises over all rows sharing a segment id, per trailing column.
    Numerically stabilised by subtracting the per-segment maximum.
    """
    if not _segment.fast_kernels_enabled():
        return segment_softmax_reference(scores, segment_ids, num_segments)
    t = as_tensor(scores)
    ids = np.asarray(segment_ids, dtype=np.int64)
    _check_segment_lengths(ids, t)
    data = t.data
    squeeze = False
    if data.ndim == 1:
        data = data[:, None]
        squeeze = True

    # One sort shared by the max, the sum and the backward reduction.
    # ``pooled`` gates the in-place reuse of fresh pool buffers; with the
    # pool off every ``out=None`` collapses to the reference allocations.
    pooled = _pool.buffer_pool_enabled()
    plan = get_plan(ids, num_segments)
    sorted_scores = plan.sort(data)
    seg_max = plan.max_sorted(sorted_scores)  # (runs, H)
    spread_max = plan.spread_runs(seg_max)
    # spread_max is a fresh per-call buffer (never an aliased input), so the
    # shift and exp may overwrite it in place.
    shifted = np.subtract(sorted_scores, spread_max, out=spread_max if pooled else None)
    exp = np.exp(shifted, out=shifted if pooled else None)
    seg_sum = plan.sum_sorted(exp)
    spread_sum = plan.spread_runs(seg_sum)
    weights_sorted = np.divide(exp, spread_sum, out=exp if pooled else None)
    weights = plan.unsort(weights_sorted)
    value = weights[:, 0] if squeeze else weights

    def backward(grad: np.ndarray):
        g = grad[:, None] if squeeze else grad
        # d softmax: w * (g - sum_j w_j g_j) within each segment.
        sorted_g = plan.sort(g)
        prod = np.multiply(
            weights_sorted,
            sorted_g,
            out=_pool.out_buffer(sorted_g.shape, sorted_g.dtype, tag="segsm-bwd"),
        )
        weighted = plan.sum_sorted(prod)
        spread = plan.unsort(plan.spread_runs(weighted))
        diff = np.subtract(g, spread, out=spread if pooled else None)
        local = np.multiply(weights, diff, out=diff if pooled else None)
        return ((t, local[:, 0] if squeeze else local),)

    out = Tensor(value, parents=(t,), backward=backward)
    if _plan._TRACE is not None:
        # ``data`` is a view of (or is) the parent's buffer, refreshed by
        # the parent's thunk; ``weights_sorted``/``weights`` are what the
        # backward closure and the output (a view of ``weights``) read.
        def _replay_segsm():
            ss = plan.sort(data)
            sm = plan.spread_runs(plan.max_sorted(ss))
            sh = np.subtract(ss, sm, out=sm if pooled else None)
            ex = np.exp(sh, out=sh if pooled else None)
            sps = plan.spread_runs(plan.sum_sorted(ex))
            ws = np.divide(ex, sps, out=ex if pooled else None)
            np.copyto(weights_sorted, ws)
            if weights is not weights_sorted:
                np.copyto(weights, plan.unsort(ws))

        _plan.emit(_replay_segsm)
    return out


def segment_softmax_reference(
    scores: ArrayLike, segment_ids: np.ndarray, num_segments: int
) -> Tensor:
    """:func:`segment_softmax` pinned to the ``ufunc.at`` kernels."""
    t = as_tensor(scores)
    ids = np.asarray(segment_ids, dtype=np.int64)
    _check_segment_lengths(ids, t)
    data = t.data
    squeeze = False
    if data.ndim == 1:
        data = data[:, None]
        squeeze = True

    # Per-segment max for numerical stability (constant wrt gradient).
    seg_max = np.full((num_segments, data.shape[1]), -np.inf)
    np.maximum.at(seg_max, ids, data)
    shifted = data - seg_max[ids]
    exp = np.exp(shifted)
    seg_sum = np.zeros((num_segments, data.shape[1]), dtype=np.float64)
    np.add.at(seg_sum, ids, exp)
    weights = exp / seg_sum[ids]
    value = weights[:, 0] if squeeze else weights

    def backward(grad: np.ndarray):
        g = grad[:, None] if squeeze else grad
        weighted = np.zeros((num_segments, data.shape[1]), dtype=np.float64)
        np.add.at(weighted, ids, weights * g)
        local = weights * (g - weighted[ids])
        return ((t, local[:, 0] if squeeze else local),)

    out = Tensor(value, parents=(t,), backward=backward)
    if _plan._TRACE is not None:

        def _replay_segsm_ref():
            seg_max = np.full((num_segments, data.shape[1]), -np.inf)
            np.maximum.at(seg_max, ids, data)
            exp = np.exp(data - seg_max[ids])
            seg_sum = np.zeros((num_segments, data.shape[1]), dtype=np.float64)
            np.add.at(seg_sum, ids, exp)
            np.copyto(weights, exp / seg_sum[ids])

        _plan.emit(_replay_segsm_ref)
    return out


def edge_message_value(
    pre: np.ndarray,
    eproj,
    bias: np.ndarray,
    idx: np.ndarray,
    extra=(),
) -> np.ndarray:
    """Raw-ndarray forward of :func:`edge_message` (no autograd).

    Factored out so checkpointing callers (see ``recompute_input`` in
    :func:`segment_attention`) can replay the fused message block in
    backward bit-for-bit: same expressions in the same order as the
    recorded forward.  ``extra`` holds ``(values_ndarray, index)`` pairs.
    """
    if _cnative.available():
        return _cnative.edge_fuse_fwd(pre, idx, list(extra), eproj, bias)
    pooled = _pool.buffer_pool_enabled()
    buf = _pool.take_rows(pre, idx, tag="edge-msg")
    for v, i in extra:
        gathered = _pool.take_rows(v, i, tag="edge-msg-x")
        buf = np.add(buf, gathered, out=buf if pooled else None)
    if eproj is not None:
        buf = np.add(buf, eproj, out=buf if pooled else None)
    buf = np.add(buf, bias, out=buf if pooled else None)
    return np.maximum(buf, 0.0, out=buf if pooled else None)


def edge_message(
    pre: ArrayLike,
    eproj: ArrayLike,
    bias: ArrayLike,
    src_index: np.ndarray,
    extra=(),
    checkpoint: bool = False,
) -> Tensor:
    """Fused aggregator prelude: ``relu(pre[src] + extras + eproj + bias)``.

    ``pre`` holds the source nodes already projected through the fusion
    weight's source block (``N_src`` rows); ``eproj`` the edge attributes
    through its edge block (``E`` rows, or ``None`` for edge types without
    attributes).  ``extra`` carries up to two ``(values, index)`` pairs of
    *factored* edge-attribute blocks: ``values`` has one row per distinct
    attribute vector (already projected through the matching columns of the
    fusion weight) and ``index`` maps each edge onto a row.  This is how
    capacity edge embeddings avoid an E-row matmul -- the region embeddings
    are projected once and gathered here.  Equivalent to the chain
    ``(gather_rows(pre, src) + v0[i0] + v1[i1] + eproj + bias).relu()`` --
    same expressions in the same order -- but as one graph node, and one C
    pass each way when the compiled kernels are up.

    With ``checkpoint=True`` (and the buffer pool on) the backward closure
    keeps only the relu sign mask -- one bool per element instead of the
    float value -- which is all either backward kernel reads of the output.
    The caller may then drop the node's value mid-forward with
    :meth:`Tensor.release_data` once its consumers have run.
    """
    t_p = as_tensor(pre)
    t_e = as_tensor(eproj) if eproj is not None else None
    t_b = as_tensor(bias)
    idx = np.asarray(src_index, dtype=np.int64)
    num_sources = t_p.shape[0]
    if len(extra) > 2:
        raise ValueError("edge_message supports at most two extra blocks")
    t_x = [as_tensor(vals) for vals, _ in extra]
    x_idx = [np.asarray(i, dtype=np.int64) for _, i in extra]

    parents = [t_p]
    parents.extend(t_x)
    if t_e is not None:
        parents.append(t_e)
    parents.append(t_b)
    parents = tuple(parents)

    value = edge_message_value(
        t_p.data,
        t_e.data if t_e is not None else None,
        t_b.data,
        idx,
        [(t.data, i) for t, i in zip(t_x, x_idx)],
    )
    if checkpoint and _pool.buffer_pool_enabled():
        # Both backward rules use the output only as a positivity mask
        # (``value > 0``), so pin one bool per element instead of the
        # (E, F) float block and let the caller release the value.
        pos_mask = np.greater(
            value, 0, out=_pool.out_buffer(value.shape, np.bool_, tag="edge-msg-mask")
        )
        saved_value = None
        if _plan._TRACE is not None:
            # Under a trace the replay thunk pins (and refreshes) the value
            # buffer anyway, so backward may read it in place of a float
            # cast of the mask -- the C kernel only tests ``> 0`` on it.
            saved_value = value
    else:
        pos_mask = None
        saved_value = value

    if _cnative.available():

        def backward_c(grad: np.ndarray):
            v = saved_value
            if v is None:
                # The C kernel reads its ``out`` argument only through
                # ``o[j] > 0.0``; a 0/1 float cast of the mask is identical.
                v = np.multiply(
                    pos_mask,
                    1.0,
                    out=_pool.out_buffer(grad.shape, grad.dtype, tag="edge-msg-mask"),
                )
            gmask, gpre, gex, gbias = _cnative.edge_fuse_bwd(
                grad,
                v,
                idx,
                num_sources,
                [(t.shape[0], i) for t, i in zip(t_x, x_idx)],
            )
            out = []
            if t_p.requires_grad:
                out.append((t_p, gpre))
            for t, g in zip(t_x, gex):
                if t.requires_grad:
                    out.append((t, g))
            if t_e is not None and t_e.requires_grad:
                out.append((t_e, gmask))
            if t_b.requires_grad:
                out.append((t_b, gbias))
            return out

        result = Tensor(value, parents=parents, backward=backward_c)
        if _plan._TRACE is not None:
            extras_rep = [(t.data, i) for t, i in zip(t_x, x_idx)]
            pre_arr = t_p.data
            e_arr = t_e.data if t_e is not None else None
            b_arr = t_b.data

            def _replay_edge_msg_c():
                _cnative.edge_fuse_fwd(
                    pre_arr, idx, extras_rep, e_arr, b_arr, out=value
                )
                if pos_mask is not None:
                    np.greater(value, 0, out=pos_mask)

            _plan.emit(_replay_edge_msg_c)
        return result

    def backward(grad: np.ndarray):
        m = pos_mask if pos_mask is not None else saved_value > 0
        gmask = np.multiply(
            grad,
            m,
            out=_pool.out_buffer(grad.shape, grad.dtype, tag="edge-msg-bwd"),
        )
        fast = _segment.fast_kernels_enabled()

        def scatter(i, n):
            if fast:
                return get_plan(i, n).sum(gmask)
            g = _pool.zeros((n, gmask.shape[1]), tag="edge-msg-scatter")
            np.add.at(g, i, gmask)
            return g

        out = []
        if t_p.requires_grad:
            out.append((t_p, scatter(idx, num_sources)))
        for t, i in zip(t_x, x_idx):
            if t.requires_grad:
                out.append((t, scatter(i, t.shape[0])))
        if t_e is not None and t_e.requires_grad:
            out.append((t_e, gmask))
        if t_b.requires_grad:
            out.append((t_b, gmask.sum(axis=0)))
        return out

    result = Tensor(value, parents=parents, backward=backward)
    if _plan._TRACE is not None:
        extras_rep = [(t.data, i) for t, i in zip(t_x, x_idx)]
        pre_arr = t_p.data
        e_arr = t_e.data if t_e is not None else None
        b_arr = t_b.data

        def _replay_edge_msg():
            # edge_message_value, replayed into the recorded output: the
            # in-place ufunc chain is value-identical to the fresh
            # allocations of the reference path.
            np.take(pre_arr, idx, axis=0, out=value, mode="clip")
            for v, i in extras_rep:
                gathered = _pool.take_rows(v, i, tag="edge-msg-x")
                np.add(value, gathered, out=value)
            if e_arr is not None:
                np.add(value, e_arr, out=value)
            np.add(value, b_arr, out=value)
            np.maximum(value, 0.0, out=value)
            if pos_mask is not None:
                np.greater(value, 0, out=pos_mask)

        _plan.emit(_replay_edge_msg)
    return result


def segment_attention(
    fused: ArrayLike,
    key_weight: ArrayLike,
    queries: ArrayLike,
    segment_ids: np.ndarray,
    num_segments: int,
    scale: float,
    negative_slope: float = 0.2,
    recompute_input=None,
) -> Tensor:
    """Fused multi-head segment attention: one autograd node for Eqs. 11-12.

    Computes, per edge row ``e`` with target segment ``s = segment_ids[e]``::

        K_e   = (fused @ key_weight).reshape(E, H, hd)
        score = leaky_relu((K_e . queries[s]) * scale)
        w     = segment_softmax(score, segment_ids)
        out_s = relu(sum_e w_e K_e)           # heads concatenated, (N, H*hd)

    ``queries`` is the per-target query tensor of shape ``(N, H, hd)`` (with
    any edge-type bilinear form already folded in).  This is numerically
    identical to composing ``gather_rows`` / ``segment_softmax`` /
    ``segment_sum`` -- same numpy expressions in the same order -- but runs
    as a single graph node: the chain of ten intermediate tensors (and
    their per-node gradient buffers, broadcast reductions and bookkeeping)
    collapses into one closure over the shared :class:`SegmentPlan`.  On
    the allocator-bound 1-core training profile this roughly halves the
    number of large-array passes per aggregation.

    ``recompute_input`` is the checkpointing hook used by the pooled
    memory plane: a zero-argument callable returning an ndarray
    bit-identical to ``fused.data``.  When given, the backward closure
    calls it instead of reading ``t_f.data`` -- so the caller may release
    the fused tensor's value mid-forward (:meth:`Tensor.release_data`)
    and its (E, F) buffer recycles immediately.
    """
    t_f = as_tensor(fused)
    t_w = as_tensor(key_weight)
    t_q = as_tensor(queries)
    ids = np.asarray(segment_ids, dtype=np.int64)
    num_edges = ids.shape[0]
    _, num_heads, head_dim = t_q.shape
    out_dim = num_heads * head_dim

    # Blocked so sharded workers can reproduce any row range bit-for-bit
    # (see matmul_blocked); every recompute/replay below must match.
    keys_flat = matmul_blocked(
        t_f.data,
        t_w.data,
        out=_pool.out_buffer((num_edges, out_dim), t_f.data.dtype, tag="segatt-keys"),
    )
    keys = keys_flat.reshape(num_edges, num_heads, head_dim)

    pooled = _pool.buffer_pool_enabled()
    if _cnative.available():
        # Compiled path: scores, leaky relu, segment softmax and weighted
        # segment sum in one C pass per direction (see repro.tensor.cnative)
        # instead of ~8 numpy passes over the (E, H*hd) arrays.
        plan = get_plan(ids, num_segments)
        q_c = np.ascontiguousarray(t_q.data)
        weights, leaky, agg = _cnative.seg_att_fwd(
            keys, q_c, plan, scale, negative_slope
        )
        pos = agg > 0
        # agg is a fresh kernel output; its buffer doubles as the value.
        value = np.multiply(agg, pos, out=agg if pooled else None)

        # Tape slimming: with the pool on, don't pin the (E, H, hd) keys
        # until backward -- recompute them there from ``t_f``/``t_w``
        # (both still live: parents retire after this node).  The same
        # matmul on the same operands is bit-identical, and the keys
        # buffer recycles mid-forward into the next relation's borrow.
        saved_keys = None if pooled else keys
        saved_f = None
        if _plan._TRACE is not None:
            # Under a trace the keys buffer and the fused input are pinned
            # (and refreshed) by their replay thunks, so the checkpoint
            # recompute would rebuild bytes that are already sitting there:
            # read them directly instead.  Bit-identical either way.
            saved_keys = keys
            saved_f = t_f.data

        def backward_c(grad: np.ndarray):
            gout = np.multiply(
                grad,
                pos,
                out=_pool.out_buffer(grad.shape, grad.dtype, tag="segatt-gout"),
            )
            k = saved_keys
            f = None
            if k is None:
                f = t_f.data if recompute_input is None else recompute_input()
                k = matmul_blocked(
                    f,
                    t_w.data,
                    out=_pool.out_buffer(
                        (num_edges, out_dim), t_f.data.dtype, tag="segatt-keys"
                    ),
                ).reshape(num_edges, num_heads, head_dim)
            g_keys, g_q = _cnative.seg_att_bwd(
                k, q_c, weights, leaky, gout, plan, scale
            )
            # k is dead past this point; dropping the reference lets its
            # pooled block satisfy one of the grad borrows just below.
            k = None
            out = []
            if t_q.requires_grad:
                out.append((t_q, g_q))
            if t_f.requires_grad or t_w.requires_grad:
                gk_flat = g_keys.reshape(num_edges, out_dim)
                if t_f.requires_grad:
                    g_f = matmul_blocked(
                        gk_flat,
                        t_w.data.T,
                        out=_pool.out_buffer(
                            t_f.data.shape, t_f.data.dtype, tag="segatt-gf"
                        ),
                    )
                    out.append((t_f, g_f))
                if t_w.requires_grad:
                    if f is not None:
                        fd = f
                    elif saved_f is not None:
                        fd = saved_f
                    else:
                        fd = t_f.data
                    out.append((t_w, matmul_grad_blocked(fd, gk_flat)))
            return out

        result = Tensor(value, parents=(t_f, t_w, t_q), backward=backward_c)
        if _plan._TRACE is not None:
            f_arr, w_arr, tq_arr = t_f.data, t_w.data, t_q.data
            val = result.data

            def _replay_segatt_c():
                matmul_blocked(f_arr, w_arr, out=keys_flat)
                if q_c is not tq_arr:
                    np.copyto(q_c, tq_arr)
                # The kernel accumulates the aggregation, so hand the
                # pinned value buffer over zeroed and apply the relu in
                # place afterwards -- same bytes as the recorded forward.
                val.fill(0.0)
                _cnative.seg_att_fwd(
                    keys, q_c, plan, scale, negative_slope,
                    out=(weights, leaky, val),
                )
                np.greater(val, 0, out=pos)
                np.multiply(val, pos, out=val)

            _plan.emit(_replay_segatt_c)
        return result

    q_edge = _pool.take_rows(t_q.data, ids, tag="segatt-qedge")
    # einsum contracts without materialising the (E, H, hd) product.
    scores = np.einsum(
        "ehd,ehd->eh",
        keys,
        q_edge,
        out=_pool.out_buffer((num_edges, num_heads), keys.dtype, tag="segatt-score"),
    )
    scores = np.multiply(scores, scale, out=scores if pooled else None)
    leaky = np.where(scores > 0, 1.0, negative_slope)
    act = np.multiply(scores, leaky, out=scores if pooled else None)

    plan = get_plan(ids, num_segments)
    sorted_scores = plan.sort(act)
    seg_max = plan.max_sorted(sorted_scores)
    spread_max = plan.spread_runs(seg_max)
    shifted = np.subtract(sorted_scores, spread_max, out=spread_max if pooled else None)
    exp = np.exp(shifted, out=shifted if pooled else None)
    seg_sum = plan.sum_sorted(exp)
    spread_sum = plan.spread_runs(seg_sum)
    weights = plan.unsort(np.divide(exp, spread_sum, out=exp if pooled else None))

    weighted = np.multiply(
        keys,
        weights[:, :, None],
        out=_pool.out_buffer(keys.shape, keys.dtype, tag="segatt-wk"),
    )
    agg = plan.sum(weighted.reshape(num_edges, out_dim))
    pos = agg > 0
    value = np.multiply(agg, pos, out=agg if pooled else None)

    # Tape slimming (mirrors the compiled path): with the pool on, the two
    # (E, H, hd) arrays are recomputed in backward -- bit-identical ops on
    # operands that are still live -- instead of pinned until then.
    saved = None if pooled else (keys, q_edge)
    saved_f = None
    if _plan._TRACE is not None:
        # Pinned and refreshed by the replay thunks; skip the backward
        # recompute (see the compiled path above).
        saved = (keys, q_edge)
        saved_f = t_f.data

    def backward(grad: np.ndarray):
        f = None
        if saved is None:
            f = t_f.data if recompute_input is None else recompute_input()
            keys_b = matmul_blocked(
                f,
                t_w.data,
                out=_pool.out_buffer(
                    (num_edges, out_dim), t_f.data.dtype, tag="segatt-keys"
                ),
            ).reshape(num_edges, num_heads, head_dim)
            q_edge_b = _pool.take_rows(t_q.data, ids, tag="segatt-qedge")
        else:
            keys_b, q_edge_b = saved
        # relu -> segment_sum -> (weighted sum, softmax, score) in one pass.
        gout = np.multiply(
            grad, pos, out=_pool.out_buffer(grad.shape, grad.dtype, tag="segatt-bwd")
        )
        g = _pool.take_rows(gout, ids, tag="segatt-bwd").reshape(
            num_edges, num_heads, head_dim
        )
        g_w = np.einsum(
            "ehd,ehd->eh",
            g,
            keys_b,
            out=_pool.out_buffer(
                (num_edges, num_heads), keys_b.dtype, tag="segatt-bwd"
            ),
        )  # d/d weights, (E, H)
        # g feeds only g_w and this product, so it may be overwritten.
        g_keys = np.multiply(g, weights[:, :, None], out=g if pooled else None)
        # Softmax backward within segments: w * (g - sum_seg w g).
        wgw = np.multiply(
            weights,
            g_w,
            out=_pool.out_buffer(g_w.shape, g_w.dtype, tag="segatt-bwd"),
        )
        inner = plan.sum(wgw)
        inner_edge = _pool.take_rows(inner, ids, tag="segatt-bwd")
        g_s = np.subtract(g_w, inner_edge, out=inner_edge if pooled else None)
        g_s = np.multiply(weights, g_s, out=g_s if pooled else None)
        g_s *= leaky
        g_s *= scale
        qs = np.multiply(
            q_edge_b,
            g_s[:, :, None],
            out=_pool.out_buffer(q_edge_b.shape, q_edge_b.dtype, tag="segatt-bwd"),
        )
        g_keys += qs
        out = []
        if t_q.requires_grad:
            ks = np.multiply(keys_b, g_s[:, :, None], out=qs if pooled else None)
            out.append(
                (t_q, plan.sum(ks.reshape(num_edges, out_dim)).reshape(t_q.shape))
            )
        if t_f.requires_grad or t_w.requires_grad:
            gk_flat = g_keys.reshape(num_edges, out_dim)
            if t_f.requires_grad:
                out.append((
                    t_f,
                    matmul_blocked(
                        gk_flat,
                        t_w.data.T,
                        out=_pool.out_buffer(
                            t_f.data.shape, t_f.data.dtype, tag="segatt-bwd"
                        ),
                    ),
                ))
            if t_w.requires_grad:
                if f is not None:
                    fd = f
                elif saved_f is not None:
                    fd = saved_f
                else:
                    fd = t_f.data
                out.append((t_w, matmul_grad_blocked(fd, gk_flat)))
        return out

    result = Tensor(value, parents=(t_f, t_w, t_q), backward=backward)
    if _plan._TRACE is not None:
        f_arr, w_arr, tq_arr = t_f.data, t_w.data, t_q.data
        val = result.data

        def _replay_segatt():
            matmul_blocked(f_arr, w_arr, out=keys_flat)
            np.take(tq_arr, ids, axis=0, out=q_edge, mode="clip")
            s = np.einsum("ehd,ehd->eh", keys, q_edge)
            s *= scale
            np.copyto(leaky, np.where(s > 0, 1.0, negative_slope))
            s *= leaky
            ss = plan.sort(s)
            sm = plan.spread_runs(plan.max_sorted(ss))
            ex = np.exp(ss - sm)
            sps = plan.spread_runs(plan.sum_sorted(ex))
            np.copyto(weights, plan.unsort(np.divide(ex, sps, out=ex)))
            wk = np.multiply(keys, weights[:, :, None])
            a2 = plan.sum(wk.reshape(num_edges, out_dim))
            np.greater(a2, 0, out=pos)
            np.multiply(a2, pos, out=val)

        _plan.emit(_replay_segatt)
    return result


def period_attention(
    flat: ArrayLike,
    key_weight: ArrayLike,
    query_weight: ArrayLike,
    num_periods: int,
    num_heads: int,
    scale: float,
):
    """Fused time semantics-level attention (Eqs. 13-15): one graph node.

    ``flat`` holds the per-period pair embeddings stacked period-major,
    shape ``(P*K, dim)``.  Returns ``(out, weights)`` where ``out`` is the
    ``(K, dim)`` attention-mixed embedding (relu applied) and ``weights``
    the plain-numpy ``(P, K, H)`` attention distribution over periods (the
    interpretability signal; not differentiated through separately).

    Numerically identical to the composed ``key_proj``/``query_proj``/
    ``softmax(axis=0)`` path -- and to the frozen-snapshot scorer in
    :mod:`repro.serve`, which re-implements the same expressions on plain
    numpy -- but backpropagates in five large fused passes instead of ~15
    per-node steps.
    """
    t = as_tensor(flat)
    t_wk = as_tensor(key_weight)
    t_wq = as_tensor(query_weight)
    pk, dim = t.shape
    k = pk // num_periods
    head_dim = dim // num_heads

    pooled = _pool.buffer_pool_enabled()
    kf = np.matmul(t.data, t_wk.data, out=_pool.out_buffer((pk, dim), tag="pattn-keys"))
    keys = kf.reshape(num_periods, k, num_heads, head_dim)
    qf = np.matmul(
        t.data, t_wq.data, out=_pool.out_buffer((pk, dim), tag="pattn-queries")
    )
    queries = qf.reshape(num_periods, k, num_heads, head_dim)
    scores = np.einsum(
        "pkhd,pkhd->pkh",
        keys,
        queries,
        out=_pool.out_buffer((num_periods, k, num_heads), tag="pattn-scores"),
    )  # (P, K, H)
    scores = np.multiply(scores, scale, out=scores if pooled else None)
    # The softmax chain reuses one buffer when pooled: each step consumes
    # the previous array, so in-place writes are value-identical.
    shifted = np.subtract(
        scores,
        scores.max(axis=0, keepdims=True),
        out=scores if pooled else None,
    )
    exp = np.exp(shifted, out=shifted if pooled else None)
    weights = np.divide(
        exp, exp.sum(axis=0, keepdims=True), out=exp if pooled else None
    )
    mixed = np.einsum(
        "pkhd,pkh->khd",
        keys,
        weights,
        out=_pool.out_buffer((k, num_heads, head_dim), tag="pattn-mixed"),
    )  # (K, H, hd)
    out_flat = mixed.reshape(k, dim)
    pos = np.greater(
        out_flat, 0, out=_pool.out_buffer((k, dim), np.bool_, tag="pattn-pos")
    )
    value = np.multiply(out_flat, pos, out=out_flat if pooled else None)

    def backward(grad: np.ndarray):
        inplace = _pool.buffer_pool_enabled()
        g = np.multiply(
            grad, pos, out=_pool.out_buffer(grad.shape, tag="pattn-g")
        ).reshape(k, num_heads, head_dim)
        g_w = np.einsum(
            "pkhd,khd->pkh",
            keys,
            g,
            out=_pool.out_buffer(
                (num_periods, k, num_heads), tag="pattn-gw"
            ),
        )  # (P, K, H)
        g_keys = np.multiply(
            weights[..., None],
            g[None],
            out=_pool.out_buffer(keys.shape, tag="pattn-gkeys"),
        )
        wgw = np.multiply(
            weights, g_w, out=_pool.out_buffer(g_w.shape, tag="pattn-wgw")
        )
        inner = wgw.sum(axis=0, keepdims=True)
        # g_w is backward-local from here on; ``weights`` stays untouched
        # (it is returned to the caller alongside the output tensor).
        diff = np.subtract(g_w, inner, out=g_w if inplace else None)
        g_s = np.multiply(weights, diff, out=diff if inplace else None)
        g_s *= scale
        qgs = np.multiply(
            queries,
            g_s[..., None],
            out=_pool.out_buffer(keys.shape, tag="pattn-qgs"),
        )
        g_keys += qgs
        g_queries = np.multiply(
            keys,
            g_s[..., None],
            out=_pool.out_buffer(keys.shape, tag="pattn-gqueries"),
        )
        gk = g_keys.reshape(pk, dim)
        gq = g_queries.reshape(pk, dim)
        out = []
        if t.requires_grad:
            gtk = np.matmul(
                gk,
                t_wk.data.T,
                out=_pool.out_buffer((pk, dim), tag="pattn-gt"),
            )
            gtq = np.matmul(
                gq,
                t_wq.data.T,
                out=_pool.out_buffer((pk, dim), tag="pattn-gt"),
            )
            out.append((t, np.add(gtk, gtq, out=gtk if inplace else None)))
        if t_wk.requires_grad:
            out.append((t_wk, t.data.T @ gk))
        if t_wq.requires_grad:
            out.append((t_wq, t.data.T @ gq))
        return out

    result = Tensor(value, parents=(t, t_wk, t_wq), backward=backward)
    if _plan._TRACE is not None:
        t_arr, wk_arr, wq_arr = t.data, t_wk.data, t_wq.data
        val = result.data

        def _replay_pattn():
            np.matmul(t_arr, wk_arr, out=kf)
            np.matmul(t_arr, wq_arr, out=qf)
            s = np.einsum("pkhd,pkhd->pkh", keys, queries)
            s *= scale
            ex = np.exp(s - s.max(axis=0, keepdims=True))
            np.copyto(weights, np.divide(ex, ex.sum(axis=0, keepdims=True), out=ex))
            m2 = np.einsum("pkhd,pkh->khd", keys, weights)
            of = m2.reshape(k, dim)
            np.greater(of, 0, out=pos)
            np.multiply(of, pos, out=val)

        _plan.emit(_replay_pattn)
    return result, weights


def softmax(tensor: ArrayLike, axis: int = -1) -> Tensor:
    """Standard softmax along ``axis`` (differentiable, stabilised)."""
    t = as_tensor(tensor)
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        inner = (grad * value).sum(axis=axis, keepdims=True)
        return ((t, value * (grad - inner)),)

    out = Tensor(value, parents=(t,), backward=backward)
    if _plan._TRACE is not None:
        x = t.data

        def _recompute_softmax():
            e = np.exp(x - x.max(axis=axis, keepdims=True))
            return e / e.sum(axis=axis, keepdims=True)

        _plan.emit_refresh(value, _recompute_softmax)
    return out


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select (condition is a constant boolean array)."""
    cond = np.asarray(condition, dtype=bool)
    ta, tb = as_tensor(a), as_tensor(b)

    def backward(grad: np.ndarray):
        return (
            (ta, unbroadcast(np.where(cond, grad, 0.0), ta.shape)),
            (tb, unbroadcast(np.where(cond, 0.0, grad), tb.shape)),
        )

    result = Tensor(
        np.where(cond, ta.data, tb.data), parents=(ta, tb), backward=backward
    )
    if _plan._TRACE is not None:
        xa, xb, dst = ta.data, tb.data, result.data
        _plan.emit(lambda: np.copyto(dst, np.where(cond, xa, xb)))
    return result


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
