"""Independent reference implementations the tests check the library against.

Nothing here imports the code paths under test beyond plain data types: the
finite-difference gradients drive layers only through their forward pass, one
Conv2d reference loops over kernel positions instead of building patch
matrices while the other builds fresh float64 patch matrices from a float32
pad through sliding_window_view, where the library casts once into a float64
pad and refills one patch buffer per call, the MaxPool2d reference gathers every window into one array for
argmax where the library runs over strided views, the ReLU reference selects
with np.where where the library masks bits, the tree-sum fold never touches
the transport, the phase clock divides each node's load where the library
divides the largest load once, and the planner oracle re-derives
assignments by brute force from the closed-form times.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def finite_diff_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar f w.r.t. array x."""
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def conv2d_reference(layer, params, x: np.ndarray, gy: np.ndarray):
    """Direct-loop Conv2d: one small float64 contraction per kernel position.

    Returns (output, grad_input, [grad_weight, grad_bias]) as float32 for
    input x and output gradient gy. The layout is the library's: NCHW input,
    (out, in, k, k) weight, gradients summed over the batch.
    """
    w, b = params
    p, s, k = layer.padding, layer.stride, layer.kernel
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    n, _, hp, wp = xp.shape
    oh = (hp - k) // s + 1
    ow = (wp - k) // s + 1
    x64 = xp.astype(np.float64)
    w64 = w.astype(np.float64)
    acc = np.zeros((n, layer.out_ch, oh, ow), dtype=np.float64)
    for kh in range(k):
        for kw in range(k):
            patch = x64[:, :, kh:kh + s * oh:s, kw:kw + s * ow:s]
            acc += np.einsum("nchw,oc->nohw", patch, w64[:, :, kh, kw])
    acc += b.astype(np.float64)[None, :, None, None]

    g64 = gy.astype(np.float64)
    gw = np.zeros_like(w64)
    gxp = np.zeros_like(x64)
    for kh in range(k):
        for kw in range(k):
            patch = x64[:, :, kh:kh + s * oh:s, kw:kw + s * ow:s]
            gw[:, :, kh, kw] = np.einsum("nohw,nchw->oc", g64, patch)
            gxp[:, :, kh:kh + s * oh:s, kw:kw + s * ow:s] += np.einsum(
                "nohw,oc->nchw", g64, w64[:, :, kh, kw])
    gb = g64.sum(axis=(0, 2, 3))
    gx = gxp[:, :, p:hp - p, p:wp - p] if p else gxp
    return (acc.astype(np.float32), gx.astype(np.float32),
            [gw.astype(np.float32), gb.astype(np.float32)])


_PATCH_CHUNK = 16


def _patch_matrices(xp: np.ndarray, k: int, s: int) -> np.ndarray:
    """float64 (n, c*k*k, oh*ow) patch matrices of a padded float32 batch,
    copied and cast through a transposed sliding-window view."""
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    n, c, oh, ow = win.shape[:4]
    cols = np.empty((n, c, k, k, oh, ow))
    cols[...] = win.transpose(0, 1, 4, 5, 2, 3)
    return cols.reshape(n, c * k * k, oh * ow)


def conv2d_patch_reference(layer, params, x: np.ndarray, gy: np.ndarray):
    """Patch-matrix Conv2d as the library first wrote it: np.pad in float32,
    fresh float64 patch matrices per chunk of 16 samples, built again in the
    backward, a per-sample weight-gradient product summed over the chunk,
    and a col2im scatter tap by tap.

    Returns (output, grad_input, [grad_weight, grad_bias]) as float32, with
    every float64 sum in the library's order, so the results must agree
    byte for byte.
    """
    w, b = params
    p, s, k = layer.padding, layer.stride, layer.kernel
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    n, c, hp, wp = xp.shape
    oh = (hp - k) // s + 1
    ow = (wp - k) // s + 1
    wmat = w.reshape(layer.out_ch, -1).astype(np.float64)
    b64 = b.astype(np.float64)[:, None]
    out = np.empty((n, layer.out_ch, oh, ow), dtype=np.float32)
    rows = out.reshape(n, layer.out_ch, oh * ow)
    for lo in range(0, n, _PATCH_CHUNK):
        y = wmat @ _patch_matrices(xp[lo:lo + _PATCH_CHUNK], k, s)
        y += b64
        rows[lo:lo + _PATCH_CHUNK] = y

    g64 = gy.reshape(n, layer.out_ch, oh * ow).astype(np.float64)
    gw = np.zeros(wmat.shape)
    gxp = np.zeros(xp.shape)
    for lo in range(0, n, _PATCH_CHUNK):
        g = g64[lo:lo + _PATCH_CHUNK]
        cols = _patch_matrices(xp[lo:lo + _PATCH_CHUNK], k, s)
        gw += (g @ cols.transpose(0, 2, 1)).sum(axis=0)
        gcols = (wmat.T @ g).reshape(len(g), c, k, k, oh, ow)
        dst = gxp[lo:lo + _PATCH_CHUNK]
        for kh in range(k):
            for kw in range(k):
                dst[:, :, kh:kh + s * oh:s, kw:kw + s * ow:s] += \
                    gcols[:, :, kh, kw]
    gb = g64.sum(axis=(0, 2))
    gx = gxp[:, :, p:hp - p, p:wp - p] if p else gxp
    return (out, gx.astype(np.float32),
            [gw.reshape(w.shape).astype(np.float32), gb.astype(np.float32)])


def maxpool2d_reference(layer, x: np.ndarray, gy: np.ndarray):
    """MaxPool2d from a gather of each window's k*k candidates: argmax picks
    the first maximum (the first NaN, if any), and the backward adds each
    window's gradient to that cell with one masked float64 add per kernel
    position (kh, kw).

    Returns (output, grad_input) as float32 for input x and output gradient gy.
    """
    n, c, h, w = x.shape
    k, s = layer.kernel, layer.stride
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    cand = np.empty((n, c, oh, ow, k * k), dtype=x.dtype)
    for kh in range(k):
        for kw in range(k):
            cand[..., kh * k + kw] = x[:, :, kh:kh + s * oh:s, kw:kw + s * ow:s]
    arg = cand.argmax(axis=-1)
    out = np.take_along_axis(cand, arg[..., None], axis=-1)[..., 0]

    gx = np.zeros(x.shape, dtype=np.float64)
    g64 = gy.astype(np.float64)
    for kh in range(k):
        for kw in range(k):
            # windows overlap across (kh, kw) but never within one slice,
            # so += accumulates correctly
            mask = arg == (kh * k + kw)
            gx[:, :, kh:kh + s * oh:s, kw:kw + s * ow:s] += np.where(mask, g64, 0.0)
    return out, gx.astype(np.float32)


def relu_backward_reference(mask: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """ReLU input gradient by selection: gy where the forward input was
    positive, +0.0 elsewhere."""
    return np.where(mask, gy, 0).astype(np.float32, copy=False)


def tree_sum(values: list[np.ndarray]) -> np.ndarray:
    """Aligned binary tree fold in float32, lower half before upper half.

    For a power-of-two list this is the canonical summation order the
    recursive-doubling exchange produces.
    """
    vals = [np.asarray(v, dtype=np.float32) for v in values]
    assert len(vals) & (len(vals) - 1) == 0, "tree_sum needs a power-of-two list"
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] for i in range(0, len(vals), 2)]
    return vals[0]


def allreduce_reference(group_values: dict, group_order: list, donors: dict):
    """Expected allreduce result for a given surplus selection.

    group_values: member -> contribution. donors: surplus member -> core donor
    (empty for power-of-two groups). Folds each surplus contribution into its
    donor in ascending member order, then tree-sums the core in group order.
    """
    surplus = set(donors)
    core = [m for m in group_order if m not in surplus]
    acc = {m: np.asarray(group_values[m], dtype=np.float32) for m in core}
    order = {m: i for i, m in enumerate(group_order)}
    for s, d in donors.items():
        if order[s] < order[d]:
            acc[d] = np.asarray(group_values[s], dtype=np.float32) + acc[d]
        else:
            acc[d] = acc[d] + np.asarray(group_values[s], dtype=np.float32)
    return tree_sum([acc[m] for m in core])


def phase_elapsed_reference(transfers, net) -> float:
    """The phase clock as a per-node loop: every node's busier direction
    divided by the bandwidth, then the max of those times."""
    sent = {}
    received = {}
    count = 0
    for src, dst, nbytes in transfers:
        sent[src] = sent.get(src, 0) + nbytes
        received[dst] = received.get(dst, 0) + nbytes
        count += 1
    if count == 0:
        return 0.0
    worst = 0.0
    for node in set(sent) | set(received):
        load = max(sent.get(node, 0), received.get(node, 0))
        worst = max(worst, load * 8.0 / net.bandwidth)
    return worst + net.per_message_latency


def _payload_passes(n: int) -> int:
    """Full payloads the busiest member of an n-way allreduce moves."""
    doublings, reach = 0, 1
    while reach * 2 <= n:
        reach *= 2
        doublings += 1
    return doublings if reach == n else doublings + 1


def best_split_reference(n_total: int, batch_k: int, boundary: int,
                         conv_params: int, fc_params: int, bandwidth: float,
                         conv_time: float, fc_unit_time: float,
                         fc_memory_bytes: float | None = None):
    """Exhaustive (n_conv, n_fc) search with times rebuilt from scratch.

    Returns (n_conv, n_fc, throughput) or None if nothing is feasible.
    First feasible maximum wins, so ties go to the smallest n_fc.
    """
    best = None
    for n_fc in range(1, n_total):
        n_conv = n_total - n_fc
        if n_fc > n_conv:
            continue
        groups = -(-n_conv // n_fc)
        if (fc_memory_bytes is not None
                and groups * batch_k * boundary * 4 > fc_memory_bytes):
            continue
        moved = (2 * groups * boundary * batch_k
                 + max(_payload_passes(n_conv) * conv_params,
                       _payload_passes(n_fc) * fc_params))
        seconds = (conv_time + groups * fc_unit_time
                   + moved * 32 / bandwidth)
        thr = n_conv * batch_k / seconds
        if best is None or thr > best[2]:
            best = (n_conv, n_fc, thr)
    return best


def best_ps_split_reference(n_total: int, batch_k: int, params_total: int,
                            bandwidth: float, server_time: float):
    """Exhaustive (n_workers, n_servers) search; ties to fewest servers."""
    best = None
    for n_servers in range(1, n_total):
        n_workers = n_total - n_servers
        shard = -(-params_total // n_servers)
        seconds = (2 * max(params_total, n_workers * shard) * 32 / bandwidth
                   + server_time)
        thr = n_workers * batch_k / seconds
        if best is None or thr > best[2]:
            best = (n_workers, n_servers, thr)
    return best
