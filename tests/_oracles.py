"""Independent brute-force reference implementations used by several suites.

These deliberately use plain Python loops and full sorted neighbor lists so
they share no code path with the package internals they check.
"""

from dataclasses import dataclass

import numpy as np

from regionsim import autograd as ag
from regionsim import encoder as enc
from regionsim import vlad
from regionsim.mining import NEGATIVE_RADIUS_M, POSITIVE_RADIUS_M, hardest_negative_region
from regionsim.regions import ALL_REGION_IDS
from regionsim.supervision import (
    SoftLabelRecord,
    expected_entries,
    region_sims,
    soft_loss,
    total_loss,
)


def brute_k_reciprocal(query_desc, gallery_descs, k):
    """Mutual-top-k with padding, built from complete sorted neighbor lists."""
    gallery = [np.asarray(row, dtype=float) for row in gallery_descs]
    query = np.asarray(query_desc, dtype=float)
    n = len(gallery)

    def d2(a, b):
        return float(((a - b) ** 2).sum())

    dq = [d2(g, query) for g in gallery]
    query_topk = [i for _, i in sorted((dq[i], i) for i in range(n))[:k]]

    mutual, plain = [], []
    for g in query_topk:
        cands = [(dq[g], -1)]
        for j in range(n):
            if j != g:
                cands.append((d2(gallery[j], gallery[g]), j))
        nearest = [j for _, j in sorted(cands)[:k]]
        (mutual if -1 in nearest else plain).append(g)
    return mutual + plain


def brute_ranked(scores, rows):
    """Rows by descending score, ties to the lowest row, by a full sort."""
    return sorted((int(r) for r in rows), key=lambda r: (-float(scores[r]), r))


def per_offset_conv2d(x, w, b, stride, pad):
    """Convolution as one ``w[:, :, i, j] @ patch`` product per kernel
    offset, summed in offset order onto the repeated bias, for a
    (Cin, H, W) map or a (Cin, B, H, W) stack."""
    xs = x if x.ndim == 4 else x[:, None]
    cin, n, h, wd = xs.shape
    cout, _, kh, kw = w.shape
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(xs, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    acc = np.repeat(b[:, None], n * h_out * w_out, axis=1)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
            acc = acc + w[:, :, i, j] @ patch.reshape(cin, -1)
    return acc.reshape((cout,) + x.shape[1:-2] + (h_out, w_out))


def per_offset_conv2d_grads(x, w, g, stride, pad):
    """Gradients (x, w, b) of :func:`per_offset_conv2d` for an upstream
    gradient ``g``: the weight gradient and the input scatter one product
    per kernel offset."""
    xs = x if x.ndim == 4 else x[:, None]
    cin, n, h, wd = xs.shape
    cout, _, kh, kw = w.shape
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(xs, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gm = g.reshape(cout, -1)
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            at = np.s_[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
            gw[:, :, i, j] = gm @ xp[at].reshape(cin, -1).T
            gxp[at] += (w[:, :, i, j].T @ gm).reshape(cin, n, h_out, w_out)
    gx = gxp[:, :, pad : pad + h, pad : pad + wd].reshape(x.shape)
    return gx, gw, gm.sum(axis=1)


def brute_hardest_region(query_desc, region_descs):
    """Exhaustive 9-way argmax with explicit lowest-id tie handling."""
    best, best_sim = None, None
    for rid in range(9):
        sim = float(np.dot(region_descs[rid], query_desc))
        if best_sim is None or sim > best_sim:
            best, best_sim = rid, sim
    return best, best_sim


def literal_region_blocks(fm):
    """The nine region crops written out as explicit index ranges.

    A half is the first/last ceil(n/2) rows or columns, so both halves of an
    odd extent include the middle line.
    """
    _, h, w = fm.shape
    hh = (h + 1) // 2  # rows per half
    hw = (w + 1) // 2  # columns per half
    return {
        0: fm[:, 0:h, 0:w],
        1: fm[:, 0:h, 0:hw],
        2: fm[:, 0:h, w - hw : w],
        3: fm[:, 0:hh, 0:w],
        4: fm[:, h - hh : h, 0:w],
        5: fm[:, 0:hh, 0:hw],
        6: fm[:, 0:hh, w - hw : w],
        7: fm[:, h - hh : h, 0:hw],
        8: fm[:, h - hh : h, w - hw : w],
    }


def per_positive_soft_labels(
    query_desc, positive_ids, positive_fms, params, tau, generation, query_id=-1,
    region_ids=ALL_REGION_IDS,
):
    """Soft labels with one ``aggregate_regions`` call per positive map, its
    region sims as one matrix-vector product each, joined in rank order."""
    params = params.as_arrays()
    sims = [vlad.aggregate_regions(params, fm, region_ids) @ query_desc for fm in positive_fms]
    weights = ag.softmax_temp(np.concatenate(sims), tau)
    return SoftLabelRecord(
        query_id=query_id,
        generation=generation,
        tau=tau,
        entries=expected_entries(positive_ids, region_ids),
        weights=tuple(float(w) for w in weights),
    )


@dataclass(frozen=True)
class TrainingTuple:
    """One training unit: query, easiest positive, ranked difficult
    positives, and negatives with their mined hardest region ids.

    The easiest positive is the hard-loss positive. In generation 1 it is
    the most similar gallery item within 10 m and there are no difficult
    positives. From generation 2 on the difficult positives are the gallery
    items within 10 m ranked by the frozen teacher, at most k and fewer when
    fewer candidates exist, and the easiest positive is the first of them.
    """

    query_id: int
    easiest_positive: int
    difficult_positives: tuple
    negatives: tuple
    negative_regions: tuple


def tuple_respects_geography(t, query_pos, gallery_pos, generation):
    """Recheck the 10 m / 25 m rules against raw reported coordinates.

    In every generation the hard-loss positive lies within 10 m. From
    generation 2 on it is also the first difficult positive, and every
    difficult positive lies within 10 m. Every negative lies beyond 25 m.
    """
    if abs(gallery_pos[t.easiest_positive] - query_pos) > POSITIVE_RADIUS_M:
        return False
    if generation >= 2:
        if not t.difficult_positives or t.easiest_positive != t.difficult_positives[0]:
            return False
        if any(abs(gallery_pos[p] - query_pos) > POSITIVE_RADIUS_M for p in t.difficult_positives):
            return False
    return all(abs(gallery_pos[n] - query_pos) > NEGATIVE_RADIUS_M for n in t.negatives)


def per_image_batch_loss(model, batch, train_q, train_g, cfg, omega, region_ids):
    """The training batch loss built from one B = 1 graph per image.

    Every query is encoded and aggregated alone for each of its tuples,
    every gallery image once (memoized), and the hard loss is summed one
    softplus term per negative. ``region_ids`` are the generation's gallery
    regions, full map first. The stacked training graph must agree with it
    to rounding, in value and in every parameter gradient.
    """
    memo = {}

    def gallery(grow):
        if grow not in memo:
            fm = enc.encode(model.encoder, train_g[grow].pixels)
            memo[grow] = fm, vlad.aggregate_regions(model.vlad, fm, region_ids)
        return memo[grow]

    def desc(grow, rid=0):
        return gallery(grow)[1][region_ids.index(rid)]

    def hard(q, p, negs):
        qp = ag.dot(q, p)
        total = ag.softplus(ag.sub(ag.dot(q, negs[0]), qp))
        for n in negs[1:]:
            total = ag.add(total, ag.softplus(ag.sub(ag.dot(q, n), qp)))
        return total

    losses = []
    for qrow, pos_rows, negs, rec in batch:
        q = vlad.aggregate(model.vlad, enc.encode(model.encoder, train_q[qrow].pixels))
        if omega >= 2 and cfg.use_neg_regions:
            # The region each negative's own B = 1 map scores highest.
            neg_descs = []
            for n in negs:
                rid, _ = hardest_negative_region(q.data, gallery(n)[0].data, model.vlad, region_ids)
                neg_descs.append(desc(n, rid))
        else:
            neg_descs = [desc(n) for n in negs]
        if cfg.naive_topk and omega >= 2:
            loss = hard(q, desc(pos_rows[0]), neg_descs)
            for prow in pos_rows[1:]:
                loss = ag.add(loss, hard(q, desc(prow), neg_descs))
            loss = ag.scale(loss, 1.0 / len(pos_rows))
        else:
            loss = hard(q, desc(pos_rows[0]), neg_descs)
            if rec is not None:
                sims = region_sims(q, [gallery(prow)[1] for prow in pos_rows])
                loss = total_loss(loss, soft_loss(sims, rec), cfg.lam)
        losses.append(loss)
    total = losses[0]
    for loss in losses[1:]:
        total = ag.add(total, loss)
    return ag.scale(total, 1.0 / len(losses))


def brute_weak_label_stats(ds):
    """Label-noise counts by a loop over every train (query, gallery) pair:
    close when reported within the positive radius, disjoint when the true
    windows share no facade interval."""
    w = ds.spec.window_m
    close_pairs = zero_overlap = 0
    for q in ds.split("train-query"):
        for g in ds.split("train-gallery"):
            if abs(q.reported_x - g.reported_x) <= POSITIVE_RADIUS_M:
                close_pairs += 1
                hi = min(q.true_x + w / 2, g.true_x + w / 2)
                lo = max(q.true_x - w / 2, g.true_x - w / 2)
                if q.heading != g.heading or hi <= lo:
                    zero_overlap += 1
    return {
        "close_pairs_within_10m": close_pairs,
        "zero_overlap_close_pairs": zero_overlap,
        "noisy_positive_fraction": (zero_overlap / close_pairs) if close_pairs else 0.0,
    }
