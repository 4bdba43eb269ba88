"""Segmentation loss (Dice + binary cross-entropy) and the low-frequency
feature contrastive loss with its batch pair-sampling scheme.

Training evaluates each loss once per batch. The segmentation loss is one
fused node, ``seg_loss``: the batch mean of the per-sample Dice plus one
cross-entropy mean over the batch. The contrastive loss is one row-wise
log-sum-exp over a [B, k] matrix that gathers each anchor's k denominator
cosines from the [B, B] cosine matrix. Both are bit-identical to primitive
chains that define the losses per sample and per anchor; those chains live
in ``tests/oracles.py`` (``dice_loss``, ``ce_loss``, ``lfc_term``), where
the tests compare the fused nodes against them.

The contrastive denominator contains only other-domain embeddings, the rows
outside the anchor's :class:`BatchPlan` block; the positive term is
excluded, so individual anchor terms (and the loss) can be negative.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ShapeError
from .numerics import Node

DICE_SMOOTH = 1.0
CE_CLAMP = 1e-7


def seg_loss(pred, masks) -> tuple[Node, float, float]:
    """Dice + cross-entropy of a [batch, h, w, c] prediction stack against
    its masks as one node; returns ``(loss, dice_part, ce_part)``.

    The node has the value and prediction gradient of the chain
    ``add(dice_loss(pred, masks, batched=True), ce_loss(pred, masks))`` of
    ``tests/oracles.py``, bit for bit: the forward runs the chain's NumPy
    expressions in its order, and the backward each per-element operation
    of the chain's backward. ``masks`` is not copied; the backward reads it
    again.
    """
    p = nm.as_node(pred)
    m = np.asarray(masks, dtype=np.float64)
    if p.shape != m.shape or m.ndim != 4:
        raise ShapeError(f"prediction shape {p.shape} and mask shape {m.shape} "
                         "must be the same [batch, h, w, c]")
    nm.check_finite(m)
    x = p.array
    batch = x.shape[0]
    x_rows, m_rows = x.reshape(batch, -1), m.reshape(batch, -1)

    # Dice per sample, then the batch mean
    num = 2.0 * np.sum(x_rows * m_rows, axis=1) + DICE_SMOOTH
    den = np.sum(x_rows, axis=1) + np.sum(m_rows, axis=1) + DICE_SMOOTH
    # an overflowing sum makes den infinite and the quotient a finite 0; any
    # other non-finite value reaches the loss, which the node checks
    nm.check_finite(den)
    dice = np.sum(1.0 - num / den) / float(batch)

    # cross-entropy: one mean over every entry
    pc = np.clip(x, CE_CLAMP, 1.0 - CE_CLAMP)
    rest = 1.0 - pc
    unmasked = 1.0 - m
    terms = np.log(pc)
    terms *= m
    neg_terms = np.log(rest)
    neg_terms *= unmasked
    terms += neg_terms
    ce = -(np.sum(terms) / float(x.size))

    def back(g: np.ndarray) -> None:
        # Dice: the quotient's two branches reach the prediction through the
        # intersection (times the mask) and through the prediction's sum
        g_quot = -np.broadcast_to(g / float(batch), (batch,))
        g_den = -g_quot * num / (den * den)
        grad = ((g_quot / den) * 2.0)[:, None] * m_rows
        grad += g_den[:, None]
        # cross-entropy: both logs' branches meet at the clamp, which passes
        # the gradient only where the prediction lies inside it
        g_terms = -g / float(x.size)
        ce_grad = g_terms * m
        ce_grad /= pc
        g_rest = g_terms * unmasked
        g_rest /= rest
        ce_grad -= g_rest  # the same sum as adding the subtraction's -g_rest
        ce_grad *= (x >= CE_CLAMP) & (x <= 1.0 - CE_CLAMP)
        ce_grad += grad.reshape(x.shape)
        p.accumulate(ce_grad)

    return Node(dice + ce, parents=(p,), backward=back), float(dice), float(ce)


# ---------------------------------------------------------------------------
# batch planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchPlan:
    """P domains x S samples per batch: row ``b*S + k`` is sample k of block b."""

    domains_per_batch: int
    samples_per_domain: int

    def __post_init__(self) -> None:
        if self.samples_per_domain < 2:
            raise ConfigError("every anchor needs a same-domain positive: S >= 2")
        if self.domains_per_batch < 2:
            raise ConfigError("every anchor needs negatives: P >= 2")

    @property
    def batch_size(self) -> int:
        return self.domains_per_batch * self.samples_per_domain

    @cached_property
    def negatives(self) -> np.ndarray:
        """Read-only [B, (P-1)S]: each row's columns outside its own block, ascending."""
        block = np.arange(self.batch_size) // self.samples_per_domain
        out = np.stack([np.flatnonzero(block != b) for b in block])
        out.flags.writeable = False
        return out


def sample_batch(counts: dict, plan: BatchPlan, rng: np.random.Generator) -> tuple:
    """Draw P domains, then S distinct sample indices each, from ``counts``
    (domain id -> sample count); returns ``((domain_id, (idx, ...)), ...)``.
    """
    domains = sorted(counts)
    if len(domains) < plan.domains_per_batch:
        raise ConfigError(f"need {plan.domains_per_batch} domains, dataset has {len(domains)}")
    chosen = [domains[i] for i in rng.choice(len(domains), size=plan.domains_per_batch,
                                             replace=False)]
    assignments = []
    for dom in chosen:
        count = counts[dom]
        if count < plan.samples_per_domain:
            raise ConfigError(f"domain {dom!r} has {count} samples, need "
                              f"{plan.samples_per_domain}")
        idx = rng.choice(count, size=plan.samples_per_domain, replace=False)
        assignments.append((dom, tuple(int(i) for i in idx)))
    return tuple(assignments)


def sample_positives(plan: BatchPlan, rng: np.random.Generator) -> np.ndarray:
    """Uniform positive for every anchor: another row of its block. Anchor i,
    slot k of block b, draws r uniform in [0, S - 1), one draw per anchor in
    row order, and gets row ``b*S + r + (r >= k)``."""
    rows = np.arange(plan.batch_size)
    slot = rows % plan.samples_per_domain
    r = rng.integers(plan.samples_per_domain - 1, size=len(rows))
    return rows - slot + r + (r >= slot)


# ---------------------------------------------------------------------------
# low-frequency feature contrastive loss
# ---------------------------------------------------------------------------

def lfc_loss(embeddings, plan: BatchPlan, tau: float, positives) -> Node:
    """Contrastive loss over a batch of auxiliary embeddings.

    ``embeddings`` is [B, D] (Node or array), its rows laid out by ``plan``.
    Anchor ``i`` uses the positive row ``positives[i]``, another row of its
    block (see :func:`sample_positives`), against the other-block rows
    ``plan.negatives[i]``. Each anchor's term is
    -log( exp(pos/tau) / sum_i exp(neg_i/tau) ), the per-anchor ``lfc_term``
    of ``tests/oracles.py``; the mean over anchors is returned, computed for
    all anchors at once as a row-wise log-sum-exp over the gathered cosines
    / tau. Each row sums its negatives in ascending order, as the per-anchor
    form does, so each term and the gradient are bit-identical to it.
    """
    if tau <= 0.0:
        raise ConfigError("temperature must be positive")
    emb = nm.as_node(embeddings)
    n = plan.batch_size
    if emb.array.ndim != 2 or emb.shape[0] != n:
        raise ShapeError(f"embeddings {emb.shape} do not match the plan's {n} rows")
    positives = np.asarray(positives, dtype=np.int64)
    if positives.shape != (n,):
        raise ShapeError(f"positives shape {positives.shape} != ({n},)")
    anchors = np.arange(n)
    block = plan.samples_per_domain
    bad = (positives == anchors) | (positives // block != anchors // block)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(f"positive {positives[i]} invalid for anchor {i}")

    sims = nm.cosine_rows(emb, emb)
    pos = nm.div(nm.getitem(sims, (anchors, positives)), tau)
    negs = nm.div(nm.getitem(sims, (anchors[:, None], plan.negatives)), tau)
    peak = negs.array.max(axis=1)  # held constant, as in the per-anchor form
    shifted = nm.sub(negs, peak[:, None])
    sums = nm.reduce_sum(nm.exp(shifted), axis=1)
    lse = nm.add(peak, nm.log(sums))
    return nm.reduce_mean(nm.sub(lse, pos))


@dataclass(frozen=True)
class LossReport:
    """Per-step scalars; ``total`` is exactly seg + lfc. A ``steps.csv`` row
    is the step, the fields in order, then ``total``."""

    seg: float
    dice_part: float
    ce_part: float
    lfc: float

    @property
    def total(self) -> float:
        return self.seg + self.lfc

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(["step", *(f.name for f in fields(cls)), "total"])

    def csv_row(self, step: int) -> str:
        return ",".join([str(step), *(repr(getattr(self, f.name)) for f in fields(self)),
                         repr(self.total)])
