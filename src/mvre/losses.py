"""Multi-view scoring and losses: view posterior, decoupled NLL, global/local
contrastive regularizers, the training objective, and inference aggregation.

For one encoded prompt with m masks, the model yields m view states h_1..h_m.
A single learned vector w turns them into a posterior over views,
``p_j = sigmoid(w . h_j) / sum_k sigmoid(w . h_k)``, and each view scores every
relation through the full-vocabulary softmax probability of that relation's
j-th virtual word at mask j. The decoupled loss sums ``-log(p_j * q_j(y))``
over views; inference mixes the per-view relation scores with the posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import MlmModel, forward_batch
from .vocab import EncodedPrompt, Verbalizer

MVDL_EPS = 1e-12


class ViewPosteriorHead:
    """The learned weighting vector over view states; starts uniform (all zeros).
    ``w`` is packed in an ``ad.Arena`` of its own: write into ``w.data``."""

    def __init__(self, d: int):
        self._params = ad.Arena({"view_head.w": np.zeros(d)})

    def params(self) -> ad.Arena:
        return self._params

    @property
    def w(self) -> Tensor:
        return self._params["view_head.w"]

    @property
    def d(self) -> int:
        return self.w.data.shape[0]


@dataclass
class ViewScores:
    """Posterior over views plus per-view relation probabilities.

    For one prompt the shapes are [m] and [m, |Y|]; for a batch of B
    prompts [B, m] and [B, m, |Y|].
    """

    posterior: Tensor
    per_view: Tensor


def view_posterior(head: ViewPosteriorHead, view_states: Tensor) -> Tensor:
    """Normalized sigmoid scores of each view state; sums to one over the views.

    ``view_states`` holds m state vectors [m, d] (one prompt's), or [..., m, d]
    (a batch's), giving a posterior [..., m].
    """
    if view_states.ndim < 2 or view_states.shape[-1] != head.d:
        raise ValueError(f"view states of shape {view_states.shape} mismatch head dim {head.d}")
    sig = ad.sigmoid(ad.row_dots(view_states, head.w))
    return sig / ad.tsum(sig, axis=-1, keepdims=True)


def _label_picks(shape: tuple[int, ...], verbalizer: Verbalizer) -> tuple[np.ndarray, np.ndarray]:
    """Index of each (mask row, relation) entry in the softmax of mask-row
    logits whose rows run view by view: [..., m, |Y|] for masks ``shape``."""
    # [view, relation], C-ordered: the picked probabilities keep that order,
    # and the layout of the matrix ``relation_scores`` multiplies sets its bits
    ids = np.ascontiguousarray(verbalizer.all_ids().reshape(-1, verbalizer.m).T[: shape[-1]])
    return np.arange(math.prod(shape)).reshape(shape)[..., None], ids


def per_view_label_probs(logits: Tensor, prompt: EncodedPrompt,
                         verbalizer: Verbalizer) -> Tensor:
    """Probability of each relation's virtual word at each mask.

    Entry (j, y) is the full-vocabulary softmax at mask j evaluated at the id
    of relation y's j-th virtual word; rows therefore need not sum to one
    across relations.
    """
    rows = ad.index(logits, np.asarray(prompt.mask_positions))
    return ad.index(ad.softmax(rows), _label_picks((prompt.m,), verbalizer))


def view_scores(model: MlmModel, head: ViewPosteriorHead, prompts,
                verbalizer: Verbalizer, rng=None) -> ViewScores:
    """Forward one prompt, or a list of prompts as one packed batch, and
    package posterior + per-view relation probabilities (see ``ViewScores``).
    The encoder reads the mask rows only; under ``ad.no_grad()`` the same
    ops run and record no graph.

    A generator ``rng`` applies the model config's dropout.
    """
    single = isinstance(prompts, EncodedPrompt)
    batch = [prompts] if single else list(prompts)
    for prompt in batch:
        if prompt.m != verbalizer.m:
            raise ValueError(f"prompt has {prompt.m} masks but verbalizer expects "
                             f"{verbalizer.m}")
    hidden, logits = forward_batch(model, [pr.ids for pr in batch], rng=rng,
                                   reads=[pr.mask_positions for pr in batch])
    shape = (verbalizer.m,) if single else (len(batch), verbalizer.m)
    return ViewScores(view_posterior(head, ad.reshape(hidden, (*shape, -1))),
                      ad.index(ad.softmax(logits), _label_picks(shape, verbalizer)))


def mvdl_loss(scores: ViewScores, y) -> Tensor:
    """Multi-view decoupled NLL, sum_j -log(p_j * q_j(y) + MVDL_EPS), per example:
    a scalar for one prompt's scores, [B] for a batch's (``y`` holds B labels)."""
    y = np.asarray(y)
    n_rel = scores.per_view.shape[-1]
    if np.any((y < 0) | (y >= n_rel)):
        raise IndexError(f"relation index {y} out of range [0, {n_rel})")
    entries = np.indices(scores.posterior.shape, sparse=True)  # each [prompt,] view
    joint = scores.posterior * ad.index(scores.per_view, (*entries, y[..., None]))
    return ad.tsum(-ad.log(joint + MVDL_EPS), axis=-1)


def verbalizer_embeddings(model: MlmModel, verbalizer: Verbalizer) -> Tensor:
    """Token-embedding rows of all virtual words, ordered (relation, view)."""
    return ad.index(model.token_embed, verbalizer.all_ids())


def _group_cosines(emb: Tensor, groups: np.ndarray) -> Tensor:
    """Cosines of every ordered pair of rows within each group, diagonal included.

    ``groups`` holds one group of row indices per row; pairs run group by
    group, then first member, then second member.
    """
    if emb.ndim != 2 or emb.shape[0] != groups.size:
        raise ValueError(f"embedding matrix shape {emb.shape} mismatches "
                         f"{groups.size} virtual words")
    k = groups.shape[1]
    return ad.cosine_pairs(emb, np.repeat(groups, k, axis=1).ravel(),
                           np.tile(groups, (1, k)).ravel())


def _grid(n_relations: int, m: int) -> np.ndarray:
    """Row index of each virtual word in the embedding matrix, [relation, view]."""
    return np.arange(n_relations * m).reshape(n_relations, m)


def local_loss(emb: Tensor, n_relations: int, m: int) -> Tensor:
    """Mean within-relation cosine across view pairs, negated.

    Includes the i == j diagonal, whose terms are constant one, so the value
    lies in [-1, 1] and equals -1 exactly when each relation's views are
    collinear copies.
    """
    total = ad.tsum(_group_cosines(emb, _grid(n_relations, m)))
    # divide, don't multiply by a reciprocal: collinear views then give -1 exactly
    return -(total / (n_relations * m * m))


def global_loss(emb: Tensor, n_relations: int, m: int) -> Tensor:
    """Mean same-view cosine across relation pairs (diagonal included)."""
    total = ad.tsum(_group_cosines(emb, _grid(n_relations, m).T))
    return total / (n_relations * n_relations * m)


def total_loss(mvdl, local, global_, alpha: float, beta: float):
    """The loss of every training step: mvdl + alpha * local + beta * global."""
    return mvdl + alpha * local + beta * global_


MIXTURE = "mixture"
PRODUCT = "product"


def relation_scores(posterior: np.ndarray, per_view: np.ndarray,
                    mode: str = MIXTURE) -> np.ndarray:
    """Aggregate one prompt's per-view relation probabilities [m, |Y|] into one
    score per relation, weighing the views by their posterior [m]."""
    if mode == MIXTURE:
        return posterior @ per_view
    if mode == PRODUCT:
        return np.prod(posterior[:, None] * per_view, axis=0)
    raise ValueError(f"unknown score mode {mode!r}")


def infer_batch(model: MlmModel, head: ViewPosteriorHead, prompts,
                verbalizer: Verbalizer, mode: str = MIXTURE) -> list[tuple[str, np.ndarray]]:
    """Predict a relation for each prompt of a batch, run packed: (label,
    relation scores) per prompt; ties break toward the lowest index."""
    with ad.no_grad():
        scores = view_scores(model, head, list(prompts), verbalizer)
    out = []
    for post, per_view in zip(scores.posterior.data, scores.per_view.data):
        s = relation_scores(post, per_view, mode)
        out.append((verbalizer.relation_order[int(np.argmax(s))], s))
    return out


def infer(model: MlmModel, head: ViewPosteriorHead, prompt: EncodedPrompt,
          verbalizer: Verbalizer, mode: str = MIXTURE) -> tuple[str, np.ndarray]:
    """Predict a relation for one prompt; ties break toward the lowest index."""
    return infer_batch(model, head, [prompt], verbalizer, mode)[0]
