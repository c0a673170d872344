"""Multi-view scoring and losses: view posterior, decoupled NLL, global/local
contrastive regularizers, total objective, and inference aggregation.

For one encoded prompt with m masks, the model yields m view states h_1..h_m.
A single learned vector w turns them into a posterior over views,
``p_j = sigmoid(w . h_j) / sum_k sigmoid(w . h_k)``, and each view scores every
relation through the full-vocabulary softmax probability of that relation's
j-th virtual word at mask j. The decoupled loss sums ``-log(p_j * q_j(y))``
over views; inference mixes the per-view relation scores with the posterior.
"""

from __future__ import annotations

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


def view_posterior(head: ViewPosteriorHead, view_states) -> Tensor:
    """Normalized sigmoid scores of each view state; sums to one over the views.

    ``view_states`` is a list of m state vectors [d], or one tensor of
    states [..., m, d] (a batch's), giving a posterior [..., m].
    """
    if isinstance(view_states, (list, tuple)):
        if not view_states:
            raise ValueError("need at least one view state")
        view_states = ad.stack(view_states)
    if view_states.ndim < 2 or view_states.shape[-1] != head.d:
        raise ValueError(f"view states of shape {view_states.shape} mismatch head dim {head.d}")
    sig = ad.sigmoid(ad.row_dots(view_states, head.w))
    return sig / ad.tsum(sig, axis=-1, keepdims=True)


def _label_probs(logits: Tensor, rows: np.ndarray, verbalizer: Verbalizer) -> Tensor:
    """Per-view relation probabilities read at the mask rows ``rows`` [..., m]
    of ``logits``; shape [..., m, |Y|]."""
    probs = ad.softmax(ad.index(logits, rows.ravel()))
    ids = np.stack([verbalizer.view_ids(j) for j in range(1, rows.shape[-1] + 1)])
    return ad.index(probs, (np.arange(rows.size).reshape(rows.shape)[..., None], ids))


def per_view_label_probs(logits: Tensor, prompt: EncodedPrompt,
                         verbalizer: Verbalizer) -> Tensor:
    """Probability of each relation's virtual word at each mask.

    Entry (j, y) is the full-vocabulary softmax at mask j evaluated at the id
    of relation y's j-th virtual word; rows therefore need not sum to one
    across relations.
    """
    return _label_probs(logits, np.asarray(prompt.mask_positions), verbalizer)


def view_scores(model: MlmModel, head: ViewPosteriorHead, prompts,
                verbalizer: Verbalizer, rng=None, train: bool = False) -> ViewScores:
    """Forward one prompt, or a list of prompts as one packed batch, and
    package posterior + per-view relation probabilities (see ``ViewScores``).

    ``rng``/``train`` activate dropout when the model config enables it.
    """
    single = isinstance(prompts, EncodedPrompt)
    batch = [prompts] if single else list(prompts)
    for prompt in batch:
        if prompt.m != verbalizer.m:
            raise ValueError(f"prompt has {prompt.m} masks but verbalizer expects "
                             f"{verbalizer.m}")
    hidden, logits, starts = forward_batch(
        model, [pr.ids[: pr.attention_length] for pr in batch], rng=rng, train=train)
    rows = np.stack([s + np.asarray(pr.mask_positions) for s, pr in zip(starts, batch)])
    if single:
        rows = rows[0]
    return ViewScores(view_posterior(head, ad.index(hidden, rows)),
                      _label_probs(logits, rows, verbalizer))


def mvdl_loss(scores: ViewScores, y, eps: float = MVDL_EPS) -> Tensor:
    """Multi-view decoupled NLL, sum_j -log(p_j * q_j(y) + eps), per example:
    a scalar for one prompt's scores, [B] for a batch's (``y`` holds B labels)."""
    y = np.asarray(y)
    n_rel = scores.per_view.shape[-1]
    if np.any((y < 0) | (y >= n_rel)):
        raise IndexError(f"relation index {y} out of range [0, {n_rel})")
    entries = np.indices(scores.posterior.shape, sparse=True)  # each [prompt,] view
    joint = scores.posterior * ad.index(scores.per_view, (*entries, y[..., None]))
    return ad.tsum(-ad.log(joint + eps), axis=-1)


def mvdl_dataset_loss(all_scores: list[ViewScores], labels: list[int],
                      eps: float = MVDL_EPS) -> Tensor:
    """Sum of per-example decoupled losses over a labeled set."""
    if len(all_scores) != len(labels):
        raise ValueError("scores and labels length mismatch")
    return ad.tsum(ad.stack([mvdl_loss(s, y, eps) for s, y in zip(all_scores, labels)]))


def verbalizer_embeddings(model: MlmModel, verbalizer: Verbalizer) -> Tensor:
    """Token-embedding rows of all virtual words, ordered (relation, view)."""
    return ad.embedding(model.token_embed, verbalizer.all_ids())


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
    """Weighted objective: mvdl + alpha * local + beta * global."""
    return mvdl + alpha * local + beta * global_


MIXTURE = "mixture"
PRODUCT = "product"


def relation_scores(scores: ViewScores, mode: str = MIXTURE) -> np.ndarray:
    """Aggregate per-view relation probabilities into one score per relation."""
    post = scores.posterior.data if isinstance(scores.posterior, Tensor) else scores.posterior
    pv = scores.per_view.data if isinstance(scores.per_view, Tensor) else scores.per_view
    if mode == MIXTURE:
        return post @ pv
    if mode == PRODUCT:
        return np.prod(post[:, None] * pv, axis=0)
    raise ValueError(f"unknown score mode {mode!r}")


def infer_batch(model: MlmModel, head: ViewPosteriorHead, prompts,
                verbalizer: Verbalizer, mode: str = MIXTURE) -> list[tuple[str, np.ndarray]]:
    """Predict a relation for each prompt of a batch, run packed: (label,
    relation scores) per prompt; ties break toward the lowest index."""
    with ad.no_grad():
        scores = view_scores(model, head, list(prompts), verbalizer)
    out = []
    for post, per_view in zip(scores.posterior.data, scores.per_view.data):
        s = relation_scores(ViewScores(post, per_view), mode)
        out.append((verbalizer.relation_order[int(np.argmax(s))], s))
    return out


def infer(model: MlmModel, head: ViewPosteriorHead, prompt: EncodedPrompt,
          verbalizer: Verbalizer, mode: str = MIXTURE) -> tuple[str, np.ndarray]:
    """Predict a relation for one prompt; ties break toward the lowest index."""
    return infer_batch(model, head, [prompt], verbalizer, mode)[0]
