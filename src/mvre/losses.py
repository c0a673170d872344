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
from .model import MlmModel, forward, mask_hidden
from .vocab import EncodedPrompt, Verbalizer

MVDL_EPS = 1e-12


class ViewPosteriorHead:
    """The learned weighting vector over view states; starts uniform (all zeros)."""

    def __init__(self, d: int):
        self.w = ad.parameter(np.zeros(d))

    def params(self) -> dict[str, Tensor]:
        return {"view_head.w": self.w}

    @property
    def d(self) -> int:
        return self.w.data.shape[0]


@dataclass
class ViewScores:
    """Posterior over views plus per-view relation probabilities for one prompt."""

    posterior: Tensor        # shape [m]
    per_view: Tensor         # shape [m, |Y|]


def view_posterior(head: ViewPosteriorHead, view_states: list[Tensor]) -> Tensor:
    """Normalized sigmoid scores of each view state; sums to one."""
    if not view_states:
        raise ValueError("need at least one view state")
    for h in view_states:
        if h.shape != (head.d,):
            raise ValueError(f"view state shape {h.shape} mismatches head dim {head.d}")
    sig = ad.stack([ad.sigmoid(ad.dot(head.w, h)) for h in view_states])
    return sig / ad.tsum(sig)


def per_view_label_probs(logits: Tensor, prompt: EncodedPrompt,
                         verbalizer: Verbalizer) -> Tensor:
    """Probability of each relation's virtual word at each mask.

    Entry (j, y) is the full-vocabulary softmax at mask j evaluated at the id
    of relation y's j-th virtual word; rows therefore need not sum to one
    across relations.
    """
    probs = ad.softmax(ad.index(logits, np.asarray(prompt.mask_positions)))
    ids = np.stack([verbalizer.view_ids(j) for j in range(1, prompt.m + 1)])
    return ad.index(probs, (np.arange(prompt.m)[:, None], ids))


def view_scores(model: MlmModel, head: ViewPosteriorHead, prompt: EncodedPrompt,
                verbalizer: Verbalizer, rng=None, train: bool = False) -> ViewScores:
    """Forward one prompt and package posterior + per-view relation probabilities.

    ``rng``/``train`` activate dropout when the model config enables it.
    """
    if prompt.m != verbalizer.m:
        raise ValueError(f"prompt has {prompt.m} masks but verbalizer expects {verbalizer.m}")
    hidden, logits = forward(model, prompt, rng=rng, train=train)
    states = [mask_hidden(hidden, prompt, j) for j in range(1, prompt.m + 1)]
    posterior = view_posterior(head, states)
    per_view = per_view_label_probs(logits, prompt, verbalizer)
    return ViewScores(posterior, per_view)


def mvdl_loss(scores: ViewScores, y: int, eps: float = MVDL_EPS) -> Tensor:
    """Multi-view decoupled NLL for one example: sum_j -log(p_j * q_j(y) + eps)."""
    n_rel = scores.per_view.shape[1]
    if not (0 <= y < n_rel):
        raise IndexError(f"relation index {y} out of range [0, {n_rel})")
    joint = scores.posterior * scores.per_view[:, y]
    return ad.tsum(-ad.log(joint + eps))


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


def infer(model: MlmModel, head: ViewPosteriorHead, prompt: EncodedPrompt,
          verbalizer: Verbalizer, mode: str = MIXTURE) -> tuple[str, np.ndarray]:
    """Predict a relation for one prompt; ties break toward the lowest index."""
    with ad.no_grad():
        scores = view_scores(model, head, prompt, verbalizer)
    s = relation_scores(scores, mode)
    pred = int(np.argmax(s))
    return verbalizer.relation_order[pred], s
