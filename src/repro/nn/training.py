"""Pairwise training for similarity comparison networks.

The paper trains each application's two-branch model with positive and
negative (query, feature) pairs until accuracy is within 5% of the
published number (§3).  We reproduce the procedure on synthetic data: the
SCN takes a query feature vector and a database feature vector and emits a
similarity score; :class:`PairTrainer` runs minibatch SGD with momentum on
a binary cross-entropy loss over labelled pairs.

The trainer works on any :class:`~repro.nn.graph.Graph` whose two ``Input``
nodes are the (QFV, DFV) branches and whose output is a single sigmoid
score in ``(0, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.nn.graph import Graph


@dataclass
class TrainConfig:
    """Hyper-parameters for :class:`PairTrainer`."""

    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 10
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        checks = (
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("epochs", self.epochs >= 1, "must be >= 1"),
            ("learning_rate", self.learning_rate > 0, "must be > 0"),
            ("momentum", 0 <= self.momentum < 1, "must be in [0, 1)"),
            ("grad_clip", self.grad_clip >= 0, "must be >= 0 (0 disables clipping)"),
            ("weight_decay", self.weight_decay >= 0, "must be >= 0"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"TrainConfig.{name} {rule}, got {getattr(self, name)!r}")


@dataclass
class TrainReport:
    """Loss/accuracy trajectory of one training run."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else 0.0


def bce_loss_and_grad(scores: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Binary cross entropy over sigmoid ``scores`` of shape (N, 1)."""
    eps = 1e-7
    s = np.clip(scores, eps, 1.0 - eps)
    y = labels.reshape(s.shape).astype(np.float64)
    loss = float(-(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)).mean())
    grad = ((s - y) / (s * (1.0 - s))).astype(np.float32) / s.shape[0]
    return loss, grad


class PairTrainer:
    """Minibatch SGD-with-momentum over (query, feature, label) pairs."""

    def __init__(self, graph: Graph, config: TrainConfig | None = None):
        self.graph = graph
        self.config = config or TrainConfig()
        self._velocity: Dict[int, Dict[str, np.ndarray]] = {}
        inputs = graph.input_ids
        if len(inputs) != 2:
            raise ValueError(
                f"pair training needs a two-input graph, got {len(inputs)} inputs"
            )
        self.qfv_id, self.dfv_id = inputs

    def score(self, queries: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Similarity scores for aligned query/feature batches."""
        out = self.graph.forward({self.qfv_id: queries, self.dfv_id: features})
        return out.reshape(-1)

    def _step(self, q: np.ndarray, d: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
        cfg = self.config
        scores = self.graph.forward(
            {self.qfv_id: q, self.dfv_id: d}, keep_activations=True
        )
        loss, grad_out = bce_loss_and_grad(scores, y)
        grads = self.graph.backward(grad_out)
        for node_id, g in grads.items():
            vel = self._velocity.setdefault(node_id, {})
            params = self.graph.params[node_id]
            for key, grad in g.items():
                if cfg.grad_clip:
                    norm = float(np.linalg.norm(grad))
                    if norm > cfg.grad_clip:
                        grad = grad * (cfg.grad_clip / norm)
                if cfg.weight_decay:
                    grad = grad + cfg.weight_decay * params[key]
                v = vel.get(key)
                v = (cfg.momentum * v - cfg.learning_rate * grad) if v is not None \
                    else -cfg.learning_rate * grad
                vel[key] = v
                params[key] = (params[key] + v).astype(np.float32)
        acc = float(((scores.reshape(-1) > 0.5) == (y.reshape(-1) > 0.5)).mean())
        return loss, acc

    def fit(
        self,
        queries: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> TrainReport:
        """Train on aligned arrays; returns the loss/accuracy trajectory."""
        if not (len(queries) == len(features) == len(labels)):
            raise ValueError("queries/features/labels must be aligned")
        if not len(queries):
            raise ValueError("cannot fit on zero pairs")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        n = len(queries)
        report = TrainReport()
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_loss, epoch_acc, batches = 0.0, 0.0, 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, acc = self._step(queries[idx], features[idx], labels[idx])
                epoch_loss += loss
                epoch_acc += acc
                batches += 1
            report.losses.append(epoch_loss / batches)
            report.accuracies.append(epoch_acc / batches)
        return report

    def evaluate(
        self, queries: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> float:
        """Pair classification accuracy at threshold 0.5."""
        scores = self.score(queries, features)
        return float(((scores > 0.5) == (labels.reshape(-1) > 0.5)).mean())


def make_pair_dataset(
    rng: np.random.Generator,
    feature_size: int,
    n_pairs: int,
    noise: float = 0.25,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic positive/negative (query, feature) pairs.

    Positive pairs share a latent anchor (feature = anchor + noise, query =
    anchor + noise); negative pairs use independent anchors.  This mirrors
    the contrastive setup the source applications train with.
    """
    half = n_pairs // 2
    anchors = rng.normal(0, 1, (n_pairs, feature_size)).astype(np.float32)
    queries = anchors + rng.normal(0, noise, anchors.shape).astype(np.float32)
    features = np.empty_like(anchors)
    labels = np.zeros(n_pairs, dtype=np.float32)
    features[:half] = anchors[:half] + rng.normal(
        0, noise, (half, feature_size)
    ).astype(np.float32)
    labels[:half] = 1.0
    features[half:] = rng.normal(0, 1, (n_pairs - half, feature_size)).astype(
        np.float32
    )
    order = rng.permutation(n_pairs)
    return queries[order], features[order], labels[order]
