"""ID3-style decision-tree learning with SWOPE split selection.

Decision-tree induction (paper refs [3, 27, 33]) chooses at each node the
attribute with the highest information gain about the label — i.e. an
empirical-MI top-1 query over the records reaching that node. This module
provides a small, dependency-free categorical classifier whose split
selection is pluggable: the exact scan (classic ID3) or the SWOPE
approximate top-1 query, which reads only as many records as the bounds
require at each node.

This is an application showcase, not a full ML library: categorical
features only, multi-way splits, no pruning beyond the minimum-gain and
depth/size stopping rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.exact import exact_mutual_informations
from repro.core.swope import swope_top_k_mutual_information
from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError, SchemaError

__all__ = ["DecisionNode", "EntropyTreeClassifier"]


@dataclass
class DecisionNode:
    """One node of a fitted tree."""

    majority: int
    num_rows: int
    depth: int
    split: str | None = None
    information_gain: float = 0.0
    children: dict[int, "DecisionNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    def node_count(self) -> int:
        """Total nodes in the subtree rooted here."""
        return 1 + sum(child.node_count() for child in self.children.values())


class EntropyTreeClassifier:
    """A categorical decision tree whose splits are MI top-1 queries.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = 0).
    min_rows:
        Do not split nodes with fewer records than this.
    min_gain:
        Do not split when the best attribute's information gain (exact,
        measured on the node's records) is below this many bits.
    engine:
        ``"swope"`` (approximate top-1 split queries, default) or
        ``"exact"`` (full scans — classic ID3).
    epsilon:
        Error parameter for the SWOPE engine.
    seed:
        Sampler seed (per-node seeds are derived deterministically).
    """

    def __init__(
        self,
        *,
        max_depth: int = 3,
        min_rows: int = 200,
        min_gain: float = 0.01,
        engine: str = "swope",
        epsilon: float = 0.5,
        seed: int = 0,
    ) -> None:
        if max_depth < 0:
            raise ParameterError(f"max_depth must be >= 0, got {max_depth}")
        if min_rows < 1:
            raise ParameterError(f"min_rows must be >= 1, got {min_rows}")
        if min_gain < 0:
            raise ParameterError(f"min_gain must be >= 0, got {min_gain}")
        if engine not in ("swope", "exact"):
            raise ParameterError(f"unknown engine {engine!r}")
        self.max_depth = max_depth
        self.min_rows = min_rows
        self.min_gain = min_gain
        self.engine = engine
        self.epsilon = epsilon
        self.seed = seed
        self.root: DecisionNode | None = None
        self.label: str | None = None
        self.cells_scanned = 0

    # ------------------------------------------------------------------
    def fit(
        self,
        store: ColumnStore,
        label: str,
        *,
        features: list[str] | None = None,
    ) -> "EntropyTreeClassifier":
        """Grow the tree on ``store`` predicting the ``label`` column."""
        if label not in store:
            raise SchemaError(f"unknown label attribute {label!r}")
        if features is None:
            features = [a for a in store.attributes if a != label]
        else:
            unknown = [f for f in features if f not in store]
            if unknown:
                raise SchemaError(f"unknown features: {unknown}")
            if label in features:
                raise ParameterError("the label cannot also be a feature")
        if not features:
            raise ParameterError("need at least one feature to fit a tree")
        self.label = label
        self.cells_scanned = 0
        rows = np.arange(store.num_rows)
        self.root = self._grow(store, rows, list(features), depth=0)
        return self

    def _best_split(
        self, subset: ColumnStore, features: list[str], depth: int
    ) -> tuple[str, float]:
        """Return (attribute, exact information gain) of the chosen split."""
        if self.engine == "swope" and len(features) > 1:
            assert self.label is not None
            result = swope_top_k_mutual_information(
                subset,
                self.label,
                k=1,
                epsilon=self.epsilon,
                seed=self.seed + depth,
                candidates=features,
            )
            self.cells_scanned += result.stats.cells_scanned
            chosen = result.attributes[0]
            # The gain used for the min_gain stopping rule is measured
            # exactly on the node's records (cheap: one pair scan).
            exact = exact_mutual_informations(subset, self.label, [chosen])
            self.cells_scanned += 3 * subset.num_rows
            return chosen, exact[chosen]
        assert self.label is not None
        exact = exact_mutual_informations(subset, self.label, features)
        self.cells_scanned += (1 + 3 * len(features)) * subset.num_rows
        chosen = max(sorted(exact), key=lambda a: exact[a])
        return chosen, exact[chosen]

    def _grow(
        self,
        store: ColumnStore,
        rows: np.ndarray,
        features: list[str],
        depth: int,
    ) -> DecisionNode:
        assert self.label is not None
        labels = store.column_block(self.label, rows)
        # Label histogram over the node's row subset (a tree split, not
        # a sample prefix) — outside the backend seam.
        counts = np.bincount(  # noqa: SWP009
            labels, minlength=store.support_size(self.label)
        )
        node = DecisionNode(
            majority=int(counts.argmax()), num_rows=int(rows.size), depth=depth
        )
        if (
            depth >= self.max_depth
            or rows.size < self.min_rows
            or not features
            or int((counts > 0).sum()) <= 1
        ):
            return node
        subset = store.take(rows)
        chosen, gain = self._best_split(subset, features, depth)
        if gain < self.min_gain:
            return node
        node.split = chosen
        node.information_gain = gain
        remaining = [f for f in features if f != chosen]
        column = store.column_block(chosen, rows)
        for value in np.unique(column):
            child_rows = rows[column == value]
            node.children[int(value)] = self._grow(
                store, child_rows, remaining, depth + 1
            )
        return node

    # ------------------------------------------------------------------
    def predict(self, store: ColumnStore, rows: np.ndarray | None = None) -> np.ndarray:
        """Predict label codes for ``rows`` of ``store`` (default: all)."""
        if self.root is None:
            raise ParameterError("classifier is not fitted")
        if rows is None:
            rows = np.arange(store.num_rows)
        rows = np.asarray(rows)
        out = np.empty(rows.size, dtype=np.int64)
        self._predict_into(self.root, store, rows, np.arange(rows.size), out)
        return out

    def _predict_into(
        self,
        node: DecisionNode,
        store: ColumnStore,
        rows: np.ndarray,
        positions: np.ndarray,
        out: np.ndarray,
    ) -> None:
        if node.is_leaf or not node.children:
            out[positions] = node.majority
            return
        assert node.split is not None
        column = store.column_block(node.split, rows)
        routed = np.zeros(rows.size, dtype=bool)
        for value, child in node.children.items():
            mask = column == value
            if mask.any():
                self._predict_into(
                    child, store, rows[mask], positions[mask], out
                )
                routed |= mask
        # Unseen branch values fall back to this node's majority.
        out[positions[~routed]] = node.majority

    def accuracy(self, store: ColumnStore, rows: np.ndarray | None = None) -> float:
        """Fraction of rows classified correctly against the label column."""
        if self.label is None:
            raise ParameterError("classifier is not fitted")
        if rows is None:
            rows = np.arange(store.num_rows)
        rows = np.asarray(rows)
        predictions = self.predict(store, rows)
        truth = store.column_block(self.label, rows)
        return float((predictions == truth).mean()) if rows.size else 1.0

    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        if self.root is None:
            raise ParameterError("classifier is not fitted")
        return self.root.node_count()
