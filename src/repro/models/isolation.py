"""Extended isolation forest substrate (Hariri et al., 2021).

Unlike the classic isolation forest, split hyperplanes may be diagonal:
each internal node draws a random normal vector ``n`` and a random
intercept ``p`` inside the node's bounding box, branching on
``(x - p) . n <= 0``.  Anomalies isolate in fewer splits, so short average
path lengths map to scores near 1 via ``s(x) = 2^{-E(h(x)) / c(psi)}``.

Trees are *grown* recursively (the structure and RNG consumption are
unchanged from the original implementation) but *traversed* over a flat
array encoding: normals, intercepts, child indices and leaf adjustments
of every tree of a forest live in one node arena of contiguous NumPy
arrays, so path lengths for a batch of points across all trees are
computed by one vectorized index-chasing descent instead of per-node
Python recursion.  The property tests pin the arena to a recursive walk
over the grown nodes, kept as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import NotFittedError
from repro.core.types import FloatArray


def average_path_length(n: int) -> float:
    """Expected path length ``c(n)`` of an unsuccessful BST search.

    ``c(n) = 2 H(n-1) - 2(n-1)/n`` with ``H(k) ~ ln(k) + gamma``;
    by convention ``c(2) = 1`` and ``c(n) = 0`` for ``n < 2``.
    """
    if n < 2:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = math.log(n - 1) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1) / n


@dataclass
class _Node:
    """One node of an extended isolation tree."""

    size: int
    normal: FloatArray | None = None
    intercept: FloatArray | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _FlatTree:
    """Array encoding of one grown tree (preorder node numbering).

    ``left``/``right`` hold child indices with ``-1`` marking leaves;
    ``leaf_adjust`` holds ``c(size)`` at leaves (0 at internal nodes) so a
    traversal ends with a single gather instead of a Python call.
    """

    __slots__ = ("normals", "intercepts", "left", "right", "leaf_adjust")

    def __init__(self, root: _Node, dim: int) -> None:
        # Preorder flatten with an explicit stack (no recursion limits).
        nodes: list[_Node] = []
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)  # type: ignore[arg-type]
        index = {id(node): i for i, node in enumerate(nodes)}
        n = len(nodes)
        self.normals = np.zeros((n, dim), dtype=np.float64)
        self.intercepts = np.zeros((n, dim), dtype=np.float64)
        self.left = np.full(n, -1, dtype=np.int64)
        self.right = np.full(n, -1, dtype=np.int64)
        self.leaf_adjust = np.zeros(n, dtype=np.float64)
        for i, node in enumerate(nodes):
            if node.is_leaf:
                self.leaf_adjust[i] = average_path_length(node.size)
            else:
                self.normals[i] = node.normal
                self.intercepts[i] = node.intercept
                self.left[i] = index[id(node.left)]
                self.right[i] = index[id(node.right)]

    @property
    def n_nodes(self) -> int:
        return int(self.left.size)


class _Arena:
    """All trees of a forest concatenated into shared node arrays.

    Child indices are rebased so one pair of ``left``/``right`` arrays
    addresses every tree; ``roots`` holds each tree's root offset.  A
    single point then descends *all* trees simultaneously, and a batch of
    points descends all (point, tree) pairs simultaneously.
    """

    __slots__ = ("normals", "intercepts", "left", "right", "leaf_adjust", "roots")

    def __init__(self, flats: list[_FlatTree]) -> None:
        offsets = np.cumsum([0] + [flat.n_nodes for flat in flats[:-1]])
        self.roots = np.asarray(offsets, dtype=np.int64)
        self.normals = np.concatenate([flat.normals for flat in flats])
        self.intercepts = np.concatenate([flat.intercepts for flat in flats])
        self.leaf_adjust = np.concatenate([flat.leaf_adjust for flat in flats])
        rebased_left = []
        rebased_right = []
        for flat, offset in zip(flats, offsets):
            shift = np.where(flat.left >= 0, offset, 0)
            rebased_left.append(flat.left + shift)
            rebased_right.append(flat.right + np.where(flat.right >= 0, offset, 0))
        self.left = np.concatenate(rebased_left)
        self.right = np.concatenate(rebased_right)

    def descend(self, points: FloatArray, node: np.ndarray) -> FloatArray:
        """Walk every (point, node-start) pair to its leaf; return depths.

        ``points`` has shape ``(k, dim)`` aligned with ``node`` — entry
        ``i`` descends from ``node[i]`` deciding branches with
        ``points[i]``.  Mutates ``node`` in place to the final leaves.
        """
        depth = np.zeros(node.size, dtype=np.float64)
        active = np.flatnonzero(self.left[node] >= 0)
        while active.size:
            idx = node[active]
            proj = np.einsum(
                "ij,ij->i", points[active] - self.intercepts[idx], self.normals[idx]
            )
            node[active] = np.where(proj <= 0.0, self.left[idx], self.right[idx])
            depth[active] += 1.0
            active = active[self.left[node[active]] >= 0]
        return depth + self.leaf_adjust[node]


class ExtendedIsolationTree:
    """A single isolation tree with diagonal (hyperplane) splits.

    Args:
        data: points of shape ``(n, dim)`` to isolate.
        rng: random generator.
        max_depth: growth limit; defaults to ``ceil(log2(n))`` as in the
            original algorithm.
        extension_level: number of dimensions participating in each split
            minus one; ``None`` means fully extended (all dimensions).
            Level 0 reproduces the classic axis-parallel forest.
    """

    def __init__(
        self,
        data: FloatArray,
        rng: np.random.Generator,
        max_depth: int | None = None,
        extension_level: int | None = None,
    ) -> None:
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if data.shape[0] == 0:
            raise ValueError("cannot build a tree from zero samples")
        self.dim = data.shape[1]
        self.n_samples = data.shape[0]
        if extension_level is not None and not 0 <= extension_level < self.dim:
            raise ValueError(
                f"extension_level must be in [0, {self.dim - 1}], got {extension_level}"
            )
        self.extension_level = extension_level
        self.max_depth = (
            max_depth
            if max_depth is not None
            else max(1, math.ceil(math.log2(max(self.n_samples, 2))))
        )
        self._rng = rng
        self.root = self._grow(data, depth=0)
        self.flat = _FlatTree(self.root, self.dim)

    def _grow(self, data: FloatArray, depth: int) -> _Node:
        """Grow the subtree isolating ``data`` (all finite) at ``depth``.

        Each test is the cheapest exact form of the obvious one, because
        a PCB-iForest fine-tune regrows trees on the streaming hot path:
        the bounding-box test is ``np.allclose(lower, upper)`` with its
        default tolerances spelled out (on finite input ``allclose``
        computes ``|a - b| <= atol + rtol * |b|``, and ``upper - lower``
        is that ``|a - b|`` exactly), the norm is ``sqrt(n . n)`` as
        ``np.linalg.norm`` computes it for a 1-D vector, and one
        ``count_nonzero`` detects a degenerate split.  The RNG draws and
        every float are those of the obvious form, which
        ``tests/_oracles.py`` keeps as ``grow_tree``.
        """
        n = data.shape[0]
        if n <= 1 or depth >= self.max_depth:
            return _Node(size=n)
        lower = data.min(axis=0)
        upper = data.max(axis=0)
        if (upper - lower <= 1e-08 + 1e-05 * np.abs(upper)).all():
            return _Node(size=n)  # all points identical: nothing to split
        normal = self._rng.normal(size=self.dim)
        if self.extension_level is not None:
            # Zero out all but (extension_level + 1) randomly chosen dims.
            keep = self._rng.choice(
                self.dim, size=self.extension_level + 1, replace=False
            )
            mask = np.zeros(self.dim, dtype=bool)
            mask[keep] = True
            normal = np.where(mask, normal, 0.0)
        norm = math.sqrt(normal.dot(normal))
        if norm < 1e-12:
            return _Node(size=n)
        normal /= norm
        intercept = self._rng.uniform(lower, upper)
        goes_left = (data - intercept) @ normal <= 0.0
        n_left = np.count_nonzero(goes_left)
        if n_left == 0 or n_left == n:
            return _Node(size=n)  # degenerate split
        return _Node(
            size=n,
            normal=normal,
            intercept=intercept,
            left=self._grow(data[goes_left], depth + 1),
            right=self._grow(data[~goes_left], depth + 1),
        )

    def _check_dim(self, x: FloatArray) -> FloatArray:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size != self.dim:
            raise ValueError(f"expected point of dim {self.dim}, got {x.size}")
        return x

    def n_nodes(self) -> int:
        """Total node count (diagnostics)."""
        return self.flat.n_nodes


class ExtendedIsolationForest:
    """An ensemble of extended isolation trees.

    Scoring runs over a node *arena* — the array encodings of every tree
    concatenated — so one point's per-tree depths come from a single
    vectorized descent across all trees, and batches descend all
    (point, tree) pairs at once.

    Args:
        n_trees: ensemble size.
        subsample: points drawn (without replacement when possible) to
            build each tree; the classic default is 256.
        extension_level: see :class:`ExtendedIsolationTree`.
        seed: RNG seed.
    """

    def __init__(
        self,
        n_trees: int = 50,
        subsample: int = 256,
        extension_level: int | None = None,
        seed: int = 0,
    ) -> None:
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        if subsample < 2:
            raise ValueError(f"subsample must be >= 2, got {subsample}")
        self.n_trees = n_trees
        self.subsample = subsample
        self.extension_level = extension_level
        self._rng = np.random.default_rng(seed)
        self._trees: list[ExtendedIsolationTree] = []
        self._arena: _Arena | None = None
        self._psi = 0

    @property
    def trees(self) -> list[ExtendedIsolationTree]:
        return self._trees

    @trees.setter
    def trees(self, trees: list[ExtendedIsolationTree]) -> None:
        # Assigning a new tree list (fit, PCB prune-and-regrow) drops the
        # cached arena; it is rebuilt lazily on the next scoring call.
        self._trees = list(trees)
        self._arena = None

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)

    def fit(self, data: FloatArray) -> "ExtendedIsolationForest":
        """Build all trees from scratch on ``(n, dim)`` points."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        self.trees = [self.build_tree(data) for _ in range(self.n_trees)]
        return self

    def build_tree(self, data: FloatArray) -> ExtendedIsolationTree:
        """Build one tree on a random subsample of ``data``."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        n = data.shape[0]
        psi = min(self.subsample, n)
        self._psi = psi
        index = self._rng.choice(n, size=psi, replace=n < psi)
        level = self.extension_level
        if level is not None:
            level = min(level, data.shape[1] - 1)
        return ExtendedIsolationTree(data[index], self._rng, extension_level=level)

    def _ensure_arena(self) -> _Arena:
        if self._arena is None:
            self._arena = _Arena([tree.flat for tree in self._trees])
        return self._arena

    def depths(self, x: FloatArray) -> FloatArray:
        """Per-tree path lengths for one point."""
        if not self._trees:
            raise NotFittedError("forest used before fit")
        x = self._trees[0]._check_dim(x)
        arena = self._ensure_arena()
        points = np.broadcast_to(x, (arena.roots.size, x.size))
        return arena.descend(points, arena.roots.copy())

    def depths_batch(self, points: FloatArray) -> FloatArray:
        """Path lengths for ``(n, dim)`` points over every tree: ``(n, T)``."""
        if not self._trees:
            raise NotFittedError("forest used before fit")
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self._trees[0].dim:
            raise ValueError(
                f"expected points of dim {self._trees[0].dim}, "
                f"got {points.shape[1]}"
            )
        arena = self._ensure_arena()
        n_points = points.shape[0]
        n_trees = arena.roots.size
        node = np.tile(arena.roots, n_points)
        spread = np.repeat(points, n_trees, axis=0)
        return arena.descend(spread, node).reshape(n_points, n_trees)

    def score_from_depth(self, depth: float) -> float:
        """Map a (mean or single-tree) depth to the iForest score in (0, 1)."""
        denominator = average_path_length(max(self._psi, 2))
        return float(2.0 ** (-depth / max(denominator, 1e-12)))

    def scores_from_depths(self, depths: FloatArray) -> FloatArray:
        """Vectorized :meth:`score_from_depth` over an array of depths."""
        denominator = average_path_length(max(self._psi, 2))
        return 2.0 ** (
            -np.asarray(depths, dtype=np.float64) / max(denominator, 1e-12)
        )

    def score(self, x: FloatArray) -> float:
        """The ensemble anomaly score ``2^{-E(h(x)) / c(psi)}``."""
        return self.score_from_depth(float(self.depths(x).mean()))

    def score_batch(self, points: FloatArray) -> FloatArray:
        """Ensemble scores for ``(n, dim)`` points in one vectorized pass."""
        return self.scores_from_depths(self.depths_batch(points).mean(axis=1))
