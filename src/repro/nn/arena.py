"""Session-axis parameter arenas for cross-session fused inference.

A :class:`ParameterArena` takes K structurally identical module trees
(one per streaming session of the same algorithm spec) and re-homes each
aligned :class:`~repro.nn.module.Parameter` into one stacked
``(K, *shape)`` tensor: session ``k``'s parameter value becomes the row
view ``stack[k]``.  Because the optimizers mutate ``param.value`` only
in place, per-session fine-tunes keep writing *through* the views into
the arena — the fused tensors never go stale while a session trains.

The arena also produces a *mirror* of the module trees: structural
copies whose Parameters hold the stacked tensors themselves.  Feeding
the mirror a ``(K, ..., F)`` input runs one session-axis batched forward
(`np.matmul` maps stacked operands to per-slice GEMMs), bitwise
identical per slice to K separate per-session forwards.

Parameters shared across trees (USAD's ``shared_copy`` encoder/decoder)
are detected by object identity and mapped to a single stacked tensor,
preserving the sharing in the mirror.

Detaching (:meth:`detach` / :meth:`detach_row`) rebinds the session's
parameters to standalone copies of their rows.  In-place arithmetic on a
contiguous row view produces the same bits as on a standalone array, so
a detached detector checkpoints bitwise identically to one that never
joined an arena (pinned by ``tests/test_fleet.py``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter


class FleetIncompatible(ValueError):
    """The session module trees cannot be fused into one arena."""


class ParameterArena:
    """Stacked weight storage plus a fused mirror for K module trees.

    Args:
        roots_per_session: for each session, the tuple of module roots to
            fuse (``model.fleet_modules()``, ``None`` for a model without
            a fused path).  All sessions must have structurally identical
            trees (same classes, shapes and non-parameter attributes).
        attach: when True (the default), each session parameter's value is
            rebound to a row view of its stack so in-place updates write
            through.  ``attach=False`` builds a *scratch* arena over
            copies: the members keep their own storage and the stacks only
            flow back through an explicit :meth:`writeback` — the mode the
            fused training kernels use so a failed/aborted fused fine-tune
            leaves every member untouched.

    Raises:
        FleetIncompatible: when a session has no module roots, the trees
            differ structurally, contain unfusable state (e.g. an
            RNG-carrying ``Dropout``), or share constant arrays whose
            values diverged between sessions.
    """

    def __init__(
        self, roots_per_session: list[tuple | None], attach: bool = True
    ) -> None:
        if not roots_per_session:
            raise FleetIncompatible("arena needs at least one session")
        if any(roots is None for roots in roots_per_session):
            raise FleetIncompatible("a session's model has no fused modules")
        n_roots = len(roots_per_session[0])
        if any(len(roots) != n_roots for roots in roots_per_session):
            raise FleetIncompatible("sessions expose different root counts")
        self.n_sessions = len(roots_per_session)
        self.attached = attach
        #: aligned (source Parameters, stacked tensor) pairs, one per
        #: distinct Parameter position (shared Parameters appear once).
        self._bindings: list[tuple[list[Parameter], np.ndarray]] = []
        #: fused Parameter per binding (same order as ``_bindings``).
        self._fused: list[Parameter] = []
        #: id(member Parameter) -> (fused Parameter, session row).
        self._by_member: dict[int, tuple[Parameter, int]] = {}
        self._memo: dict[tuple[int, ...], Parameter] = {}
        self.mirror: tuple = tuple(
            self._mirror_module([roots[i] for roots in roots_per_session])
            for i in range(n_roots)
        )
        self._memo.clear()

    # ------------------------------------------------------------------
    def _mirror_module(self, aligned: list[Module]) -> Module:
        first = aligned[0]
        cls = type(first)
        if any(type(m) is not cls for m in aligned):
            raise FleetIncompatible(
                f"module class mismatch: {[type(m).__name__ for m in aligned]}"
            )
        mirror = object.__new__(cls)
        for name, attr in vars(first).items():
            values = [vars(m).get(name, _MISSING) for m in aligned]
            if any(v is _MISSING for v in values):
                raise FleetIncompatible(f"attribute {name!r} missing in a session")
            setattr(mirror, name, self._mirror_attr(name, values))
        return mirror

    def _mirror_attr(self, name: str, values: list):
        first = values[0]
        if isinstance(first, Parameter):
            return self._stack_parameters(values)
        if isinstance(first, Module):
            return self._mirror_module(values)
        if isinstance(first, (list, tuple)):
            if all(isinstance(item, Module) for item in first):
                mirrored = [
                    self._mirror_module([v[i] for v in values])
                    for i in range(len(first))
                ]
                return type(first)(mirrored)
            if not first:
                return type(first)(first)
            raise FleetIncompatible(f"cannot fuse container attribute {name!r}")
        if first is None or (
            name.startswith("_") and isinstance(first, np.ndarray)
        ):
            # Activation caches (``_input``, ``_mask``, ...): reset.
            return None
        if isinstance(first, np.ndarray):
            # Constant tensors (e.g. N-BEATS fixed basis matrices) must
            # agree across sessions; the mirror then shares one array
            # that broadcasts over the session axis.
            for other in values[1:]:
                if not np.array_equal(first, other):
                    raise FleetIncompatible(
                        f"constant array {name!r} differs between sessions"
                    )
            return first
        if isinstance(first, (bool, int, float, str)):
            if any(other != first for other in values[1:]):
                raise FleetIncompatible(
                    f"attribute {name!r} differs between sessions: {values}"
                )
            return first
        raise FleetIncompatible(
            f"attribute {name!r} of type {type(first).__name__} is not fusable"
        )

    def _stack_parameters(self, params: list[Parameter]) -> Parameter:
        key = tuple(id(p) for p in params)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        shape = params[0].value.shape
        if any(p.value.shape != shape for p in params):
            raise FleetIncompatible(
                f"parameter shape mismatch for {params[0].name!r}"
            )
        stack = np.stack([p.value for p in params])
        if self.attached:
            # Attach: each session's value becomes a view of its arena row,
            # so in-place optimizer updates keep the stack current.
            for k, param in enumerate(params):
                param.value = stack[k]
        fused = Parameter(stack, name=f"arena.{params[0].name}")
        self._memo[key] = fused
        self._bindings.append((list(params), stack))
        self._fused.append(fused)
        for k, param in enumerate(params):
            self._by_member[id(param)] = (fused, k)
        return fused

    # ------------------------------------------------------------------
    def synced(self) -> bool:
        """True while every session parameter still aliases its arena row.

        Rebinding ``param.value`` (e.g. ``Module.load_state``) silently
        breaks the aliasing; the fleet engine checks this before every
        fused call and rebuilds the arena when it fails.
        """
        return all(
            param.value.base is stack
            for params, stack in self._bindings
            for param in params
        )

    def detach_row(self, k: int) -> None:
        """Give session ``k`` standalone copies of its weights."""
        for params, stack in self._bindings:
            params[k].value = np.array(stack[k])

    def detach(self) -> None:
        """Detach every session (the arena keeps only stale copies)."""
        for k in range(self.n_sessions):
            self.detach_row(k)

    # ------------------------------------------------------------------
    # training support (scratch arenas)
    # ------------------------------------------------------------------
    def fused_row(self, param: Parameter) -> tuple[Parameter, int]:
        """Map a member Parameter to its ``(fused Parameter, session row)``.

        The fused optimizer lanes use this to align each session
        optimizer's parameter list with the stacked tensors.
        """
        entry = self._by_member.get(id(param))
        if entry is None:
            raise KeyError(f"parameter {param.name!r} is not bound in this arena")
        return entry

    def zero_grad(self) -> None:
        """Reset the gradients of every fused (stacked) Parameter."""
        for fused in self._fused:
            fused.zero_grad()

    def writeback(self) -> None:
        """Copy stacked values back into the members.

        For a scratch arena (``attach=False``) this is the only point at
        which a fused fine-tune mutates the member models; values are
        copied in place (``[...]``), so members whose values are row views
        of a live inference arena keep writing through it.
        """
        for params, stack in self._bindings:
            for k, param in enumerate(params):
                param.value[...] = stack[k]


_MISSING = object()
