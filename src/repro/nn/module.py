"""Base classes for the numpy neural substrate."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.types import FloatArray


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Attributes:
        value: the current parameter value.
        grad: the accumulated gradient, same shape as ``value``.
        name: optional identifier for debugging.
    """

    def __init__(self, value: FloatArray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad[...] = 0.0

    def __getstate__(self) -> dict:
        """Pickle without the gradient.

        Every trainer zeroes gradients before its first backward, so a
        checkpointed ``grad`` would never be read again; dropping it
        shrinks checkpoints, and a restored Parameter starts at zeros.
        """
        state = dict(self.__dict__)
        del state["grad"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.grad = np.zeros_like(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "param"
        return f"Parameter({label}, shape={self.value.shape})"


class Module:
    """Base class for all layers and models in the substrate."""

    def parameters(self) -> Iterator[Parameter]:
        """Yield every :class:`Parameter` owned by this module (recursively)."""
        for attr in vars(self).values():
            if isinstance(attr, Parameter):
                yield attr
            elif isinstance(attr, Module):
                yield from attr.parameters()
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Parameter):
                        yield item
                    elif isinstance(item, Module):
                        yield from item.parameters()

    def zero_grad(self) -> None:
        """Reset gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def n_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(param.size for param in self.parameters())

    def forward(self, x: FloatArray) -> FloatArray:
        raise NotImplementedError

    def backward(self, grad: FloatArray) -> FloatArray:
        raise NotImplementedError

    def __call__(self, x: FloatArray) -> FloatArray:
        return self.forward(x)

    def __getstate__(self) -> dict:
        """Drop forward/backward scratch from pickles.

        Underscore-prefixed ndarray attributes hold the last forward
        pass's cached activations (the backward inputs).  They are
        overwritten by every forward, so a checkpoint that includes
        them depends on whatever batch shape last flowed through the
        module — dropping them keeps checkpoints a function of logical
        state only (and smaller).  A restored module must run a forward
        before a backward, which training always does.
        """
        state = dict(self.__dict__)
        for name, attr in state.items():
            if name.startswith("_") and isinstance(attr, np.ndarray):
                state[name] = None
        return state

    def state(self) -> list[FloatArray]:
        """Return copies of all parameter values (a checkpoint)."""
        return [param.value.copy() for param in self.parameters()]

    def load_state(self, state: list[FloatArray]) -> None:
        """Restore parameter values from a checkpoint produced by :meth:`state`."""
        params = list(self.parameters())
        if len(params) != len(state):
            raise ValueError(
                f"checkpoint has {len(state)} tensors, module has {len(params)}"
            )
        for param, value in zip(params, state):
            if param.value.shape != value.shape:
                raise ValueError(
                    f"shape mismatch restoring {param!r}: {value.shape}"
                )
            param.value = value.copy()
