"""Plug-in watermark algorithm interface and registry.

The paper's architecture (Figure 4) attaches per-type plug-ins (WA1,
WA2, WA3...) to the encoder and decoder: "the system prepares various
plug-in watermarking algorithms for different data types ... numeric
data and images".  This module defines the plug-in contract; concrete
algorithms live alongside it and register themselves by name so that a
stored :class:`~repro.core.record.WatermarkRecord` can name the
algorithm that marked each carrier.

Contract:

* ``embed(value, bit, prf, identity)`` returns the marked value; it must
  be deterministic in its arguments (same key + identity => same
  output), and idempotent (embedding the same bit into an already-marked
  value is a no-op);
* ``extract(value, prf, identity)`` recovers the bit, or None when the
  value cannot carry one;
* ``applicable(value)`` reports whether a value can carry a bit at all;
* ``distortion(original, marked)`` quantifies the perturbation, used by
  the usability analysis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping, Optional, Sequence

from repro.core.crypto import KeyedPRF
from repro.errors import WmXMLError


class AlgorithmError(WmXMLError):
    """Unknown algorithm name or invalid algorithm parameters."""

    code = "algorithm-error"


class WatermarkAlgorithm(ABC):
    """Base class for the per-type embedding plug-ins."""

    #: Registry name; subclasses must override.
    name: str = ""

    @abstractmethod
    def embed(self, value: str, bit: int, prf: KeyedPRF, identity: str) -> str:
        """Return ``value`` perturbed to carry ``bit``."""

    @abstractmethod
    def extract(self, value: str, prf: KeyedPRF, identity: str) -> Optional[int]:
        """Recover the embedded bit, or None when unreadable."""

    @abstractmethod
    def applicable(self, value: str) -> bool:
        """True when ``value`` can carry a watermark bit."""

    def distortion(self, original: str, marked: str) -> float:
        """Relative size of the perturbation (0.0 = unchanged).

        The default is a character-level measure; numeric plug-ins
        override with a relative-error measure.
        """
        if original == marked:
            return 0.0
        length = max(len(original), len(marked), 1)
        differing = sum(
            1 for a, b in zip(original.ljust(length), marked.ljust(length))
            if a != b)
        return differing / length

    def params(self) -> dict[str, Any]:
        """The constructor parameters, for persistence in the record."""
        return {}

    def __repr__(self) -> str:
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({rendered})"


_REGISTRY: dict[str, type[WatermarkAlgorithm]] = {}


def register_algorithm(cls: type[WatermarkAlgorithm]) -> type[WatermarkAlgorithm]:
    """Class decorator registering a plug-in under ``cls.name``."""
    if not cls.name:
        raise AlgorithmError(f"{cls.__name__} has no registry name")
    if cls.name in _REGISTRY:
        raise AlgorithmError(f"algorithm {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def algorithm_names() -> list[str]:
    """Registered plug-in names, sorted."""
    return sorted(_REGISTRY)


def create_algorithm(name: str,
                     params: Optional[Mapping[str, Any]] = None) -> WatermarkAlgorithm:
    """Instantiate a registered plug-in with ``params``."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; registered: {algorithm_names()}"
        ) from None
    try:
        return cls(**dict(params or {}))
    except TypeError as exc:
        raise AlgorithmError(f"bad parameters for {name!r}: {exc}") from None


def cached_algorithm(cache: dict[str, WatermarkAlgorithm], name: str,
                     params: Sequence[tuple[str, Any]],
                     cache_key: str) -> WatermarkAlgorithm:
    """The plug-in ``cache`` holds under ``cache_key``, made on a miss.

    ``params`` is a carrier's or a stored query's ``(name, value)``
    tuple and ``cache_key`` its precomputed ``algorithm_cache_key``;
    the params dict is built only on a miss, not once per marked slot
    or verified query.
    """
    algorithm = cache.get(cache_key)
    if algorithm is None:
        algorithm = cache[cache_key] = create_algorithm(name, dict(params))
    return algorithm
