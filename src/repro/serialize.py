"""Shared machinery for WmXML's versioned JSON artefacts.

Schemes (``wmxml-scheme-v1``), watermark records (``wmxml-record-v1``),
and detection results (``wmxml-detection-v1``) all persist the same
way: a dict with a ``format`` version tag, JSON text, and a file.  This
mixin provides the common surface — ``to_json``/``from_json``/
``save``/``load`` plus the format-tag gate — around each class's own
``to_dict``/``from_dict``, so version-handling behaviour (error
wrapping, migration hooks) lives in exactly one place.

Every reader of JSON input decodes it through :func:`load_json_object`.

Like :mod:`repro.errors`, this module imports nothing above itself and
is usable from any layer.
"""

from __future__ import annotations

import json
from typing import ClassVar, Optional, Union

from repro.errors import SerializationError


class _RepeatedMember(Exception):
    """An object named one member twice (raised out of :func:`json.loads`)."""


def _members(pairs: list) -> dict:
    """``object_pairs_hook`` that refuses an object naming a member
    twice, where :mod:`json` would keep the last value silently."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise _RepeatedMember(name)
            seen.add(name)
    return members


def load_json_object(data: Union[str, bytes], error: type,
                     what: str) -> dict:
    """Decode text or UTF-8 bytes holding one JSON object.

    Each defect raises ``error``, the caller's
    :class:`~repro.errors.WmXMLError` subclass, with ``what`` naming the
    input: bytes that are not UTF-8, text that is not JSON, nesting
    deeper than :mod:`json` can follow, an object that names a member
    twice, and a value that is not an object.
    """
    try:
        value = json.loads(data.decode("utf-8") if isinstance(data, bytes)
                           else data, object_pairs_hook=_members)
    except _RepeatedMember as cause:
        raise error(f"{what} names the member {cause.args[0]!r} "
                    "more than once") from None
    except UnicodeDecodeError as cause:
        raise error(f"{what} is not UTF-8: {cause}") from cause
    except ValueError as cause:
        raise error(f"{what} is not valid JSON: {cause}") from cause
    except RecursionError as cause:
        raise error(f"{what} is nested too deeply to decode") from cause
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got "
                    f"{type(value).__name__}")
    return value


class VersionedDocument:
    """Mixin: versioned JSON round-trip for a ``to_dict``-able class.

    Subclasses set ``format_tag`` (the value of the ``format`` key) and
    ``format_error`` (the :class:`~repro.errors.SerializationError`
    subclass to raise on malformed input), and call
    :meth:`_check_format` at the top of their ``from_dict``.
    """

    format_tag: ClassVar[str]
    format_error: ClassVar[type] = SerializationError

    def to_dict(self) -> dict:  # pragma: no cover - subclasses override
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict):  # pragma: no cover - overridden
        raise NotImplementedError

    @classmethod
    def _check_format(cls, data) -> None:
        """Reject anything but a dict carrying this class's format tag."""
        if not isinstance(data, dict):
            raise cls.format_error(
                f"{cls.__name__} document must be an object, got "
                f"{type(data).__name__}")
        if data.get("format") != cls.format_tag:
            raise cls.format_error(
                f"not a {cls.format_tag} document "
                f"(format={data.get('format')!r})")

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: Union[str, bytes]):
        return cls.from_dict(load_json_object(
            text, cls.format_error, f"{cls.__name__} document"))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def load(cls, path: str):
        with open(path, "rb") as handle:
            return cls.from_json(handle.read())
