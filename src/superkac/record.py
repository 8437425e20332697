"""Record: the base of the package's value classes.

A record's fields are its class annotations, in order; a default is a
class attribute of the same name, and a list, dict or set default is
copied for each instance.  ``_validate`` runs at the end of ``__init__``.
Records are frozen unless declared with ``frozen=False``, and a frozen
record hashes by its field values.  Every method is an ordinary one, so
defining a record compiles no code.
"""

from __future__ import annotations


class Record:
    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        cls._frozen = frozen
        if not frozen:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, "
                            f"got {len(args)}")
        values = dict(zip(self._fields, args))
        for field, value in kwargs.items():
            if field not in self._fields or field in values:
                raise TypeError(f"{name} got an unknown or repeated field "
                                f"{field!r}")
            values[field] = value
        state = self.__dict__
        for field in self._fields:
            if field in values:
                state[field] = values[field]
            elif field in self._defaults:
                value = self._defaults[field]
                state[field] = value.copy() \
                    if isinstance(value, (list, dict, set)) else value
            else:
                raise TypeError(f"{name} is missing field {field!r}")
        self._validate()

    def _validate(self):
        """Check and normalize the fields; a no-op unless overridden."""

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError(f"{type(self).__name__} is frozen")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if self._frozen:
            raise AttributeError(f"{type(self).__name__} is frozen")
        object.__delattr__(self, name)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={getattr(self, field)!r}"
                         for field in self._fields)
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with some fields changed, built and validated anew."""
        return type(self)(**{**dict(zip(self._fields, self._values())),
                             **changes})
