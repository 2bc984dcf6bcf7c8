"""Error taxonomy shared by the whole package.

InputError covers malformed domain data (bad type strings, indices out
of range, roots outside the system, invalid JSON payloads).  The CLI
maps it to exit code 2.  ResourceGuardError covers refusals to start a
computation whose size exceeds the documented desk-scale guards; the
guards can be lifted with explicit override flags.  `refuse_change` is
the AttributeError that keeps the immutable value classes immutable.
"""


class InputError(ValueError):
    """Invalid input data or parameters."""


class ResourceGuardError(RuntimeError):
    """Computation refused by a size guard; pass the override to proceed."""


def refuse_change(self, name: str, *_) -> None:
    """`__setattr__` and `__delattr__` of the immutable value classes,
    which set their fields once, through `object.__setattr__`."""
    raise AttributeError(
        f"cannot assign to or delete {name!r}: {type(self).__name__} is immutable"
    )
