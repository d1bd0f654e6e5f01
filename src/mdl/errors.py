"""Shared exception types and the cap override hook."""

import os

from .bits import bits


def cap_override(default: int) -> int:
    """The cap `default`, raised by MDL_CAP_OVERRIDE (no termination promise).

    Only stacks.LAYER_BUDGET reads it; every other cap is fixed.  The
    override only raises the cap: a value below the default, or one that
    is not an integer, is refused with an InputError naming it.
    """
    v = os.environ.get("MDL_CAP_OVERRIDE")
    if not v:
        return default
    if not v.isdecimal() or int(v) < default:
        raise InputError(f"MDL_CAP_OVERRIDE={v!r} must be an integer >= {default}")
    return int(v)


class CapExceeded(RuntimeError):
    """An operation refused an instance beyond its documented size cap."""


class InputError(ValueError):
    """An input the program refuses: a parameter, argument or file it
    cannot accept.  The CLI reports it as a usage error (exit 2); any
    other ValueError is a bug."""


class PremiseError(InputError):
    """A procedure's precondition does not hold for the given input."""


class UniformMinorDetected(PremiseError):
    """A forbidden uniform minor showed up mid-procedure.

    Carries the witness subset (a bit mask) and the set `contracted` (a
    bit mask of the caller's input, empty when nothing was contracted):
    (M/contracted)|witness is the uniform matroid that the caller
    asserted was excluded.  The message lists the elements of both.
    """

    def __init__(self, message: str, witness: int, contracted: int = 0):
        text = f"{message} on elements {' '.join(map(str, bits(witness)))}"
        if contracted:
            text += f" after contracting {' '.join(map(str, bits(contracted)))}"
        super().__init__(text)
        self.message, self.witness, self.contracted = message, witness, contracted
