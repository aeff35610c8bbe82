"""The number and seed checks that every module's inputs go through, and
the error they raise.

This module uses the standard library alone and imports no other thermeval
module, so a command that needs only these checks (``stats``, ``report``,
``convert``) loads neither ``coco`` nor numpy for them.  ``coco``
re-exports the error and the three checks: ``coco.DatasetError`` is this
module's class.  A module with its own error class raises it, with the
check's message, through ``_check_as``.
"""

from __future__ import annotations


class DatasetError(ValueError):
    """A COCO document, Dataset, or detection list violated a structural rule."""


def _check_number(value: object, what: str) -> None:
    """Reject a value that is not an int or float; a bool is not a number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DatasetError(f"{what} must be a number, got {value!r}")


def _check_int(value: object, what: str) -> int:
    """Reject a value that is not an int; a bool or an integral float is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DatasetError(f"{what} must be an integer, got {value!r}")
    return value


def _check_seed(value: object) -> int:
    """A seed is a non-negative integer: a split plan's, a corpus's, a detector
    run's, an augmentation's."""
    if _check_int(value, "seed") < 0:
        raise DatasetError(f"seed must be non-negative, got {value}")
    return value


def _check_as(error: type[ValueError], check, *args):
    """``check(*args)``, raising ``error`` with the message of its ``DatasetError``."""
    try:
        return check(*args)
    except DatasetError as exc:
        raise error(str(exc)) from None
