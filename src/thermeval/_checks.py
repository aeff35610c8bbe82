"""The number, seed, IoU sweep and detection cap checks that every module's
inputs go through, and the error they raise.

This module uses the standard library alone and imports no other thermeval
module, so a command that needs only these checks (``stats``, ``report``,
``convert``) loads neither ``coco`` nor numpy for them.  ``coco``
re-exports the error and the three checks: ``coco.DatasetError`` is this
module's class.  A module with its own error class raises it, with the
check's message, through ``_check_as``.
"""

from __future__ import annotations

from numbers import Integral, Real


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


def _check_sweep(thresholds: object) -> tuple[float, ...]:
    """A non-empty IoU sweep as plain floats: numbers, not bools, in (0, 1], strictly increasing."""
    raw = tuple(thresholds)
    for t in raw:
        if not isinstance(t, Real) or isinstance(t, bool):
            raise DatasetError(f"IoU threshold must be a number, got {t!r}")
    out = tuple(map(float, raw))
    if not out:
        raise DatasetError("empty threshold list")
    for t in out:
        if not (0.0 < t <= 1.0):
            raise DatasetError(f"IoU threshold {t} outside (0, 1]")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise DatasetError(f"thresholds must be strictly increasing, got {out}")
    return out


def _check_cap(max_dets: object) -> int:
    """A detection cap as a plain int: a positive integer (numpy's too, not a bool)."""
    if not isinstance(max_dets, Integral) or isinstance(max_dets, bool) or max_dets < 1:
        raise DatasetError(f"max_dets must be a positive integer, got {max_dets!r}")
    return int(max_dets)


def _check_as(error: type[ValueError], check, *args):
    """``check(*args)``, raising ``error`` with the message of its ``DatasetError``."""
    try:
        return check(*args)
    except DatasetError as exc:
        raise error(str(exc)) from None
