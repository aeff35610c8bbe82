"""Thermal detection evaluation toolkit.

Import from the submodules (``coco``, ``thermal``, ``metrics``, ``plan``,
``stats``, ``report``, ``synth``, ``cli``); each one's ``__all__`` is its
public API.  The package root holds only the version.
"""

__version__ = "0.1.0"
