"""Stub of the retired on-disk operating-point cache switch.

The operating-point store is the per-process table cache of
:mod:`repro.sim.optables` alone: no table is written to disk, and no
environment variable or flag configures a disk tier.  This module
remains only because the benchmark harness (``perfbench/rep.py``)
imports it to report that no disk tier is on; ROADMAP item 8 queues
dropping that read, and then this module.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional


def cache_dir() -> Optional[Path]:
    """Always None: there is no on-disk operating-point tier."""
    return None
