"""Unit-tagged quantity parsing.

All rates and frequencies are stored internally in rad/s.  A frequency tag
without a ``2pi`` prefix is read as a plain angular rate, so ``"6.43 MHz"``
means 6.43e6 rad/s, while ``"23.4 2pi.MHz"`` means 2*pi*23.4e6 rad/s.  This
one documented convention is applied uniformly; quantities that are
conventionally quoted as ordinary frequencies must carry the 2pi prefix.

Other unit classes (length, mass, power, energy, pressure, volume) convert
to plain SI.
"""

from __future__ import annotations

import math
import re

from .constants import EV
from .errors import UnitError

_FREQ_SCALES = {
    "hz": 1.0,
    "khz": 1e3,
    "mhz": 1e6,
    "ghz": 1e9,
    "thz": 1e12,
}

# scale factors to SI for each unit class
UNIT_CLASSES: dict[str, dict[str, float]] = {
    "angular_rate": {
        "rad/s": 1.0,
        **_FREQ_SCALES,
        **{"2pi." + k: 2 * math.pi * v for k, v in _FREQ_SCALES.items()},
    },
    "length": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "mass": {"kg": 1.0, "g": 1e-3, "mg": 1e-6, "ug": 1e-9, "ng": 1e-12, "pg": 1e-15},
    "power": {"w": 1.0, "mw": 1e-3, "uw": 1e-6, "nw": 1e-9, "pw": 1e-12},
    # meV is its own literal: EV / 1000 is not the nearest double
    "energy": {"j": 1.0, "ev": EV, "mev": 1.602176634e-22},
    "pressure": {"pa": 1.0, "kpa": 1e3, "mpa": 1e6, "gpa": 1e9},
    "volume": {"m^3": 1.0, "um^3": 1e-18, "nm^3": 1e-27},
}

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _normalize_tag(tag: str) -> str:
    """Canonicalize a unit tag: lowercase, unicode variants, 2pi separators."""
    t = tag.strip()
    t = t.replace("µ", "u").replace("μ", "u")  # micro sign -> u
    t = t.replace("³", "^3").replace("m3", "m^3")
    t = t.replace("·", ".")  # middle dot
    t = re.sub(r"^2\s*pi[\s.*x]*", "2pi.", t, flags=re.IGNORECASE)
    return t.lower()


def parse_quantity(text: str, unit_class: str) -> float:
    """Parse ``"<number> <unit>"`` into SI (rad/s for angular rates).

    A bare number is accepted and taken as already-SI.  Raises
    :class:`UnitError` naming the expected unit class otherwise.
    """
    table = UNIT_CLASSES[unit_class]
    s = text.strip().strip('"').strip("'")
    parts = s.split(None, 1)
    if not parts:
        raise UnitError(f"empty value, expected a {unit_class} quantity")
    num_text = parts[0]
    if not _NUMBER_RE.match(num_text):
        raise UnitError(
            f"could not read a number from {text!r} (expected {unit_class})"
        )
    tag = _normalize_tag(parts[1]) if len(parts) > 1 else ""
    if tag and tag not in table:
        allowed = ", ".join(sorted(table))
        raise UnitError(
            f"unit {parts[1]!r} is not a {unit_class} unit (allowed: {allowed})"
        )
    value = float(num_text) * table.get(tag, 1.0)  # a bare number is SI
    if not math.isfinite(value):
        raise UnitError(f"{text!r} is not a finite {unit_class} quantity")
    return value


def format_si(value: float, unit_class: str) -> str:
    """Render a value as an exactly round-trippable SI-tagged string."""
    base = {"angular_rate": "rad/s", "length": "m", "mass": "kg", "power": "W",
            "energy": "J", "pressure": "Pa", "volume": "m^3"}[unit_class]
    return f"{value!r} {base}"
