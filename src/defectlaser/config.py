"""Human-editable parameter files.

The format is INI-like sections of ``key = value`` pairs where every value
carries a unit tag, e.g.::

    [optical]
    cavity_freq   = 193 2pi.THz
    cavity_loss   = 6.43 MHz
    coupling      = 73.513272 MHz
    radius        = 34.5 um
    pump_power    = 10 uW
    pump_detuning = 73.513272 MHz

    [mechanical]
    mech_freq = 23.4 2pi.MHz
    mech_loss = 0.24 MHz
    eff_mass  = 50 ng

    [tls]
    tls_freq = 23.4 2pi.MHz
    tls_loss = 6.43 MHz
    coupling = 1 MHz

A ``[material]`` section (the fields of ``MaterialParams``) may replace
``[tls]``; the defect coupling is then derived from material data.  The
keys and unit classes of every section are the fields of the parameter
dataclasses and their ``unit`` metadata.  A line ends at a newline
(LF) only; ``#`` and ``;`` start comments.  Parse errors report the
key, line number and expected unit class.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError, InvalidParameterError, UnitError
from .params import GROUPS, SystemParams, setter
from .units import format_si, parse_quantity

# section -> key -> unit class, read off the parameter dataclasses
SCHEMA: dict[str, dict[str, str]] = {
    section: {f.name: f.metadata["unit"] for f in fields(cls)}
    for section, cls in GROUPS.items()}


def parse_config_text(text: str) -> dict[str, dict[str, float]]:
    """Parse config text into {section: {key: SI value}} with line errors;
    one leading byte order mark is dropped (``str.strip`` keeps it)."""
    text = text.removeprefix("\ufeff")
    sections: dict[str, dict[str, float]] = {}
    seen: dict = {}  # section, or (section, key) -> the line that gave it
    current: str | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in SCHEMA:
                raise ConfigError(
                    f"unknown section [{current}] (known: "
                    f"{', '.join(sorted(SCHEMA))})", line=lineno)
            if current in seen:
                raise ConfigError(f"section [{current}] already given at line "
                                  f"{seen[current]}", line=lineno)
            seen[current], sections[current] = lineno, {}
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if current is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in SCHEMA[current]:
            raise ConfigError(
                f"not a [{current}] key (known: "
                f"{', '.join(sorted(SCHEMA[current]))})",
                key=key, line=lineno)
        if (current, key) in seen:
            raise ConfigError(f"already given at line {seen[current, key]}",
                              key=key, line=lineno)
        seen[current, key] = lineno
        unit_class = SCHEMA[current][key]
        try:
            sections[current][key] = parse_quantity(value, unit_class)
        except UnitError as err:
            raise ConfigError(f"{err} (expected unit class: {unit_class})",
                              key=key, line=lineno) from err
    return sections


def _build(section: str, data: dict[str, dict[str, float]]):
    if section not in data:
        raise ConfigError(f"missing required section [{section}]")
    given = data[section]
    missing = sorted(set(SCHEMA[section]) - set(given))
    if missing:
        raise ConfigError(
            f"section [{section}] is missing: {', '.join(missing)}")
    try:
        return GROUPS[section](**given)
    except InvalidParameterError as err:
        raise ConfigError(f"invalid [{section}] block: {err}") from err


def params_from_config(text: str) -> SystemParams:
    """Build a validated SystemParams from config text."""
    data = parse_config_text(text)
    blocks = {s: _build(s, data) for s in ("optical", "mechanical")}
    has_tls = "tls" in data
    if has_tls == ("material" in data):
        raise ConfigError("exactly one of [tls] / [material] must be present")
    defect = "tls" if has_tls else "material"
    try:
        return SystemParams(**blocks, **{defect: _build(defect, data)})
    except InvalidParameterError as err:
        raise ConfigError(str(err)) from err


def load_config(path) -> SystemParams:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return params_from_config(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"not UTF-8 text (byte {data[err.start]:#04x})",
                          line=data.count(b"\n", 0, err.start) + 1) from None


def params_to_config(params: SystemParams) -> str:
    """Serialize to config text in exact (round-trippable) SI values.

    A defect derived from material data is written as its ``[material]``
    block, with the derived ``[tls]`` values as comments.
    """
    lines = []

    def block(header, section, sub, prefix=""):
        lines.append(f"{prefix}{header}")
        for key, uc in SCHEMA[section].items():
            lines.append(f"{prefix}{key} = {format_si(getattr(sub, key), uc)}")

    for section in ("optical", "mechanical"):
        block(f"[{section}]", section, getattr(params, section))
        lines.append("")
    if params.material is not None:
        block("[material]", "material", params.material)
        block("derived from [material]:", "tls", params.tls, "# ")
    else:
        block("[tls]", "tls", params.tls)
    lines.append("")
    return "\n".join(lines)


def apply_override(params: SystemParams, assignment: str) -> SystemParams:
    """Apply one ``group.key=value`` override (CLI --set).

    Values may carry unit tags exactly as in config files; bare numbers
    are taken as SI.
    """
    path, sep, value = assignment.partition("=")
    if not sep:
        raise ConfigError("override must look like group.key=value",
                          key=assignment)
    path = path.strip()
    group, _, key = path.partition(".")
    group, key = group.strip().lower(), key.strip().lower()
    try:
        build = setter(params, f"{group}.{key}")
        return build(parse_quantity(value.strip(), SCHEMA[group][key]))
    except (InvalidParameterError, UnitError) as err:
        raise ConfigError(str(err), key=path) from err
