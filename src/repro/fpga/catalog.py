"""Device catalog: FPGA parts as data, not constants.

Every simulated part lives in one JSON file under
``src/repro/fpga/devices/`` declaring the BRAM budget (→ ``delta_S``),
the Edge Validator port cap (→ ``delta_D``), the kernel clock, PCIe
generation/width, DRAM-vs-HBM latency and streaming bandwidth, and the
SLR count/sizes. :func:`load_catalog` validates each file and yields
:class:`DeviceSpec` values — a part identity wrapped around the
:class:`~repro.fpga.config.FpgaConfig` the rest of the runtime
consumes. Schema violations raise
:class:`~repro.common.errors.DeviceError` naming the offending
``file:field``.

The shipped parts are the paper's Alveo family scaled ~1/140 to our
dataset sizes (the same scaling the default device always used):
``u200`` (3 SLRs, DDR4), ``u250`` (4 SLRs, DDR4), ``u280`` (3 SLRs,
HBM2), ``u50`` (2 SLRs, HBM2), and ``sim-small`` — the single-SLR
default part whose numbers are exactly ``FpgaConfig()``.

Extension point: pass ``user_dirs`` to :func:`load_catalog` (or set
the ``REPRO_DEVICE_PATH`` environment variable to an
``os.pathsep``-separated list of directories) to add parts from user
JSON files. A user file redefining a shipped part id is rejected —
part names are stable identities, not override slots.

Fleet syntax (``parse_fleet``): a comma-separated list of part names,
each optionally suffixed ``xN`` for N copies — ``"u200,u280x2"`` is
one U200 plus two U280s.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.common.errors import DeviceError
from repro.fpga.config import FpgaConfig

#: Directory of the shipped part files.
BUILTIN_DEVICE_DIR = Path(__file__).resolve().parent / "devices"

#: Environment variable naming extra device directories
#: (``os.pathsep``-separated).
DEVICE_PATH_ENV = "REPRO_DEVICE_PATH"

#: The part every default-constructed config corresponds to.
DEFAULT_PART = "sim-small"

#: Part-name grammar: keeps fleet specs and file stems unambiguous.
_PART_NAME = re.compile(r"^[a-z0-9][a-z0-9_.\-]*$")

#: One fleet token: a part name with an optional ``xN`` multiplier.
_FLEET_TOKEN = re.compile(r"^(?P<name>.+?)(?:x(?P<count>[0-9]+))?$")


@dataclass(frozen=True)
class DeviceSpec:
    """One catalog part: identity plus its validated device config."""

    part: str
    display_name: str
    family: str
    #: Off-chip memory technology, ``"dram"`` or ``"hbm"`` — purely
    #: descriptive; the timing consequences live in ``config``.
    memory: str
    pcie_gen: int
    pcie_width: int
    config: FpgaConfig
    #: The JSON file this spec was loaded from.
    source: str

    @property
    def slr_count(self) -> int:
        return self.config.slr_count

    def summary(self) -> dict[str, Any]:
        """Flat row for the ``repro devices`` listing."""
        cfg = self.config
        return {
            "part": self.part,
            "display_name": self.display_name,
            "family": self.family,
            "memory": self.memory,
            "pcie": f"gen{self.pcie_gen} x{self.pcie_width}",
            "clock_mhz": cfg.clock_mhz,
            "bram_kib": cfg.bram_bytes // 1024,
            "slrs": cfg.slr_count,
            "max_ports": cfg.max_ports,
        }


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------

_REQUIRED_FIELDS = (
    "part", "display_name", "family", "memory", "pcie", "clock_mhz",
    "bram_bytes", "bram_latency", "dram_latency",
    "load_bytes_per_cycle", "flush_bytes_per_cycle", "batch_size",
    "max_ports", "pipeline_depths", "slr",
)

_POSITIVE_NUMBERS = (
    "clock_mhz", "bram_bytes", "bram_latency", "dram_latency",
    "load_bytes_per_cycle", "flush_bytes_per_cycle", "batch_size",
    "max_ports",
)


def _field_error(where: str, field: str, message: str) -> DeviceError:
    return DeviceError(f"{where}:{field}: {message}")


def _require(payload: Mapping[str, Any], where: str, field: str,
             key: str | None = None) -> Any:
    """Fetch ``key`` (default: ``field``) or raise naming ``field``.

    ``field`` is the dotted path reported in errors; ``key`` is the
    actual mapping key, which differs for nested objects
    (``pcie.gen`` reports as such but reads key ``gen``).
    """
    key = key if key is not None else field
    if key not in payload:
        raise _field_error(where, field, "missing required field")
    return payload[key]


def _positive_number(payload: Mapping[str, Any], where: str,
                     field: str, key: str | None = None) -> float:
    value = _require(payload, where, field, key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _field_error(where, field, f"expected a number, got {value!r}")
    if value <= 0:
        raise _field_error(where, field, f"must be positive, got {value!r}")
    return value


def spec_from_payload(payload: Any, where: str) -> DeviceSpec:
    """Validate one part payload into a :class:`DeviceSpec`.

    ``where`` names the source (a file path) and prefixes every error
    as ``file:field``.
    """
    if not isinstance(payload, Mapping):
        raise DeviceError(f"{where}: part file is not a JSON object")
    for field in _REQUIRED_FIELDS:
        _require(payload, where, field)

    part = payload["part"]
    if not isinstance(part, str) or not _PART_NAME.match(part):
        raise _field_error(
            where, "part",
            f"part id must match {_PART_NAME.pattern!r}, got {part!r}",
        )
    for field in ("display_name", "family"):
        if not isinstance(payload[field], str) or not payload[field]:
            raise _field_error(where, field, "must be a non-empty string")
    memory = payload["memory"]
    if memory not in ("dram", "hbm"):
        raise _field_error(
            where, "memory", f"must be 'dram' or 'hbm', got {memory!r}"
        )

    pcie = payload["pcie"]
    if not isinstance(pcie, Mapping):
        raise _field_error(where, "pcie", "must be an object")
    pcie_gen = _positive_number(pcie, where, "pcie.gen", key="gen")
    pcie_width = _positive_number(pcie, where, "pcie.width", key="width")
    pcie_gbs = _positive_number(
        pcie, where, "pcie.gbytes_per_sec", key="gbytes_per_sec"
    )

    for field in _POSITIVE_NUMBERS:
        _positive_number(payload, where, field)

    depths = payload["pipeline_depths"]
    if (not isinstance(depths, (list, tuple)) or len(depths) != 6
            or any(not isinstance(d, int) or isinstance(d, bool)
                   or d < 1 for d in depths)):
        raise _field_error(
            where, "pipeline_depths",
            f"must be six integers >= 1 (l1..l6), got {depths!r}",
        )

    slr = payload["slr"]
    if not isinstance(slr, Mapping):
        raise _field_error(where, "slr", "must be an object")
    slr_count = _positive_number(slr, where, "slr.count", key="count")
    if not isinstance(slr_count, int):
        raise _field_error(where, "slr.count", "must be an integer")
    slr_bram = _require(slr, where, "slr.bram_bytes", key="bram_bytes")
    if (not isinstance(slr_bram, (list, tuple))
            or any(not isinstance(b, int) or isinstance(b, bool)
                   for b in slr_bram)):
        raise _field_error(
            where, "slr.bram_bytes", f"must be a list of integers, "
            f"got {slr_bram!r}",
        )
    penalty = slr.get("crossing_penalty_cycles", 0.0)
    if not isinstance(penalty, (int, float)) or isinstance(penalty, bool):
        raise _field_error(
            where, "slr.crossing_penalty_cycles",
            f"expected a number, got {penalty!r}",
        )

    try:
        config = FpgaConfig(
            clock_mhz=float(payload["clock_mhz"]),
            bram_bytes=int(payload["bram_bytes"]),
            bram_latency=int(payload["bram_latency"]),
            dram_latency=int(payload["dram_latency"]),
            load_bytes_per_cycle=int(payload["load_bytes_per_cycle"]),
            flush_bytes_per_cycle=int(payload["flush_bytes_per_cycle"]),
            batch_size=int(payload["batch_size"]),
            max_ports=int(payload["max_ports"]),
            pcie_gbytes_per_sec=float(pcie_gbs),
            l1=depths[0], l2=depths[1], l3=depths[2],
            l4=depths[3], l5=depths[4], l6=depths[5],
            dram_reads_per_partial=int(
                payload.get("dram_reads_per_partial", 2)
            ),
            dram_reads_per_task=int(payload.get("dram_reads_per_task", 1)),
            slr_count=slr_count,
            slr_bram_bytes=tuple(slr_bram),
            slr_crossing_penalty_cycles=float(penalty),
        )
    except DeviceError as exc:
        # Cross-field constraints (SLR sums, latency ordering) carry
        # the source file, like single-field errors do.
        raise DeviceError(f"{where}: {exc}") from exc

    return DeviceSpec(
        part=part,
        display_name=payload["display_name"],
        family=payload["family"],
        memory=memory,
        pcie_gen=int(pcie_gen),
        pcie_width=int(pcie_width),
        config=config,
        source=where,
    )


def _load_part_file(path: Path) -> DeviceSpec:
    where = str(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DeviceError(f"{where}: cannot read part file: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise DeviceError(f"{where}: invalid JSON: {exc}") from exc
    return spec_from_payload(payload, where)


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------


class DeviceCatalog:
    """Part name -> :class:`DeviceSpec`, from builtin + user dirs."""

    def __init__(self, specs: Mapping[str, DeviceSpec]) -> None:
        self._specs = dict(specs)

    def names(self) -> tuple[str, ...]:
        """Catalogued part names, sorted."""
        return tuple(sorted(self._specs))

    def specs(self) -> tuple[DeviceSpec, ...]:
        return tuple(self._specs[n] for n in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def get(self, name: str) -> DeviceSpec:
        """Resolve ``name``; unknown parts list the valid names."""
        if name not in self._specs:
            raise DeviceError(
                f"unknown device part {name!r}; catalogued parts: "
                f"{', '.join(self.names())}"
            )
        return self._specs[name]


def load_catalog(
    user_dirs: Iterable[str | Path] = (),
) -> DeviceCatalog:
    """Load and validate the device catalog.

    Shipped parts come from :data:`BUILTIN_DEVICE_DIR`; ``user_dirs``
    and the :data:`DEVICE_PATH_ENV` environment variable add
    directories of user part files (``*.json``). Two files declaring
    the same part id — including a user file shadowing a shipped part —
    raise a :class:`DeviceError` naming both files.
    """
    dirs: list[Path] = [BUILTIN_DEVICE_DIR]
    dirs.extend(Path(d) for d in user_dirs)
    env = os.environ.get(DEVICE_PATH_ENV)
    if env:
        dirs.extend(Path(d) for d in env.split(os.pathsep) if d)

    specs: dict[str, DeviceSpec] = {}
    for directory in dirs:
        if not directory.is_dir():
            if directory == BUILTIN_DEVICE_DIR:
                raise DeviceError(
                    f"builtin device directory missing: {directory}"
                )
            raise DeviceError(f"device directory not found: {directory}")
        for path in sorted(directory.glob("*.json")):
            spec = _load_part_file(path)
            if spec.part in specs:
                raise DeviceError(
                    f"duplicate device part {spec.part!r}: defined in "
                    f"{specs[spec.part].source} and {spec.source}"
                )
            specs[spec.part] = spec
    if not specs:
        raise DeviceError("device catalog is empty")
    return DeviceCatalog(specs)


def get_device(
    name: str, catalog: DeviceCatalog | None = None
) -> DeviceSpec:
    """One part by name (loading the catalog when not supplied)."""
    if catalog is None:
        catalog = load_catalog()
    return catalog.get(name)


def default_device() -> DeviceSpec:
    """The catalog's ``sim-small`` part (== ``FpgaConfig()``)."""
    return get_device(DEFAULT_PART)


def parse_fleet(
    spec: str, catalog: DeviceCatalog | None = None
) -> tuple[DeviceSpec, ...]:
    """Parse a fleet spec like ``"u200,u280x2"`` into device specs.

    Each comma-separated token is a part name with an optional ``xN``
    multiplier; the result preserves token order, so the device indices
    of the schedule stage's placement (and of trace lanes, journals and
    breakers) follow the spec left to right.
    """
    if catalog is None:
        catalog = load_catalog()
    devices: list[DeviceSpec] = []
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            raise DeviceError(
                f"empty device token in fleet spec {spec!r}"
            )
        m = _FLEET_TOKEN.match(token)
        name = m.group("name")
        count = int(m.group("count")) if m.group("count") else 1
        if name not in catalog and m.group("count") is not None:
            # "u50x" of a part literally named with a trailing x, or a
            # name the multiplier split mangled: try the whole token.
            if token in catalog:
                name, count = token, 1
        if count < 1:
            raise DeviceError(
                f"device count must be >= 1 in fleet token {token!r}"
            )
        devices.extend([catalog.get(name)] * count)
    return tuple(devices)
