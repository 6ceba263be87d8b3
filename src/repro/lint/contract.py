"""The declarative lint contract.

The layering table (which subsystem may import which) and the other
knobs live in ``pyproject.toml`` under ``[tool.repro.lint]`` so the
contract is data, not code.  This module loads that section and falls
back to built-in defaults when no pyproject is present (e.g. fixture
trees in the linter's own tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .domains import DomainContract

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.9/3.10 without tomli
    tomllib = None  # type: ignore[assignment]

__all__ = [
    "LintContract",
    "ForbiddenCombo",
    "load_contract",
    "DEFAULT_LAYERS",
    "find_pyproject",
]


#: Default DESIGN.md import DAG: subsystem -> subsystems it may import.
#: ``"*"`` grants everything (the composition roots).  Absence of an
#: edge is a LAY001; a repro module matching no key is a LAY003.
DEFAULT_LAYERS: Dict[str, List[str]] = {
    "repro": ["*"],  # the package facade re-exports freely
    "repro.sim": [],
    "repro.isa": [],
    "repro.analysis": [],
    "repro.costs": ["repro.sim", "repro.isa"],
    "repro.hw": ["repro.sim", "repro.isa"],
    "repro.rpc": ["repro.sim"],
    "repro.guest": [
        "repro.sim",
        "repro.isa",
        "repro.costs",
        "repro.hw",
        "repro.analysis",
    ],
    "repro.rmm": [
        "repro.sim",
        "repro.isa",
        "repro.costs",
        "repro.hw",
        "repro.rpc",
        "repro.guest",
    ],
    "repro.host": [
        "repro.sim",
        "repro.isa",
        "repro.costs",
        "repro.hw",
        "repro.rpc",
        "repro.guest",
        "repro.rmm",
    ],
    "repro.security": ["repro.sim", "repro.isa", "repro.hw"],
    "repro.experiments": ["*"],
    "repro.obs": ["repro.sim"],
    # the report CLI composes sweeps, so it (alone) reaches experiments
    "repro.obs.report": [
        "repro.sim",
        "repro.obs",
        "repro.experiments",
        "repro.analysis",
    ],
    "repro.lint": [
        "repro.sim",
        "repro.costs",
        "repro.guest",
        "repro.analysis",
        "repro.experiments",
        "repro.obs",
    ],
}

DEFAULT_RNG_MODULE = "repro.sim.rng"

DEFAULT_FORBIDDEN_COMBOS = [
    {
        "modules": ["repro.guest.workloads", "repro.host", "repro.rmm"],
        "allowed-in": ["repro.experiments"],
    }
]


@dataclass(frozen=True)
class ForbiddenCombo:
    """Subsystems that only ``allowed_in`` modules may import together."""

    modules: List[str]
    allowed_in: List[str]


@dataclass
class LintContract:
    """Everything the passes need to know about this repository."""

    layers: Dict[str, List[str]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS)
    )
    forbidden_combos: List[ForbiddenCombo] = field(default_factory=list)
    #: the single module allowed to construct raw random.Random streams
    rng_module: str = DEFAULT_RNG_MODULE
    #: the cross-domain isolation tables ([tool.repro.lint.domains])
    domains: DomainContract = field(default_factory=DomainContract)

    def subsystem_of(self, module: str) -> Optional[str]:
        """Longest contract key that is a dotted prefix of ``module``.

        A dotless key (the root package facade, e.g. ``"repro"``)
        matches only exactly — otherwise it would swallow every
        undeclared subsystem and neuter LAY003.
        """
        best: Optional[str] = None
        for key in self.layers:
            if module == key or (
                "." in key and module.startswith(key + ".")
            ):
                if best is None or len(key) > len(best):
                    best = key
        return best

    def allows(self, importer_subsystem: str, target_subsystem: str) -> bool:
        allowed = self.layers.get(importer_subsystem, [])
        return (
            importer_subsystem == target_subsystem
            or "*" in allowed
            or target_subsystem in allowed
        )


def _default_contract() -> LintContract:
    return LintContract(
        layers=dict(DEFAULT_LAYERS),
        forbidden_combos=[
            ForbiddenCombo(c["modules"], c["allowed-in"])
            for c in DEFAULT_FORBIDDEN_COMBOS
        ],
        rng_module=DEFAULT_RNG_MODULE,
    )


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.exists():
            return pyproject
    return None


def load_contract(start: Optional[Path] = None) -> LintContract:
    """Load ``[tool.repro.lint]`` from the nearest pyproject.toml.

    Missing file, missing section, or a Python without ``tomllib``
    all yield the built-in default contract.
    """
    contract = _default_contract()
    if start is None:
        start = Path.cwd()
    pyproject = find_pyproject(start)
    if pyproject is None or tomllib is None:
        return contract
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    section = data.get("tool", {}).get("repro", {}).get("lint", {})
    if not section:
        return contract
    if "layering" in section:
        contract.layers = {
            key: list(value) for key, value in section["layering"].items()
        }
    if "forbidden-combinations" in section:
        contract.forbidden_combos = [
            ForbiddenCombo(
                list(combo.get("modules", [])),
                list(combo.get("allowed-in", [])),
            )
            for combo in section["forbidden-combinations"]
        ]
    contract.rng_module = section.get("rng-module", contract.rng_module)
    if "domains" in section:
        contract.domains = _load_domains(section["domains"])
    return contract


def _load_domains(section: Dict) -> DomainContract:
    """Build the :class:`DomainContract` from ``[tool.repro.lint.domains]``.

    Any table present replaces the built-in default wholesale (same
    policy as the layering table: the pyproject is the source of
    truth, defaults only cover contract-less fixture trees).
    """
    kwargs = {}
    if "modules" in section:
        kwargs["modules"] = {k: str(v) for k, v in section["modules"].items()}
    if "structures" in section:
        kwargs["structures"] = {
            k: str(v) for k, v in section["structures"].items()
        }
    if "crossing-surfaces" in section:
        kwargs["crossing_surfaces"] = list(section["crossing-surfaces"])
    if "crossing-roots" in section:
        kwargs["crossing_roots"] = list(section["crossing-roots"])
    if "streams" in section:
        kwargs["streams"] = {k: str(v) for k, v in section["streams"].items()}
    if "seed-roots" in section:
        kwargs["seed_roots"] = list(section["seed-roots"])
    return DomainContract(**kwargs)
