"""Scenario configuration: strict JSON schema with full-error reporting."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .grid import PhaseGrid
from .scenarios import HAMILTONIAN_PRESETS, STATE_PRESETS
from .transitions import (BACKENDS, INDEX_BOUND, PHASE_EXACT_REASON, PROJECTION_MODES,
                          SCHEDULE_MODES, SEED_BOUND)

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "config_to_dict"]


class ConfigError(ValueError):
    """Carries every validation failure found, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {e}" for e in self.errors))


_TOP_KEYS = {"grid", "hamiltonian", "partition", "initial_state", "schedule",
             "ensemble", "output", "backend", "projection_mode"}
_DEFAULTS = {
    "partition": {"x_boundaries": [], "p_boundaries": []},
    "schedule": {"dt": 0.01, "dt_proj": None, "t_final": 1.0, "mode": "single-shot"},
    "ensemble": {"num_seeds": 1, "base_seed": 0},
    "output": {"out_dir": "runs", "snapshot_stride": 0},
    "backend": "oracle",
    "projection_mode": "sqrt",
}


@dataclass
class ScenarioConfig:
    grid: dict
    hamiltonian: dict
    initial_state: dict
    partition: dict
    schedule: dict
    ensemble: dict
    output: dict
    backend: str
    projection_mode: str

    def build_grid(self) -> PhaseGrid:
        g = self.grid
        dof = g.get("dof", 1)
        pts = g["points"]
        ext = g["x_extent"]
        if isinstance(pts, int):
            pts = [pts] * dof
        if isinstance(ext, (int, float)):
            ext = [float(ext)] * dof
        return PhaseGrid(dof=dof, points=tuple(int(p) for p in pts),
                         x_extents=tuple(float(e) for e in ext),
                         hbar=float(g.get("hbar", 1.0)))

    def build_partition(self, grid: PhaseGrid):
        from .regions import build_partition
        return build_partition(grid, self.partition.get("x_boundaries", []),
                               self.partition.get("p_boundaries", []))

    def build_hamiltonian(self, grid: PhaseGrid):
        from .scenarios import hamiltonian_preset
        return hamiltonian_preset(grid, self.hamiltonian["preset"],
                                  self.hamiltonian.get("params", {}))

    def build_initial_state(self, grid: PhaseGrid):
        from .scenarios import initial_state_preset
        return initial_state_preset(grid, self.initial_state["preset"],
                                    self.initial_state.get("params", {}))


def _check_block(raw: dict, name: str, allowed: set, errors: list) -> dict:
    block = raw.get(name)
    merged = dict(_DEFAULTS.get(name, {}))
    if block is not None and not isinstance(block, dict):
        errors.append(f"{name}: expected an object")
    elif block is not None:
        unknown = set(block) - allowed
        if unknown:
            errors.append(f"{name}: unknown keys {sorted(unknown)}")
        merged.update({k: v for k, v in block.items() if k in allowed})
    return merged


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def parse_config(path_or_dict) -> ScenarioConfig:
    """Load and validate a scenario config; raises ConfigError listing every
    problem found (unknown keys are errors, strict mode)."""
    if isinstance(path_or_dict, (str, Path)):
        with open(path_or_dict) as fh:
            raw = json.load(fh)
    else:
        raw = dict(path_or_dict)
    errors: list = []

    unknown = set(raw) - _TOP_KEYS
    if unknown:
        errors.append(f"unknown top-level keys {sorted(unknown)}")
    for req in ("grid", "hamiltonian", "initial_state"):
        if req not in raw:
            errors.append(f"missing required block {req!r}")

    grid = _check_block(raw, "grid", {"dof", "points", "x_extent", "hbar"}, errors)
    ham = _check_block(raw, "hamiltonian", {"preset", "params"}, errors)
    state = _check_block(raw, "initial_state", {"preset", "params"}, errors)
    partition = _check_block(raw, "partition", {"x_boundaries", "p_boundaries"}, errors)
    schedule = _check_block(raw, "schedule", {"dt", "dt_proj", "t_final", "mode"}, errors)
    ensemble = _check_block(raw, "ensemble", {"num_seeds", "base_seed"}, errors)
    output = _check_block(raw, "output", {"out_dir", "snapshot_stride"}, errors)
    backend = raw.get("backend", _DEFAULTS["backend"])
    projection_mode = raw.get("projection_mode", _DEFAULTS["projection_mode"])

    if "hamiltonian" in raw:
        preset = ham.get("preset")
        if preset not in HAMILTONIAN_PRESETS:
            errors.append(f"hamiltonian: unknown preset {preset!r}; "
                          f"available: {list(HAMILTONIAN_PRESETS)}")
    if "initial_state" in raw:
        preset = state.get("preset")
        if preset not in STATE_PRESETS:
            errors.append(f"initial_state: unknown preset {preset!r}; "
                          f"available: {list(STATE_PRESETS)}")
    if backend not in BACKENDS:
        errors.append(f"backend: {backend!r} not in {BACKENDS}")
    if projection_mode not in PROJECTION_MODES:
        errors.append(f"projection_mode: {projection_mode!r} not in {PROJECTION_MODES}")
    elif backend == "phase" and projection_mode == "exact":
        errors.append(f"projection_mode: {PHASE_EXACT_REASON}")
    if schedule.get("mode") not in SCHEDULE_MODES:
        errors.append(f"schedule: unknown mode {schedule.get('mode')!r}")
    dt, dtp, t_final = schedule.get("dt"), schedule.get("dt_proj"), schedule.get("t_final")
    numbers = {"dt": dt, "t_final": t_final}
    if dtp is not None:
        numbers["dt_proj"] = dtp
    for key, value in numbers.items():
        if not _is_number(value):
            errors.append(f"schedule: {key} must be a number, got {value!r}")
    if _is_number(dt) and dt <= 0:
        errors.append(f"schedule: dt must be > 0, got {dt!r}")
    if _is_number(t_final) and t_final < 0:
        errors.append(f"schedule: t_final must be >= 0, got {t_final!r}")
    if schedule.get("mode") == "periodic":
        if dtp is None:
            errors.append("schedule: periodic mode needs dt_proj")
        elif _is_number(dt) and _is_number(dtp) and dtp < dt:
            errors.append("schedule: dt_proj must be >= dt")
    for name, block, key, least in (("ensemble", ensemble, "num_seeds", 1),
                                    ("ensemble", ensemble, "base_seed", 0),
                                    ("output", output, "snapshot_stride", 0)):
        value = block.get(key)
        if not _is_integer(value) or value < least:
            errors.append(f"{name}: {key} must be an integer >= {least}, got {value!r}")
    stride, num = output.get("snapshot_stride"), ensemble.get("num_seeds")
    base = ensemble.get("base_seed")
    if _is_integer(base) and _is_integer(num) and base >= 0 and num >= 1:
        # run i draws from trajectory_rng(base_seed + i, i)
        if base + num > SEED_BOUND:
            errors.append(f"ensemble: base_seed + num_seeds must be at most 2^64, "
                          f"since seeds run up to base_seed + num_seeds - 1; "
                          f"got {base} + {num}")
        if num > INDEX_BOUND:
            errors.append(f"ensemble: num_seeds must be at most 2^32, the count "
                          f"of trajectory indices; got {num}")
    if _is_integer(stride) and stride > 0 and (backend != "phase" or num != 1):
        errors.append(f"output: snapshot_stride > 0 needs backend 'phase' and "
                      f"ensemble num_seeds 1, since only a single phase run writes "
                      f"snapshots; got backend {backend!r} and num_seeds {num!r}")
    if not isinstance(output.get("out_dir"), str):
        errors.append(f"output: out_dir must be a string, got {output.get('out_dir')!r}")

    cfg = None
    if not errors:
        cfg = ScenarioConfig(grid=grid, hamiltonian=ham, initial_state=state,
                             partition=partition, schedule=schedule,
                             ensemble=ensemble, output=output, backend=backend,
                             projection_mode=projection_mode)
        # physics-level cross validation (grid legality, box sizes, presets)
        try:
            g = cfg.build_grid()
        except Exception as exc:
            errors.append(f"grid: {exc}")
            g = None
        if g is not None:
            # a preset's params are used only when its symbol is evaluated
            for builder, label in ((cfg.build_partition, "partition"),
                                   (lambda g: cfg.build_hamiltonian(g).symbol(),
                                    "hamiltonian"),
                                   (cfg.build_initial_state, "initial_state")):
                try:
                    builder(g)
                except Exception as exc:
                    errors.append(f"{label}: {exc}")
            if stride > 0 and len(set(g.points)) > 1:
                errors.append(f"output: snapshot_stride > 0 needs equal point counts "
                              f"per dof, since a grid dump carries one; got {g.points}")
    if errors:
        raise ConfigError(errors)
    return cfg


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return asdict(cfg)
