"""Scenario configuration: a flat key = value text format with strict
unknown-key rejection, plus topology string parsing."""

import dataclasses
import json
import math
from dataclasses import dataclass

from .graphs import (Graph, GraphError, complete_graph, line_graph, ring_graph,
                     star_graph)


class ConfigError(ValueError):
    """Raised on syntax or semantic configuration errors."""


@dataclass
class ScenarioConfig:
    scenario: str = "system_id"
    n_agents: int = 10
    dim: int = 5
    seed: int = 1
    horizon: int = 10_000
    stride: int = 10
    topology: str = "line"
    frames: str = ""          # semicolon-separated topology specs; "" = fixed graph
    period_b: int = 1
    step_kind: str = "diminishing"
    step_eps: float = 0.03
    noise_clip: float = 3.0
    gamma: float = 0.5
    maze_files: str = ""      # comma-separated paths for gridworld
    beta: float = 1.0
    eval_batch_size: int = 200
    compute_constants: bool = False


_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def _coerce(name, raw, line_no):
    typ = _FIELDS[name].type
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw.strip()
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse {name}={raw!r}") from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse the documented key = value schema; unknown keys are rejected."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = _coerce(key, raw, line_no)
    cfg = ScenarioConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig):
    if cfg.scenario not in ("system_id", "gridworld"):
        raise ConfigError(f"scenario must be system_id or gridworld, got {cfg.scenario!r}")
    if cfg.n_agents < 1:
        raise ConfigError("N must be >= 1")
    if cfg.dim < 1:
        raise ConfigError("dim must be >= 1")
    if cfg.horizon < 0:
        raise ConfigError("horizon must be >= 0")
    if cfg.stride < 1:
        raise ConfigError("stride must be >= 1")
    if cfg.step_kind not in ("constant", "diminishing"):
        raise ConfigError("step_kind must be constant or diminishing")
    for name in ("step_eps", "noise_clip", "gamma", "beta"):
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if cfg.step_eps <= 0:
        raise ConfigError("step_eps must be positive")
    if cfg.noise_clip <= 0:
        raise ConfigError("noise_clip must be positive")
    if cfg.beta <= 0:
        # tau(eps) <= beta log(1/eps) bounds a mixing time only for beta > 0
        raise ConfigError("beta must be positive")
    if not (0.0 < cfg.gamma < 1.0):
        raise ConfigError("gamma must lie in (0,1)")
    if cfg.period_b < 1:
        raise ConfigError("period_b must be >= 1")
    if cfg.eval_batch_size < 1:
        raise ConfigError("eval_batch_size must be >= 1")
    if cfg.scenario == "gridworld" and not cfg.maze_files.strip():
        raise ConfigError("gridworld scenario requires maze_files")
    # topology strings must parse
    parse_topology(cfg.topology, cfg.n_agents)
    for frame in frame_specs(cfg):
        parse_topology(frame, cfg.n_agents)


def frame_specs(cfg: ScenarioConfig):
    return [f.strip() for f in cfg.frames.split(";") if f.strip()]


def maze_paths(cfg: ScenarioConfig):
    return [p.strip() for p in cfg.maze_files.split(",") if p.strip()]


def config_to_text(cfg: ScenarioConfig) -> str:
    lines = []
    for f in dataclasses.fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def parse_topology(spec: str, n_agents: int) -> Graph:
    """topology = line | ring | complete | star | edges:[[i,j],...]"""
    spec = spec.strip()
    builders = {"line": line_graph, "ring": ring_graph,
                "complete": complete_graph, "star": star_graph}
    if spec in builders:
        return builders[spec](n_agents)
    if spec.startswith("edges:"):
        try:
            pairs = json.loads(spec[len("edges:"):])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad edge list in topology {spec!r}: {exc}") from None
        try:
            return Graph(n_agents, frozenset((int(i), int(j)) for i, j in pairs))
        except (GraphError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad topology {spec!r}: {exc}") from None
    raise ConfigError(f"unknown topology {spec!r}")
