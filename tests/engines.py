"""Hand-built engines for the tests: agents written as a snapshot lists them, restored by ``Engine.from_snapshot``."""

from cooptile.agents import EngineConfig
from cooptile.engine import Engine
from cooptile.geometry import Bounds
from cooptile.linear import LinearModelConfig, ModelKind

PA1 = LinearModelConfig(kind=ModelKind.PA_I)


def agent_dict(agent_id: int, lo, up, weights=None, bias=0.0, confidence: float = 0.0) -> dict:
    """One agent as ``Engine.snapshot()`` lists it; its model's weights are zero unless given."""
    return {
        "id": agent_id,
        "region": {"lower": [float(v) for v in lo], "upper": [float(v) for v in up]},
        "confidence": float(confidence),
        "model": {"weights": [0.0] * len(lo) if weights is None else [float(w) for w in weights],
                  "bias": float(bias), "step_count": 0},
    }


def constant_agent(agent_id: int, lo, up, proposes: int, confidence: float = 0.0) -> dict:
    """Agent whose model always proposes the same class."""
    return agent_dict(agent_id, lo, up, bias=1.0 if proposes == 1 else -1.0, confidence=confidence)


def engine_with(*agents: dict, next_agent_id: int | None = None, dim: int | None = None, **cfg) -> Engine:
    """An engine of PA-I agents restored from a snapshot holding exactly ``agents``, of their dimension (``dim``
    when there are none), its config ``EngineConfig(**cfg)`` with ``resize_factor`` 0 unless given."""
    cfg.setdefault("resize_factor", 0.0)
    return Engine.from_snapshot({
        "config": EngineConfig(**cfg).to_dict(),
        "model_config": PA1.to_dict(),
        "dim": len(agents[0]["region"]["lower"]) if dim is None else dim,
        "cycle": 0,
        "next_agent_id": max((a["id"] for a in agents), default=-1) + 1 if next_agent_id is None else next_agent_id,
        "agents": list(agents),
    })


def row_box(engine: Engine, row: int) -> Bounds:
    """The box of the agent in population row ``row``."""
    return engine.agents.lower[row], engine.agents.upper[row]
