"""Experiment configuration: flat dotted-key text files.

One ``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored.  Keys use dotted sections (``game.builtin``, ``stop.tol``); values
are plain text and are typed when interpreted.  The format is deliberately
trivial so configs stay portable and diffable.  See the README for the full
schema and defaults table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

_KNOWN_KEYS = {
    "game.builtin", "game.seed", "game.file",
    "graph.builtin", "graph.edges",
    "algorithm",
    "params.r", "params.h", "params.w", "params.rho",
    "params.preset", "params.seed", "params.mu", "params.mu0",
    "inner.mode", "inner.cap",
    "stop.max_iter", "stop.tol",
    "output.dir", "trace.stride", "run.seed",
}

DEFAULTS = {
    "game.seed": "0",
    "params.r": "10.0",
    "params.h": "0.5",
    "params.w": "0.5",
    "params.rho": "1.1",
    "params.seed": "0",
    "params.mu": "inverse-square",
    "params.mu0": "1.0",
    "inner.mode": "residual",
    "inner.cap": "100000",
    "stop.max_iter": "10000",
    "stop.tol": "1e-6",
    "output.dir": "out",
    "trace.stride": "1",
    "run.seed": "0",
}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def get(self, key: str, default: str | None = None) -> str | None:
        value = self.values.get(key)
        if value is None or value == "":
            value = DEFAULTS.get(key, default)
        return value

    def get_float(self, key: str) -> float:
        raw = self.get(key)
        if raw is None:
            raise ConfigError(f"missing numeric value for {key}")
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number: {raw!r}") from exc

    def get_int(self, key: str) -> int:
        raw = self.get(key)
        if raw is None:
            raise ConfigError(f"missing integer value for {key}")
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value': {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return ExperimentConfig(values)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def parse_edge_list(text: str) -> list[tuple[int, int]]:
    """Edge list syntax: 1-based pairs like ``1-2, 2-3, 3-1``."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("-")
        if len(parts) != 2:
            raise ConfigError(f"bad edge {chunk!r}; expected 'i-j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad edge {chunk!r}") from exc
        pairs.append((i - 1, j - 1))
    if not pairs:
        raise ConfigError("empty edge list")
    return pairs
