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

#: every key a config may set, with its default (``None`` for no default)
DEFAULTS = {
    "game.builtin": None,
    "game.seed": "0",
    "game.file": None,
    "graph.builtin": None,
    "graph.edges": None,
    "algorithm": None,
    "params.r": "10.0",
    "params.h": "0.5",
    "params.w": "0.5",
    "params.rho": "1.1",
    "params.preset": None,
    "params.seed": "0",
    "params.mu": "inverse-square",
    "params.mu0": "1.0",
    "inner.mode": "residual",
    "stop.max_iter": "10000",
    "stop.tol": "1e-6",
    "output.dir": "out",
    "run.seed": "0",
}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def get(self, key: str) -> str | None:
        value = self.values.get(key)
        if value is None or value == "":
            value = DEFAULTS.get(key)
        return value

    def get_float(self, key: str) -> float:
        return self._typed(key, float, "a number")

    def get_int(self, key: str) -> int:
        return self._typed(key, int, "an integer")

    def _typed(self, key: str, kind, name: str):
        raw = self.get(key)
        try:
            return kind(raw)
        except (TypeError, ValueError) as exc:   # TypeError: no value
            raise ConfigError(f"{key}: not {name}: {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value': {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return ExperimentConfig(values)


def read_text(path, what: str) -> str:
    """The text of UTF-8 file ``path``; `ConfigError` naming it otherwise."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return parse_config_text(read_text(path, "config file"))


def parse_edge_list(text: str, n_nodes: int) -> list[tuple[int, int]]:
    """Edge list syntax: 1-based pairs like ``1-2, 2-3, 3-1`` of nodes
    ``1..n_nodes``; returns the 0-based pairs."""
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
        if not (1 <= i <= n_nodes and 1 <= j <= n_nodes):
            raise ConfigError(f"edge {chunk!r} names a node outside 1..{n_nodes}")
        pairs.append((i - 1, j - 1))
    if not pairs:
        raise ConfigError("empty edge list")
    return pairs
