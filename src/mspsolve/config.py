"""Tunable constants for sketch sizing and iteration budgets.

Every constant here is an engineering default behind an asymptotic sizing rule;
all of them can be overridden from a key=value config file (see `Tunables.override`
and the CLI's --config flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import DomainError


@dataclass(frozen=True)
class Tunables:
    """Sketch/budget constants, overridable per run."""

    # general-path sparse-embedding sizing:
    # s = min(n, ceil(sketch_row_factor * l * ln(max(l/delta, e)))).  There S
    # must stay a subspace embedding: acceptance criterion 06 (the whitened
    # pencil) passes 1/30 trials at 0.5 and 19/30 at 1.0.  The PSD path
    # sizes its own sketch (nystrom._PSD_ROW_FACTOR).
    sketch_row_factor: float = 1.5
    # nonzeros per column: clamp(ceil(ln(max(l/delta, e))), gamma_min, gamma_max)
    gamma_min: int = 2
    gamma_max: int = 8
    # subspace-embedding sizing: phi = min(n, ceil(ose_c_phi * (d + ln(1/delta)) / eps^2));
    # sizes the general path's Phi and the least-squares row sketch
    ose_c_phi: float = 4.0
    ose_epsilon: float = 0.5
    # outer Lanczos budget multiplier: t_max = ceil(t_factor * sqrt(k) * ln(k/eps))
    t_factor: float = 4.0
    # inner (level-2 / level-3) budget multiplier on the log term
    inner_budget_factor: float = 4.0
    # longest gap between true-residual checks in a Lanczos run; a run also
    # checks on each step where its recurrence says the target is met
    check_every: int = 10
    # warmup iterations used to estimate the preconditioned condition number
    warmup_iters: int = 10
    # Ritz-ratio inflation applied to the warmup estimate
    ritz_inflation: float = 2.0
    # Hutchinson probes for the spectral-tail estimate
    lambda0_probes: int = 20
    # core-matrix jitter: start at jitter_initial * tr(W)/s, escalate x10 up to jitter_max
    jitter_initial: float = 1e-12
    jitter_max: float = 1e-6
    # floor under every cascaded inner tolerance (double precision has nothing below this)
    eps_floor: float = 1e-14
    # Lanczos breakdown tolerance scale
    breakdown_rtol: float = 1e-14
    # power-method iterations for norm estimates
    power_iters: int = 30

    def override(self, mapping: dict) -> "Tunables":
        """Return a copy with the given fields replaced; unknown keys are rejected."""
        known = {f.name: f.type for f in fields(self)}
        clean = {}
        for key, value in mapping.items():
            if key not in known:
                raise DomainError(f"unknown tunable {key!r}")
            current = getattr(self, key)
            clean[key] = type(current)(value)
        return replace(self, **clean)

    @classmethod
    def from_file(cls, path) -> "Tunables":
        """Load overrides from a flat key = value file (# comments allowed)."""
        return cls().override(parse_config_file(path))


DEFAULT = Tunables()


def parse_config_file(path) -> dict:
    """Parse a minimal TOML-style flat config: one `key = value` per line."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip().strip("\"'")
    return out


def sketch_rows(l: int, n: int, delta: float, factor: float) -> int:
    """Row count of the sparse embedding for rank parameter l.

    s = min(n, ceil(factor * l * ln(max(l/delta, e)))): the paper's
    s = O(l log l) with the caller's constant.
    """
    grown = factor * l * math.log(max(l / delta, math.e))
    return n if grown >= n else int(math.ceil(grown))


def sketch_nnz_per_column(l: int, delta: float, tun: Tunables) -> int:
    """Nonzeros per embedding column for rank parameter l (clamped small int)."""
    # ln(l) - ln(delta), since l/delta overflows for a subnormal delta.
    raw = math.ceil(max(math.log(l) - math.log(delta), 1.0))
    return max(tun.gamma_min, min(tun.gamma_max, raw))


def ose_rows(n: int, d: int, delta: float, epsilon: float, tun: Tunables) -> int:
    """Row count of the oblivious subspace embedding for subspace dimension d."""
    grown = tun.ose_c_phi * (d - math.log(delta)) / (epsilon * epsilon)
    return min(n, int(math.ceil(grown)))
