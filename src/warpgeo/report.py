"""Run configuration, check records and report serialization.

Field names of the JSON report are a public contract (see README). Reports
serialize deterministically: fixed check order, sorted keys, repr floats.
They are strict JSON: a non-finite ``max_residual`` (a failed sample) is
written as ``null``, and read back as ``inf``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigurationError
from .fd import SCHEMES, DiffEngine


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every verification run."""

    scheme: str = "central2"
    fd_step: float = 1e-5
    seed: int = 42
    samples: int = 25
    tolerance_scale: float = 1.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        # NaN fails every comparison, so "<= 0" alone lets it through
        if not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ConfigurationError(f"fd_step must be positive and finite, got {self.fd_step}")
        if self.fd_step < DiffEngine.min_step:
            raise ConfigurationError(
                f"fd_step {self.fd_step} is below the engine's min_step {DiffEngine.min_step}"
            )
        for name, least in (("seed", 0), ("samples", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (math.isfinite(self.tolerance_scale) and self.tolerance_scale > 0):
            raise ConfigurationError(
                f"tolerance_scale must be positive and finite, got {self.tolerance_scale}"
            )

    def engine(self) -> DiffEngine:
        return DiffEngine(scheme=self.scheme, step=self.fd_step)

    def tolerance(self, key: str) -> float:
        """``TOLERANCES[key]`` times ``tolerance_scale``."""
        return TOLERANCES[key] * self.tolerance_scale

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        return RunConfig(**d)


@dataclass
class CheckRecord:
    """One verified identity (or expected failure) of one scenario.

    max_residual is the maximum over samples of ||LHS - RHS|| / scale, where
    scale = 1 + the largest absolute value entering the identity at that
    sample. ``passed`` already accounts for ``expected_fail``: an
    expected-fail check passes exactly when the underlying comparison fails.
    Informational checks never affect the overall verdict.
    """

    check_id: str
    n_samples: int
    max_residual: float
    tolerance: float
    passed: bool
    expected_fail: bool = False
    informational: bool = False
    notes: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        if not np.isfinite(self.max_residual):
            d["max_residual"] = None
        return d

    @staticmethod
    def from_dict(d: dict) -> "CheckRecord":
        if d["max_residual"] is None:
            d = {**d, "max_residual": np.inf}
        return CheckRecord(**d)


NON_FINITE_NOTE = "non-finite max_residual, written as null"


def residual_scale(*arrays) -> float:
    """1 + the largest absolute entry of the arrays: the scale of a residual;
    NaN when any entry is NaN."""
    tops = [float(np.abs(a).max()) if np.size(a) else 0.0 for a in arrays]
    return 1.0 + (math.nan if any(map(math.isnan, tops)) else max(tops))


def residual_scales(*stacks) -> np.ndarray:
    """``residual_scale`` at each point of stacks whose first axis runs over
    the points, as one array."""
    tops = [np.abs(s).max(axis=tuple(range(1, np.ndim(s))), initial=0.0) for s in stacks]
    return 1.0 + np.max(tops, axis=0)


def residual_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v)`` of each row v of a stack of vectors, bit for bit:
    row . row as one stacked (1 x n)(n x 1) ``matmul``, whose product is the
    dot of ``norm``'s own call; ``norm(x, axis=-1)`` sums in another order.
    A square that overflows is inf, with numpy's overflow warning, as in
    ``norm``."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


# The base tolerance of every gate the catalog reads, before
# ``RunConfig.tolerance_scale``; exact checks are gated at 0.0. A key
# "<check id>/<qualifier>" is a variant of that check's tolerance. A check
# that its verifier gates with another check's tolerance argument has no
# entry of its own: its suite declares that check's entry as its gate.
TOLERANCES: dict[str, float] = {
    "fd-consistency": 1e-5,
    "metric-blocks": 0.0,
    "warped-conn-first-pair": 1e-6,
    "leaf-totally-geodesic": 1e-8,
    "fiber-umbilical": 1e-6,
    "jacobian-blocks": 0.0,
    "kernel-product": 0.0,
    "dilation-compatibility": 1e-10,
    "compatibility-vs-dilation": 1e-6,
    "split-decomposition": 1e-8,
    "conformality": 1e-6,
    # the analytic exp-spiral-r4 Jacobian is exact, so its anisotropy is gated tighter
    "conformality/exp-spiral-r4": 1e-8,
    # never scaled: the pointwise verdict of compatibility() and conformal_a_formula
    "conformality/threshold": 1e-6,
    "dilation-value": 1e-8,
    "fd-conformality": 1e-6,
    "fd-dilation-value": 1e-6,
    "t-umbilical": 1e-6,
    "a-vs-bracket-formula": 1e-5,
    "product-a-first-factor": 1e-5,
    "product-a-second-factor": 1e-5,
    "riemannian-reduction": 1e-8,
    "rescale-to-riemannian": 1e-8,
    "fiber-minimality-first": 1e-6,
    "torsion-free": 1e-6,
    "metric-compatibility": 1e-5,
}
# the probe must find its perturbation 100x above the rescaling's own gate
TOLERANCES["rescale-uniqueness-probe"] = 100.0 * TOLERANCES["rescale-to-riemannian"]


class ResidualCheck:
    """Accumulates per-sample scaled residuals for one check id."""

    def __init__(self, check_id: str, tolerance: float, expected_fail: bool = False,
                 informational: bool = False):
        self.check_id = check_id
        self.tolerance = tolerance
        self.expected_fail = expected_fail
        self.informational = informational
        self.residuals: list[float] = []
        self.notes: list[str] = []

    def add(self, residual: float, scale: float = 1.0) -> None:
        """Records residual / scale. A residual is a size and a scale a
        positive size: a negative residual or a scale that is not positive
        would pass as a small residual, so either raises ConfigurationError.
        A NaN passes through, and so does a failed sample's inf."""
        residual, scale = float(residual), float(scale)
        if residual < 0.0 or scale <= 0.0:
            raise ConfigurationError(
                f"check {self.check_id!r}: residual {residual!r} must be >= 0 and "
                f"scale {scale!r} > 0"
            )
        self.residuals.append(residual / scale)

    def note(self, text: str) -> None:
        if text and text not in self.notes:
            self.notes.append(text)

    @property
    def max_residual(self) -> float:
        """The largest residual, or NaN when any residual is NaN."""
        return float(np.max(self.residuals)) if self.residuals else 0.0

    def record(self) -> CheckRecord:
        """The check's record. A non-finite residual (NaN, or the inf of a
        failed sample) compared nothing, so it fails the check, also one
        that is expected to fail."""
        worst = self.max_residual
        raw_pass = worst <= self.tolerance
        passed = (not raw_pass) if self.expected_fail else raw_pass
        passed = passed and bool(np.isfinite(worst))
        notes = self.notes + ([] if np.isfinite(worst) else [NON_FINITE_NOTE])
        return CheckRecord(
            check_id=self.check_id,
            n_samples=len(self.residuals),
            max_residual=worst,
            tolerance=self.tolerance,
            passed=passed,
            expected_fail=self.expected_fail,
            informational=self.informational,
            notes="; ".join(notes),
        )


@dataclass
class VerificationReport:
    """All check records of one scenario run, plus the config echo."""

    scenario: str
    description: str
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "description": self.description,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
        }

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        report = VerificationReport(
            scenario=d["scenario"],
            description=d["description"],
            config=dict(d["config"]),
            checks=[CheckRecord.from_dict(c) for c in d["checks"]],
        )
        if report.overall_pass != d.get("overall_pass", report.overall_pass):
            raise ConfigurationError("inconsistent overall_pass in serialized report")
        return report

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        return VerificationReport.from_dict(json.loads(text))

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}", f"  {self.description}"]
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
        lines.append(f"  config: {cfg}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            tag = ""
            if c.expected_fail:
                tag = " [expected-fail]"
            elif c.informational:
                tag = " [info]"
            lines.append(
                f"  {status}{tag} {c.check_id}: max_residual={c.max_residual:.3e} "
                f"tol={c.tolerance:.1e} n={c.n_samples}"
                + (f" ({c.notes})" if c.notes else "")
            )
        lines.append(f"  overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)


def reports_to_json(reports: list[VerificationReport], config: RunConfig) -> str:
    doc = {
        "config": config.to_dict(),
        "reports": [r.to_dict() for r in reports],
        "overall_pass": all(r.overall_pass for r in reports),
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def reports_to_text(reports: list[VerificationReport]) -> str:
    body = "\n\n".join(r.to_text() for r in reports)
    verdict = all(r.overall_pass for r in reports)
    return body + f"\n\noverall: {'PASS' if verdict else 'FAIL'}\n"
