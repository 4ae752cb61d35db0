"""Backend selection from measured workload statistics.

The paper's message (§1.3) is that the right structure depends on the
column: low-cardinality attributes want bitmap variants, high-entropy
attributes want the entropy-bounded Theorem-2 structure, and update
patterns dictate the static/semidynamic/fully-dynamic axis.  The
advisor makes that choice explicit:

* :class:`WorkloadStats` measures a column (length, cardinality,
  ``H0`` via :mod:`repro.model.entropy`, update pattern, expected
  selectivity);
* :class:`CostModel` turns a registered backend's declared estimators
  into one comparable score — every weight is a constructor argument,
  so callers can re-balance space against query traffic or pin the
  block size.  Approximate (Theorem 3) backends are *scored*, not just
  filter-relaxed: their declared false-positive rate is charged as
  base-data verification traffic (§1.1's "false positives can be
  filtered away when accessing the associated data" is not free);
* :meth:`CostModel.from_reports` calibrates per-family weights from
  recorded benchmark reports (``benchmarks/results/*.json``), so the
  coarse analytic estimators can be corrected by measurement;
* :class:`Advisor` filters the registry by hard requirements (dynamism,
  deletions, exactness) and returns the cheapest backend, with a
  ranked table available from :meth:`Advisor.explain`.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from ..errors import InvalidParameterError
from ..model.entropy import h0 as _h0
from . import registry
from .registry import IndexSpec

#: Environment escape hatch for the default calibration: set to
#: ``off``/``0``/``none`` to force the analytic model, or to a path to
#: load a different weights file.
CALIBRATION_ENV = "REPRO_CALIBRATION"

#: The checked-in calibration (E11e's measured per-family weights,
#: shipped as package data) that ``CostModel()`` loads by default.
PACKAGED_WEIGHTS_PATH = os.path.join(
    os.path.dirname(__file__), "data", "e11_family_weights.json"
)


def _parse_weights_file(path: str) -> tuple[tuple[str, float], ...]:
    """Read a compact ``{"family_weights": {...}}`` artifact."""
    with open(path) as f:
        data = json.load(f)
    raw = data.get("family_weights") if isinstance(data, dict) else None
    if not isinstance(raw, dict) or not raw:
        raise InvalidParameterError(
            f"{path}: family_weights must be a non-empty mapping"
        )
    weights = []
    for family, weight in raw.items():
        weight = float(weight)
        if not weight > 0:
            raise InvalidParameterError(
                f"{path}: family {family!r} has non-positive "
                f"weight {weight}"
            )
        weights.append((str(family), weight))
    return tuple(sorted(weights))


#: Parsed calibration files by absolute path.  Default construction
#: happens once per engine/shard/worker replica; the packaged file is
#: immutable in a running process, so one parse serves them all
#: (:meth:`CostModel.load_calibrated` still reads fresh — it is the
#: explicit I/O verb).
_WEIGHTS_CACHE: dict[str, tuple[tuple[str, float], ...]] = {}


def _cached_weights(path: str) -> tuple[tuple[str, float], ...]:
    resolved = os.path.abspath(path)
    if resolved not in _WEIGHTS_CACHE:
        _WEIGHTS_CACHE[resolved] = _parse_weights_file(resolved)
    return _WEIGHTS_CACHE[resolved]


@dataclass(frozen=True)
class WorkloadStats:
    """What the advisor knows about one column's workload."""

    n: int
    sigma: int
    h0: float
    dynamism: str = "static"
    expected_selectivity: float = 0.1
    require_exact: bool = True
    require_delete: bool = False

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidParameterError("n must be >= 0")
        if self.sigma <= 0:
            raise InvalidParameterError("sigma must be >= 1")
        if not 0.0 < self.expected_selectivity <= 1.0:
            raise InvalidParameterError(
                "expected_selectivity must be in (0, 1]"
            )
        if self.dynamism not in registry.DYNAMISM_LEVELS:
            raise InvalidParameterError(
                f"dynamism must be one of {registry.DYNAMISM_LEVELS}, "
                f"got {self.dynamism!r}"
            )

    @property
    def expected_z(self) -> int:
        """Expected answer cardinality for one range query."""
        return max(1, round(self.expected_selectivity * self.n))

    @classmethod
    def measure(
        cls,
        codes: Sequence[int],
        sigma: int | None = None,
        **overrides,
    ) -> "WorkloadStats":
        """Measure a column of dense codes.

        ``sigma`` defaults to ``max(codes) + 1`` (the dense-alphabet
        convention); keyword overrides pass through to the constructor.
        """
        if sigma is None:
            sigma = (max(codes) + 1) if len(codes) else 1
        return cls(n=len(codes), sigma=sigma, h0=_h0(codes), **overrides)

    def with_(self, **overrides) -> "WorkloadStats":
        """A copy with some fields replaced."""
        return replace(self, **overrides)


def _parse_report_number(cell: object) -> float:
    """A table cell back into a number (``fmt`` adds thousands commas)."""
    if isinstance(cell, (int, float)):
        return float(cell)
    return float(str(cell).replace(",", ""))


@dataclass(frozen=True)
class CostModel:
    """Weights turning a :class:`~repro.engine.registry.CostProfile`
    into one score.

    ``score = family_weight * (space_weight * space_bits
            + queries_per_build * (query_cost(expected_z) + fp_bits))``

    with every term in bits; ``queries_per_build`` is how many range
    queries the column is expected to serve per (re)build — raise it
    for hot read paths, lower it for archival columns.

    ``fp_bits`` charges approximate (Theorem 3) backends for their
    false positives: each of the expected ``eps * (n - z)`` spurious
    candidates costs ``fp_verify_bits`` of base-data access to filter
    out.  Exact backends pay nothing, so with ``require_exact=False``
    the advisor weighs cheaper approximate reads against the
    verification traffic instead of treating both answer kinds as
    equals.

    ``family_weights`` are measured correction factors per backend
    family (see :meth:`from_reports`); families absent from the table
    keep weight 1.0.  The model is a frozen dataclass: pass a
    replacement to :class:`Advisor` (or ``QueryEngine``) to override
    the economics globally.

    **The calibrated model is the default.**  A plain ``CostModel()``
    loads the checked-in measured weights (E11e's
    ``e11_family_weights.json``, shipped as package data) so every
    advisor ranks under measured economics out of the box.  Escape
    hatches: ``CostModel(calibration=None)`` is the pure analytic
    model, ``CostModel(calibration=path)`` loads a specific weights
    file, and the ``REPRO_CALIBRATION`` environment variable overrides
    the ``"auto"`` default process-wide (``off``/``0``/``none`` to
    disable, or a path).  Explicit ``family_weights`` always win over
    any calibration source.
    """

    space_weight: float = 1.0
    queries_per_build: float = 64.0
    block_bits: int = 1024
    fp_verify_bits: float = 512.0
    family_weights: tuple[tuple[str, float], ...] = ()
    calibration: str | None = "auto"

    def __post_init__(self) -> None:
        if self.family_weights:
            return  # explicit weights always govern
        path = self._calibration_path()
        if path is not None:
            object.__setattr__(
                self, "family_weights", _cached_weights(path)
            )

    def _calibration_path(self) -> str | None:
        source = self.calibration
        if source is None:
            return None
        if source == "auto":
            env = os.environ.get(CALIBRATION_ENV)
            if env is not None:
                if env.strip().lower() in ("", "off", "0", "none"):
                    return None
                return env  # an explicit env path must exist: loud I/O
            return (
                PACKAGED_WEIGHTS_PATH
                if os.path.exists(PACKAGED_WEIGHTS_PATH)
                else None
            )
        return source  # an explicit kwarg path must exist: loud I/O

    def family_weight(self, family: str) -> float:
        """The measured correction factor for one family (1.0 default)."""
        for name, weight in self.family_weights:
            if name == family:
                return weight
        return 1.0

    def score(self, spec: IndexSpec, stats: WorkloadStats) -> float:
        space = spec.cost.space_bits(stats.n, stats.sigma, stats.h0)
        query = spec.cost.query_cost(
            stats.n, stats.sigma, stats.h0, stats.expected_z
        )
        if not spec.exact:
            expected_fp = spec.cost.false_positive_rate * max(
                stats.n - stats.expected_z, 0
            )
            query += expected_fp * self.fp_verify_bits
        raw = self.space_weight * space + self.queries_per_build * query
        return self.family_weight(spec.family) * raw

    @classmethod
    def from_reports(
        cls,
        paths: Iterable[str],
        base: "CostModel | None" = None,
        **overrides,
    ) -> "CostModel":
        """Fit per-family weights from recorded benchmark reports.

        Scans each report JSON (the :class:`repro.bench.Report` format)
        for *calibration tables*: tables whose headers contain
        ``backend``, ``family``, ``est_bits`` and ``measured_bits``
        columns (``benchmarks/bench_e11_engine.py`` emits one per run).
        The weight of a family is the *median* of its backends'
        measured/estimated ratios — a single backend with a
        pathological estimator must not drag down the correction
        applied to its accurate siblings — so families whose analytic
        estimators flatter them get proportionally penalized the next
        time the advisor ranks them.

        ``base`` supplies the remaining weights (a default model when
        omitted); keyword overrides pass through to :func:`replace`.
        """
        ratios_by_family: dict[str, list[float]] = {}
        for path in paths:
            with open(path) as f:
                data = json.load(f)
            for entry in data.get("entries", []):
                if entry.get("kind") != "table":
                    continue
                headers = [str(h).strip().lower() for h in entry["headers"]]
                needed = ("backend", "family", "est_bits", "measured_bits")
                if not all(col in headers for col in needed):
                    continue
                fam_i = headers.index("family")
                est_i = headers.index("est_bits")
                meas_i = headers.index("measured_bits")
                for row in entry["rows"]:
                    family = str(row[fam_i])
                    est = _parse_report_number(row[est_i])
                    measured = _parse_report_number(row[meas_i])
                    if est <= 0 or measured <= 0:
                        continue
                    ratios_by_family.setdefault(family, []).append(
                        measured / est
                    )
        weights = tuple(
            sorted(
                (family, statistics.median(ratios))
                for family, ratios in ratios_by_family.items()
            )
        )
        model = base if base is not None else cls()
        return replace(model, family_weights=weights, **overrides)

    @classmethod
    def load_calibrated(
        cls,
        path: str,
        base: "CostModel | None" = None,
        **overrides,
    ) -> "CostModel":
        """Load measured per-family weights back into a model.

        The feedback half of the calibration loop: E11e
        (``benchmarks/bench_e11_engine.py``) emits both a full report
        (parsed by :meth:`from_reports`) and a compact weights file
        ``{"family_weights": {family: weight, ...}}`` — this accepts
        either, so a deployment can hand ``Table`` (or ``Table.sharded``)
        a ``CostModel.load_calibrated(path)`` and serve under measured
        economics instead of the analytic defaults.
        """
        with open(path) as f:
            data = json.load(f)
        if isinstance(data, dict) and "family_weights" in data:
            model = base if base is not None else cls()
            return replace(
                model,
                family_weights=_parse_weights_file(path),
                **overrides,
            )
        return cls.from_reports([path], base=base, **overrides)


class Advisor:
    """Ranks registered backends for a workload and picks the cheapest."""

    def __init__(
        self,
        cost_model: CostModel | None = None,
        candidates: Sequence[IndexSpec] | None = None,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self._candidates = (
            tuple(candidates) if candidates is not None else None
        )

    def _pool(self) -> tuple[IndexSpec, ...]:
        if self._candidates is not None:
            return self._candidates
        return registry.all_specs()

    def rank(self, stats: WorkloadStats) -> list[tuple[IndexSpec, float]]:
        """Eligible backends with scores, cheapest first."""
        scored = [
            (spec, self.cost_model.score(spec, stats))
            for spec in self._pool()
            if spec.serves(stats.dynamism, stats.require_delete)
            and (spec.exact or not stats.require_exact)
        ]
        scored.sort(key=lambda pair: (pair[1], pair[0].name))
        return scored

    def pick(self, stats: WorkloadStats) -> IndexSpec:
        """The cheapest eligible backend for this workload."""
        ranked = self.rank(stats)
        if not ranked:
            raise InvalidParameterError(
                f"no registered index serves dynamism={stats.dynamism!r} "
                f"require_delete={stats.require_delete} "
                f"require_exact={stats.require_exact}"
            )
        return ranked[0][0]

    def explain(self, stats: WorkloadStats) -> str:
        """A human-readable ranking for this workload."""
        lines = [
            f"workload: n={stats.n} sigma={stats.sigma} "
            f"H0={stats.h0:.3f} dynamism={stats.dynamism} "
            f"sel={stats.expected_selectivity:g} "
            f"(expected z={stats.expected_z})"
        ]
        ranked = self.rank(stats)
        for rank, (spec, score) in enumerate(ranked, start=1):
            marker = "->" if rank == 1 else "  "
            lines.append(
                f"{marker} #{rank} {spec.name} [{spec.family}] "
                f"score={score:,.0f}  space: {spec.cost.space_bound}; "
                f"query: {spec.cost.query_bound}"
            )
        if not ranked:
            lines.append("   (no eligible backend)")
        return "\n".join(lines)
