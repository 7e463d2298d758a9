"""Declarative sweep specifications.

A :class:`SweepSpec` describes a whole scenario matrix — protocols × seeds ×
platform specs × knob combinations over one target set — without constructing
any campaign object.  Everything in it is a plain picklable dataclass, so the
expanded :class:`RunSpec` list can be shipped to worker processes which
build targets and campaigns locally (cheaper and more deterministic than
pickling landscapes and surrogate models across process boundaries).

A target set is built once per process: :meth:`TargetSpec.build` memoises
its :class:`~repro.protein.datasets.DesignTarget` objects by spec, and every
run over that spec shares them.  Sharing is safe because targets are
read-only at the source (frozen dataclasses, read-only coordinate and
landscape arrays) and a build draws only from its own target seed streams.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.campaign import CampaignConfig
from repro.core.protocols import available_protocols
from repro.exceptions import CampaignError
from repro.hpc.resources import PlatformSpec
from repro.protein.alphabet import AA_TO_INDEX
from repro.protein.datasets import (
    ALPHA_SYNUCLEIN_C4,
    ALPHA_SYNUCLEIN_C10,
    DesignTarget,
    expanded_pdz_set,
    named_pdz_targets,
)

__all__ = ["TargetSpec", "RunSpec", "SweepSpec"]

#: Target-set kinds understood by :meth:`TargetSpec.build`.
TARGET_KINDS = ("named-pdz", "expanded-pdz")

#: CampaignConfig fields a sweep may not override directly (they are swept
#: axes or would break run identity).
_RESERVED_OVERRIDES = ("protocol", "seed", "platform_spec")

#: Distinct target sets memoised per process.  A sweep shares one
#: :class:`TargetSpec`, so a few entries cover every run a process executes.
_TARGET_CACHE_SIZE = 8


@dataclass(frozen=True)
class TargetSpec:
    """Declarative description of a design-target set.

    Attributes
    ----------
    kind:
        ``"named-pdz"`` (the four named PDZ domains of Table I / Fig 2) or
        ``"expanded-pdz"`` (the Fig 3 expanded set).
    seed:
        Dataset seed (independent of the campaign seed).
    n_targets:
        Size of the expanded set (ignored for ``"named-pdz"``).
    peptide:
        Peptide residues (canonical one-letter codes, non-empty); ``None``
        means the paper's choice for the kind.
    """

    kind: str = "named-pdz"
    seed: int = 0
    n_targets: int = 70
    peptide: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise CampaignError(
                f"target kind must be one of {list(TARGET_KINDS)}, got {self.kind!r}"
            )
        if self.n_targets < 1:
            raise CampaignError("n_targets must be >= 1")
        if self.peptide is not None:
            if not self.peptide:
                raise CampaignError("peptide must have at least one residue")
            invalid = sorted(set(self.peptide) - set(AA_TO_INDEX))
            if invalid:
                raise CampaignError(f"peptide has non-canonical residues {invalid}")

    def build(self) -> List[DesignTarget]:
        """The target set (deterministic in the spec), built once per process.

        Returns a new list on every call; the :class:`DesignTarget` objects
        in it are shared, read-only, by every caller with an equal spec.
        """
        return list(_build_targets(self))


@functools.lru_cache(maxsize=_TARGET_CACHE_SIZE)
def _build_targets(spec: TargetSpec) -> Tuple[DesignTarget, ...]:
    # Concurrent misses (threaded workers) may both build; the build is
    # deterministic, so whichever result the cache keeps is the same.
    if spec.kind == "named-pdz":
        targets = named_pdz_targets(
            seed=spec.seed, peptide_residues=spec.peptide or ALPHA_SYNUCLEIN_C10
        )
    else:
        targets = expanded_pdz_set(
            n_targets=spec.n_targets,
            seed=spec.seed,
            peptide_residues=spec.peptide or ALPHA_SYNUCLEIN_C4,
        )
    return tuple(targets)


@dataclass(frozen=True)
class RunSpec:
    """One fully resolved campaign run inside a sweep.

    ``overrides`` is a sorted tuple of ``(field, value)`` pairs applied on top
    of :class:`CampaignConfig` defaults, keeping the spec hashable-free but
    frozen and picklable.
    """

    run_id: str
    protocol: str
    seed: int
    targets: TargetSpec = field(default_factory=TargetSpec)
    overrides: Tuple[Tuple[str, object], ...] = ()

    def campaign_config(self) -> CampaignConfig:
        """Build the campaign configuration for this run."""
        return CampaignConfig(
            protocol=self.protocol, seed=self.seed, **dict(self.overrides)
        )

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "protocol": self.protocol,
            "seed": self.seed,
            "targets": dataclasses.asdict(self.targets),
            "overrides": {key: repr(value) for key, value in self.overrides},
        }


def _validate_overrides(overrides: Mapping[str, object], where: str) -> None:
    valid = {f.name for f in dataclasses.fields(CampaignConfig)}
    for key in overrides:
        if key in _RESERVED_OVERRIDES:
            raise CampaignError(
                f"{where} may not override {key!r}; use the sweep axis instead"
            )
        if key not in valid:
            raise CampaignError(
                f"{where} contains unknown CampaignConfig field {key!r}; "
                f"valid fields: {sorted(valid - set(_RESERVED_OVERRIDES))}"
            )


@dataclass(frozen=True)
class SweepSpec:
    """A scenario matrix: protocols × seeds × platform specs × knobs.

    Attributes
    ----------
    protocols:
        Registered protocol names to sweep.
    seeds:
        Campaign root seeds to sweep.
    targets:
        The (shared) target set every run designs against.
    platform_specs:
        Platforms to sweep; ``None`` entries mean the campaign default
        (one Amarel-like node).
    knobs:
        Knob combinations (CampaignConfig field overrides) to sweep — e.g.
        ``({"max_in_flight_pipelines": 1}, {"max_in_flight_pipelines": 4})``
        for a concurrency-cap ablation.  ``({},)`` sweeps nothing.
    base:
        Overrides applied to *every* run (e.g. smaller ``n_cycles``).
    """

    protocols: Tuple[str, ...] = ("im-rp", "cont-v")
    seeds: Tuple[int, ...] = (0,)
    targets: TargetSpec = field(default_factory=TargetSpec)
    platform_specs: Tuple[Optional[PlatformSpec], ...] = (None,)
    knobs: Tuple[Dict[str, object], ...] = ({},)
    base: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.protocols or not self.seeds:
            raise CampaignError("a sweep needs at least one protocol and one seed")
        if not self.platform_specs or not self.knobs:
            raise CampaignError(
                "platform_specs and knobs must each have at least one entry "
                "(use (None,) / ({},) for the defaults)"
            )
        registered = set(available_protocols())
        unknown = [name for name in self.protocols if name not in registered]
        if unknown:
            raise CampaignError(
                f"unknown protocols in sweep: {unknown}; "
                f"available: {sorted(registered)}"
            )
        if len(set(self.protocols)) != len(self.protocols):
            raise CampaignError("sweep protocols must be unique")
        if len(set(self.seeds)) != len(self.seeds):
            raise CampaignError("sweep seeds must be unique")
        _validate_overrides(self.base, "SweepSpec.base")
        for index, knob in enumerate(self.knobs):
            _validate_overrides(knob, f"SweepSpec.knobs[{index}]")

    @property
    def n_runs(self) -> int:
        return (
            len(self.protocols)
            * len(self.seeds)
            * len(self.platform_specs)
            * len(self.knobs)
        )

    def expand(self) -> List[RunSpec]:
        """The full cartesian product as an ordered list of :class:`RunSpec`.

        Run ids are stable and human-readable
        (``<protocol>-s<seed>[-p<i>][-k<i>]``); the platform/knob suffixes
        appear only when that axis actually varies.
        """
        many_platforms = len(self.platform_specs) > 1
        many_knobs = len(self.knobs) > 1
        runs: List[RunSpec] = []
        for protocol in self.protocols:
            for seed in self.seeds:
                for p_index, platform_spec in enumerate(self.platform_specs):
                    for k_index, knob in enumerate(self.knobs):
                        overrides = dict(self.base)
                        overrides.update(knob)
                        if platform_spec is not None:
                            overrides["platform_spec"] = platform_spec
                        run_id = f"{protocol}-s{seed}"
                        if many_platforms:
                            run_id += f"-p{p_index}"
                        if many_knobs:
                            run_id += f"-k{k_index}"
                        runs.append(
                            RunSpec(
                                run_id=run_id,
                                protocol=protocol,
                                seed=seed,
                                targets=self.targets,
                                overrides=tuple(sorted(overrides.items())),
                            )
                        )
        return runs
