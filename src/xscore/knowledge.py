"""What a request may know about the entity space beyond its width:
constraints, samples, and the distributions built from them.

A uniform request needs none of it, so only a constraint, a sample or a
non-uniform distribution loads this module (through `classify`'s
`parse_constraint`, `condition` and `load_sample_csv`, or `mlcli`'s
distribution choice).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import prod
from typing import Iterable, Mapping, Sequence

from ._record import record
from .classify import (
    Distribution,
    DuplicateSampleError,
    Entity,
    FeatureSpace,
    InconsistentConstraintError,
    check_free_width,
    index_bits,
)

# ---------------------------------------------------------------------------
# Constraints


@record
class Constraint:
    """A propositional condition evaluated on a single entity.

    The denial form forbids one combination of feature literals; general
    formulas with negation, conjunction and disjunction are also accepted.
    """

    space: FeatureSpace
    root: formula.Node

    def __post_init__(self):
        # `formula` loads on the constraint path only.  It is bound once per
        # constraint, so no per-entity test runs an import.
        from . import formula
        object.__setattr__(self, "_formula", formula)

    def satisfied_by(self, entity: Entity) -> bool:
        if entity.width != self.space.width:
            raise ValueError("entity width does not match the constraint's feature space")
        return self.holds(entity.index)

    def holds(self, index: int) -> bool:
        """Whether the entity at `index` satisfies the constraint."""
        true_names = frozenset(compress(self.space.names, index_bits(index, self.space.width)))
        return self._formula.evaluate(self.root, true_names)

    def __str__(self) -> str:
        return self._formula.to_text(self.root)


def conjoin(constraints: Sequence[Constraint]) -> Constraint:
    """Conjunction of a non-empty set of constraints over one space."""
    from . import formula
    if not constraints:
        raise ValueError("cannot conjoin zero constraints")
    space = constraints[0].space
    if any(c.space != space for c in constraints):
        raise ValueError("constraints range over different feature spaces")
    if len(constraints) == 1:
        return constraints[0]
    return Constraint(space=space, root=formula.And(tuple(c.root for c in constraints)))


# ---------------------------------------------------------------------------
# Distributions other than the uniform one


class EmpiricalDistribution(Distribution):
    """Weight 1 on each entity of a duplicate-free sample, 0 elsewhere."""

    def __init__(self, space: FeatureSpace, sample: Iterable[Entity]):
        entities = tuple(sample)
        super().__init__(space, len(entities))
        if not entities:
            raise ValueError("an empirical distribution needs a non-empty sample")
        if len(frozenset(entities)) != len(entities):
            raise DuplicateSampleError("sample contains duplicate entities")
        for e in entities:
            self._check(e)
        self.sample = entities
        self.support = tuple(e.index for e in entities)
        self._members = frozenset(self.support)

    def weight(self, index: int) -> int:
        return int(index in self._members)


class ProductDistribution(Distribution):
    """Independent per-feature marginals p/q: a feature weighs p where the
    entity's bit is 1 and q - p where it is 0, over a total of the
    product of the q."""

    def __init__(self, space: FeatureSpace, marginals: Sequence[Fraction]):
        self.marginals = tuple(Fraction(m) for m in marginals)
        super().__init__(space, prod(m.denominator for m in self.marginals))
        if len(self.marginals) != space.width:
            raise ValueError(
                f"{len(self.marginals)} marginals for a width-{space.width} space"
            )
        if any(not 0 <= m <= 1 for m in self.marginals):
            raise ValueError("marginals must lie in [0, 1]")
        self._factors = tuple((m.denominator - m.numerator, m.numerator) for m in self.marginals)

    @classmethod
    def from_sample(cls, space: FeatureSpace, sample: Sequence[Entity]) -> "ProductDistribution":
        """Estimate each marginal as the sample frequency of the feature."""
        if not sample:
            raise ValueError("cannot estimate marginals from an empty sample")
        counts = [0] * space.width
        for e in sample:
            for i, b in enumerate(e.bits):
                counts[i] += b
        return cls(space, [Fraction(c, len(sample)) for c in counts])

    def weight(self, index: int) -> int:
        return prod(f[b] for f, b in zip(self._factors, index_bits(index, self.space.width)))


class ConditionedDistribution(Distribution):
    """A base distribution restricted to a constraint's satisfying set.

    Violating entities weigh 0; survivors keep their base weight, over the
    survivors' total.  Construction fails when no survivor has mass (the
    conditional is undefined); it scans only up to the first one that has.
    A base with a finite support is filtered once, here.  The total is
    summed only when `prob` reads it.
    """

    def __init__(self, base: Distribution, constraint: Constraint):
        if constraint.space != base.space:
            raise ValueError("constraint and distribution range over different spaces")
        support = base.support
        if support is None:
            check_free_width(base.space.width)
            survivors = filter(constraint.holds, range(1 << base.space.width))
        else:
            survivors = support = tuple(filter(constraint.holds, support))
        if not any(map(base.weight, survivors)):
            raise InconsistentConstraintError(
                f"constraint {constraint} has zero mass under the base distribution"
            )
        self.space = base.space  # no Distribution.__init__: `total` is lazy
        self.base = base
        self.constraint = constraint
        self.support = support

    @cached_property
    def total(self) -> int:
        return sum(map(self.weight, self.support or range(1 << self.space.width)))

    def weight(self, index: int) -> int:
        return self.base.weight(index) if self.constraint.holds(index) else 0


# ---------------------------------------------------------------------------
# Samples


@record
class Sample:
    """Entities loaded from a sample CSV, with recorded labels if present."""

    space: FeatureSpace
    entities: tuple[Entity, ...]
    labels: Mapping[Entity, int] | None
