"""Binary entities, black-box classifiers and entity-space distributions.

Entities are fixed-width bit vectors over a named feature space.  A
classifier is any total function from entities to {0, 1}; it may live
in-process (truth table, Python callable) or behind a child process
speaking a line protocol.  Distributions over the entity space come in
four variants: uniform, empirical (sample-backed), product-of-marginals,
and any of those conditioned on denial-style or general propositional
constraints.
"""
from __future__ import annotations

import os
import time
from fractions import Fraction
from itertools import chain, compress, product, tee
from math import prod
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import PROTOCOL_HANDSHAKE, check_feature_names
from ._record import record

#: Widths above this refuse full entity-space enumeration; larger spaces
#: need a finite-support (empirical) distribution.
WIDTH_LIMIT = 20

#: Seconds an external classifier may take to send its handshake or one
#: response line before it is killed as hung.
RESPONSE_DEADLINE_S = 30.0

#: Bytes an external classifier's line may hold before its newline, far
#: above the handshake, the longest valid line; a longer line fails at once.
MAX_LINE_BYTES = 4096

#: Most requests written to an external classifier in one window.  A
#: window's bytes also stay within `PIPE_CAPACITY`.
WINDOW_REQUESTS = 64

#: The least capacity a pipe can have (one page).  Every answer to a window
#: is read before the next is written, so a window no longer than this fits
#: in the child's empty input pipe and the write cannot block.
PIPE_CAPACITY = 4096

#: Turns the bits of an entity, as bytes 0 and 1, into its request text.
_REQUEST_TEXT = bytes.maketrans(b"\x00\x01", b"01")


class ZeroMassEventError(ValueError):
    """A conditioning event has probability 0 under the distribution."""

    @classmethod
    def pinned(cls, entity: "Entity", fixed: Iterable[str]) -> "ZeroMassEventError":
        """The error for the event "agrees with `entity` on `fixed`"."""
        return cls(f"no mass on entities agreeing with {entity} on features {sorted(fixed)}")


class InconsistentConstraintError(ValueError):
    """Conditioning on a constraint whose satisfying set has mass 0."""


class ClassifierProtocolError(RuntimeError):
    """The external classifier broke the line protocol."""


class WidthLimitError(ValueError):
    pass


class DuplicateSampleError(ValueError):
    pass


class UnknownFeatureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Feature spaces and entities


@record
class FeatureSpace:
    """Ordered, uniquely named binary features."""

    names: tuple[str, ...]

    def __post_init__(self):
        check_feature_names(self.names)

    @property
    def width(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownFeatureError(f"unknown feature {name!r}") from None


@record
class Entity:
    """A bit vector; position i holds the value of the i-th feature."""

    bits: tuple[int, ...]

    def __post_init__(self):
        # Counted in C: a bit equal to neither 0 nor 1 is left over.
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise ValueError(f"entity bits must be 0/1, got {self.bits!r}")

    @classmethod
    def from_bits(cls, text: str) -> "Entity":
        try:
            return cls(_bit_tuple(text or "?"))  # "" and None fail as a non-bit would
        except KeyError:
            raise ValueError(f"entity must be a non-empty string of 0/1, got {text!r}") from None

    @property
    def width(self) -> int:
        return len(self.bits)

    def flip(self, *indices: int) -> "Entity":
        """The entity with the bit at each of the distinct `indices` changed."""
        return self.with_bits({i: 1 - self.bits[i] for i in indices})

    def with_bits(self, changes: Mapping[int, int]) -> "Entity":
        bits = list(self.bits)
        for index, bit in changes.items():
            bits[index] = bit
        return Entity(tuple(bits))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def all_entities(width: int) -> Iterator[Entity]:
    """Every entity of the given width, in binary counting order."""
    check_free_width(width)
    for bits in product((0, 1), repeat=width):
        yield Entity(bits)


# ---------------------------------------------------------------------------
# Classifiers


class Classifier:
    """Deterministic total function from entities to {0, 1}.

    Every label is read through `labels`, which caches it by bit vector
    (a table classifier's cache is its table) and has `_label` answer the
    uncached entities in windows of up to `_window`: one in process, so
    each entity is drawn just before its label is asked.  `close` is a
    no-op in process, and a `with` block calls it on exit.
    """

    _window = 1

    def __init__(self, width: int):
        self.width = width
        self._cache: dict[tuple[int, ...], int] = {}

    def label(self, entity: Entity) -> int:
        return next(self.labels((entity,)))

    def labels(self, entities: Iterable[Entity]) -> Iterator[int]:
        """The label of each entity, lazily and in order.  A window is cached
        whole before its first label is yielded, so streams may interleave."""
        cache, width, window = self._cache, self.width, self._window
        source = iter(entities)
        for entity in source:
            if (hit := cache.get(entity.bits)) is not None:  # a cached key has the right width
                yield hit
                continue
            drawn, asked = [entity.bits], {entity.bits: entity}
            while len(asked) < window and (entity := next(source, None)) is not None:
                drawn.append(entity.bits)
                if entity.bits not in cache:
                    asked[entity.bits] = entity
            for entity in asked.values():
                if entity.width != width:
                    raise ValueError(f"entity width {entity.width} != classifier width {width}")
            cache.update(zip(asked, self._label(asked)))
            yield from map(cache.__getitem__, drawn)

    def _label(self, requests: Mapping[tuple[int, ...], Entity]) -> Iterable[int]:
        """The labels, in order, of a window's distinct uncached bit vectors."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "Classifier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TableClassifier(Classifier):
    """Classifier backed by an explicit (usually total) truth table, held
    as the label cache: only an entity the table lacks reaches `_label`."""

    def __init__(self, width: int, table: Mapping[tuple[int, ...], int], total: bool = True):
        super().__init__(width)
        self._cache.update(table)
        keys = self._cache.keys()  # checked in C; a bad table is walked to name its key
        if set(map(len, keys)) - {width} or not {0, 1}.issuperset(chain.from_iterable(keys)):
            bad = next(k for k in keys if len(k) != width or not {0, 1}.issuperset(k))
            raise ValueError(f"truth table key {bad!r} is not a 0/1 tuple of width {width}")
        if not {0, 1}.issuperset(self._cache.values()):
            bad = next(v for v in self._cache.values() if v not in (0, 1))
            raise ValueError(f"truth table label {bad!r} is not 0 or 1")
        if total:
            from .clfserver import check_total
            check_total(len(self._cache), width)

    def _label(self, requests):
        raise ValueError(f"no label recorded for entity {next(iter(requests.values()))}")


class FunctionClassifier(Classifier):
    """Classifier wrapping an arbitrary Python callable."""

    def __init__(self, width: int, fn):
        super().__init__(width)
        self._fn = fn

    def _label(self, requests):
        for entity in requests.values():
            if (out := self._fn(entity)) not in (0, 1):
                raise ValueError(f"classifier returned {out!r}, expected 0 or 1")
            yield out


class ExternalClassifier(Classifier):
    """Black-box classifier reached over a child process's standard streams.

    Protocol (line oriented, requests answered in order):

    * startup: the child emits ``xscore-clf v1 n=<width>``;
    * request: <width> characters '0'/'1' followed by a newline;
    * response: a single '0' or '1' line per request, in request order;
      anything else is an error.

    Every kind's label stream asks in windows of `_window` requests, set
    from the handshake width: at most `WINDOW_REQUESTS` requests and
    `PIPE_CAPACITY` bytes.  `_label` writes a window in one write and reads
    every answer to it.  The handshake and each response must arrive within
    `RESPONSE_DEADLINE_S`, and no line may run past `MAX_LINE_BYTES`; a
    child that stays silent longer, or writes a longer line, is killed.  A
    refused handshake closes the child before the constructor raises;
    otherwise `close` (or the end of a `with` block) ends the child.
    """

    def __init__(self, command: Sequence[str]):
        import subprocess
        if not command:
            raise ValueError("empty classifier command")
        try:
            self._proc = subprocess.Popen(
                list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as exc:
            raise ClassifierProtocolError(f"cannot start classifier {command!r}: {exc}") from exc
        self._pending = b""
        try:
            width = self._read_handshake()
        except ClassifierProtocolError:
            self.close()
            raise
        super().__init__(width)
        self._window = min(WINDOW_REQUESTS, PIPE_CAPACITY // (width + 1))

    def _read_handshake(self) -> int:
        line = self._read_line()
        prefix = PROTOCOL_HANDSHAKE + " n="
        if not line.startswith(prefix):
            raise ClassifierProtocolError(f"bad handshake {line!r}")
        try:
            width = int(line[len(prefix) :].strip())
        except ValueError:
            raise ClassifierProtocolError(f"bad handshake width in {line!r}") from None
        if width < 1:
            raise ClassifierProtocolError(f"bad handshake width {width}")
        return width

    def _label(self, requests) -> list[int]:
        """Write one window of requests at once, then read each answer."""
        if self._proc.poll() is not None:
            raise ClassifierProtocolError("external classifier process has exited")
        text = b"\n".join(map(bytes, requests)).translate(_REQUEST_TEXT) + b"\n"
        try:
            self._proc.stdin.write(text)
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ClassifierProtocolError("external classifier pipe is closed") from exc
        out = []
        for _ in requests:
            line = self._read_line()
            if line.strip() not in ("0", "1"):
                raise ClassifierProtocolError(f"bad response {line!r}")
            out.append(int(line))
        return out

    def _read_line(self) -> str:
        """The child's next output line ("" at end of file, as `readline`
        gives).  Past `RESPONSE_DEADLINE_S` without a full line, or past
        `MAX_LINE_BYTES` without a newline, the child is killed and the
        read fails."""
        import select
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + RESPONSE_DEADLINE_S
        while b"\n" not in self._pending:
            if len(self._pending) > MAX_LINE_BYTES:
                self._kill(f"a line longer than {MAX_LINE_BYTES} bytes")
            left = max(0.0, deadline - time.monotonic())
            if not select.select([fd], [], [], left)[0]:
                self._kill(f"no line within {RESPONSE_DEADLINE_S} s")
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            self._pending += chunk
        line, newline, self._pending = self._pending.partition(b"\n")
        return (line + newline).decode(errors="replace")

    def _kill(self, problem: str) -> None:
        self._proc.kill()
        self.close()
        raise ClassifierProtocolError(f"external classifier sent {problem}")

    def close(self) -> None:
        """End the child's input, wait for it to exit, then close its
        output: a child still answering a window that a protocol error cut
        short writes into the open pipe, never a closed one."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        if self._proc.poll() is None:
            import subprocess
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


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

    @classmethod
    def denial(
        cls, space: FeatureSpace, positive: Iterable[str], negative: Iterable[str]
    ) -> "Constraint":
        """Forbid "all of `positive` are 1 and all of `negative` are 0"."""
        from . import formula
        pos = tuple(sorted(set(positive)))
        neg = tuple(sorted(set(negative)))
        if set(pos) & set(neg):
            raise ValueError(f"positive and negative features overlap: {set(pos) & set(neg)}")
        for name in pos + neg:
            space.index(name)
        literals: list[formula.Node] = [formula.Var(n) for n in pos]
        literals += [formula.Not(formula.Var(n)) for n in neg]
        if not literals:
            raise ValueError("a denial constraint needs at least one literal")
        body = literals[0] if len(literals) == 1 else formula.And(tuple(literals))
        return cls(space=space, root=formula.Not(body))

    def satisfied_by(self, entity: Entity) -> bool:
        if entity.width != self.space.width:
            raise ValueError("entity width does not match the constraint's feature space")
        true_names = frozenset(compress(self.space.names, entity.bits))
        return self._formula.evaluate(self.root, true_names)

    def is_satisfiable(self) -> bool:
        return any(self.satisfied_by(e) for e in all_entities(self.space.width))

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


def parse_constraint(text: str, space: FeatureSpace) -> Constraint:
    """Parse constraint text over the space's feature names.

    Grammar: `!` / `~` negate, `&` binds tighter than `|`, parentheses
    group, and `true` / `false` are constants.  The denial form is written
    `!(F1 & ~F2)`.
    """
    from . import formula

    def resolve(tok) -> formula.Node:
        if tok.text == "true":
            return formula.TRUE
        if tok.text == "false":
            return formula.FALSE
        if tok.text not in space.names:
            raise formula.ParseError(f"unknown feature {tok.text!r}", tok.line, tok.column)
        return formula.Var(tok.text)

    return Constraint(space=space, root=formula.parse(text, resolve, "feature name"))


# ---------------------------------------------------------------------------
# Distributions


class Distribution:
    """Probability measure over the entity space of a feature space.

    Each variant gives every entity an integer `weight`; its probability
    is that weight over the integer `total`, the sum of all weights.
    """

    def __init__(self, space: FeatureSpace, total: int):
        self.space = space
        self.total = total

    def weight(self, entity: Entity) -> int:
        """Unnormalized mass of an entity of the space's width (`prob`
        checks the width)."""
        raise NotImplementedError

    def prob(self, entity: Entity) -> Fraction:
        self._check(entity)
        return Fraction(self.weight(entity), self.total)

    @property
    def finite_support(self) -> tuple[Entity, ...] | None:
        """Entities that may carry mass, when that set is explicit (the
        empirical variant); None means "potentially the whole space"."""
        return None

    def _check(self, entity: Entity) -> None:
        if entity.width != self.space.width:
            raise ValueError(
                f"entity width {entity.width} != space width {self.space.width}"
            )


class UniformDistribution(Distribution):
    """Weight 1 on each of the 2^n entities."""

    def __init__(self, space: FeatureSpace):
        super().__init__(space, 2**space.width)

    def weight(self, entity: Entity) -> int:
        return 1


class EmpiricalDistribution(Distribution):
    """Weight 1 on each entity of a duplicate-free sample, 0 elsewhere."""

    def __init__(self, space: FeatureSpace, sample: Iterable[Entity]):
        entities = tuple(sample)
        super().__init__(space, len(entities))
        if not entities:
            raise ValueError("an empirical distribution needs a non-empty sample")
        if len(set(entities)) != len(entities):
            raise DuplicateSampleError("sample contains duplicate entities")
        for e in entities:
            self._check(e)
        self.sample = entities
        self._members = frozenset(entities)

    def weight(self, entity: Entity) -> int:
        return int(entity in self._members)

    @property
    def finite_support(self) -> tuple[Entity, ...] | None:
        return self.sample


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

    def weight(self, entity: Entity) -> int:
        return prod(f[b] for f, b in zip(self._factors, entity.bits))


class ConditionedDistribution(Distribution):
    """A base distribution restricted to a constraint's satisfying set.

    Violating entities weigh 0; survivors keep their base weight, over the
    survivors' total.  Construction fails when that total is 0 (the
    conditional is undefined).  A base with a finite support is filtered
    once, here.
    """

    def __init__(self, base: Distribution, constraint: Constraint):
        if constraint.space != base.space:
            raise ValueError("constraint and distribution range over different spaces")
        support = base.finite_support
        if support is None:
            survivors = (e for e in all_entities(base.space.width) if constraint.satisfied_by(e))
        else:
            survivors = support = tuple(e for e in support if constraint.satisfied_by(e))
        super().__init__(base.space, sum(map(base.weight, survivors)))
        if self.total == 0:
            raise InconsistentConstraintError(
                f"constraint {constraint} has zero mass under the base distribution"
            )
        self.base = base
        self.constraint = constraint
        self._support = support

    def weight(self, entity: Entity) -> int:
        return self.base.weight(entity) if self.constraint.satisfied_by(entity) else 0

    @property
    def finite_support(self) -> tuple[Entity, ...] | None:
        return self._support


def condition(dist: Distribution, constraints: Constraint | Sequence[Constraint]) -> Distribution:
    """Condition a distribution on one constraint or a conjunction of several."""
    if isinstance(constraints, Constraint):
        constraint = constraints
    else:
        constraint = conjoin(list(constraints))
    return ConditionedDistribution(dist, constraint)


# ---------------------------------------------------------------------------
# Conditional expectations


def conditional_expectation(
    dist: Distribution, classifier: Classifier, entity: Entity, fixed: Iterable[str]
) -> Fraction:
    """Expected label when the features in `fixed` are pinned to the
    reference entity's values and the rest vary under `dist`.

    Exact rational; raises `ZeroMassEventError` when the conditioning
    event has no mass (possible under empirical and conditioned variants).
    The entities of positive weight are labelled through one `labels`
    stream.  No scorer calls this general form: it is the reference the
    tests' oracles take SHAP's and COUNTER's expectations from.
    """
    space = dist.space
    if classifier.width != space.width:
        raise ValueError("classifier and distribution widths differ")
    dist._check(entity)
    pinned = sorted({space.index(name) for name in fixed})
    support = dist.finite_support
    if support is not None:
        candidates = (x for x in support if all(x.bits[i] == entity.bits[i] for i in pinned))
    else:
        free = [i for i in range(entity.width) if i not in pinned]
        candidates = (entity.with_bits(dict(zip(free, c.bits))) for c in all_entities(len(free)))
    numerator = mass = 0
    for (_, w), label in _weighed_labels(dist, classifier, candidates):
        mass += w
        if label == 1:
            numerator += w
    if mass == 0:
        raise ZeroMassEventError.pinned(entity, fixed)
    return Fraction(numerator, mass)


def _weighed_labels(dist, classifier, entities) -> Iterator[tuple[tuple, int]]:
    """((entity, weight), label) of each entity of positive weight, in order,
    from one `labels` stream."""
    pairs, asked = tee((x, w) for x in entities if (w := dist.weight(x)))
    return zip(pairs, classifier.labels(x for x, _ in asked))


def check_free_width(free: int) -> None:
    """Refuse to enumerate the completions of `free` unpinned features past
    `WIDTH_LIMIT`."""
    if free > WIDTH_LIMIT:
        raise WidthLimitError(f"{free} free features exceed the enumeration limit {WIDTH_LIMIT}")


# ---------------------------------------------------------------------------
# File formats


@record
class Sample:
    """Entities loaded from a sample CSV, with recorded labels if present."""

    space: FeatureSpace
    entities: tuple[Entity, ...]
    labels: Mapping[Entity, int] | None


def load_truth_table_csv(path: str | Path) -> tuple[FeatureSpace, TableClassifier]:
    """Load a total classifier: feature columns plus a `label` column, one
    row per entity, all 2^n entities present."""
    from .clfserver import read_truth_table
    names, table = read_truth_table(path)
    space = FeatureSpace(tuple(names))
    bit_table = {_bit_tuple(bits): label for bits, label in table.items()}
    return space, TableClassifier(space.width, bit_table)


def load_sample_csv(path: str | Path, dedupe: bool = False) -> Sample:
    """Load a sample: feature columns, optional `_label` column.

    Duplicate entities are an error unless `dedupe` is set (repetitions
    carry no extra mass under the empirical distribution anyway).
    """
    from .clfserver import read_bit_csv
    rows, names = read_bit_csv(path, "_label", required=False)
    space = FeatureSpace(tuple(names))
    if not rows:
        raise ValueError(f"{path}: sample has no rows")
    labels: dict[Entity, int | None] = {}  # in file order; None without `_label`
    for line_no, bits, label in rows:
        e = Entity(_bit_tuple(bits))
        if e in labels:
            if dedupe:
                continue
            raise DuplicateSampleError(f"{path}: duplicate sample entity at line {line_no}")
        labels[e] = label
    return Sample(space, tuple(labels), labels if rows[0][2] is not None else None)


_BIT_VALUES = {"0": 0, "1": 1}


def _bit_tuple(bits: str) -> tuple[int, ...]:
    """The bits of a '0'/'1' string, as `read_bit_csv` gives them."""
    return tuple(map(_BIT_VALUES.__getitem__, bits))
