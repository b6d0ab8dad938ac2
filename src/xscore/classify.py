"""Binary entities, black-box classifiers and entity-space distributions.

Entities are fixed-width bit vectors over a named feature space.  A
classifier is any total function from entities to {0, 1}; it may live
in-process (truth table, Python callable) or behind a child process
speaking a line protocol.  A distribution over the entity space gives
each entity an integer weight; the uniform one lives here, and the
empirical, product and conditioned ones, with constraints and samples, in
`knowledge`, which only the requests that use them load.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, product, tee
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

#: Seconds `ExternalClassifier.close` waits for the child to exit before
#: it kills the child.
CLOSE_WAIT_S = 5.0

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
    """Classifier over a (usually total) truth table, from a mapping or (bits,
    label) pairs, held as the label cache: only entities it lacks reach `_label`."""

    def __init__(self, width: int, table: Mapping | Iterable[tuple], total: bool = True):
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
      anything else is an error, and so is output no request asked for.

    The child runs as an `_child.Child`, which only this class loads.  Every
    kind's label stream asks in windows of `_window` requests, set from the
    handshake width: at most `WINDOW_REQUESTS` requests and `PIPE_CAPACITY`
    bytes.  `_label` writes a window in one write and reads until it holds
    every answer to it.  The handshake and each response must arrive within
    `RESPONSE_DEADLINE_S`, and no line may run past `MAX_LINE_BYTES`; a
    child that stays silent longer, or writes a longer line, is killed.  A
    refused handshake closes the child before the constructor raises;
    otherwise `close` (or the end of a `with` block) ends the child.
    """

    #: True while output from the child may be owed rather than unsolicited:
    #: until its handshake is read, while a window is out, and after any
    #: error, so that `close` does not fail on what an error left unread.
    _owed = True

    def __init__(self, command: Sequence[str]):
        if not command:
            raise ValueError("empty classifier command")
        from ._child import Child
        try:
            self._child = Child(list(command))
        except OSError as exc:
            raise ClassifierProtocolError(f"cannot start classifier {command!r}: {exc}") from exc
        try:
            width = self._read_handshake()
        except ClassifierProtocolError:
            self.close()
            raise
        self._owed = False
        super().__init__(width)
        self._window = min(WINDOW_REQUESTS, PIPE_CAPACITY // (width + 1))

    def _read_handshake(self) -> int:
        [line], rest = self._read_lines(1)
        line = line.decode(errors="replace")
        prefix = PROTOCOL_HANDSHAKE + " n="
        if not line.startswith(prefix):
            raise ClassifierProtocolError(f"bad handshake {line!r}")
        try:
            width = int(line[len(prefix) :].strip())
        except ValueError:
            raise ClassifierProtocolError(f"bad handshake width in {line!r}") from None
        if width < 1:
            raise ClassifierProtocolError(f"bad handshake width {width}")
        if rest:
            raise self._unsolicited(rest)
        return width

    def _label(self, requests) -> list[int]:
        """Write one window of requests at once, then read every answer to
        it and check each, in order."""
        if (early := self._child.pending()) is not None:  # before this window was asked
            if early:
                raise self._unsolicited(early)
            raise ClassifierProtocolError("external classifier process has exited")
        text = b"\n".join(map(bytes, requests)).translate(_REQUEST_TEXT) + b"\n"
        self._owed = True
        try:
            self._child.write(text)
        except OSError as exc:
            raise ClassifierProtocolError("external classifier pipe is closed") from exc
        lines, rest = self._read_lines(len(requests))
        for line in lines:
            if line.strip() not in (b"0", b"1"):
                raise ClassifierProtocolError(f"bad response {line.decode(errors='replace')!r}")
        if rest:
            raise self._unsolicited(rest)
        self._owed = False
        return list(map(int, lines))

    def _read_lines(self, count: int) -> tuple[list[bytes], bytes]:
        try:
            return self._child.read_lines(count, RESPONSE_DEADLINE_S, MAX_LINE_BYTES)
        except (TimeoutError, ValueError) as exc:  # the child is killed
            raise ClassifierProtocolError(f"external classifier sent {exc}") from None

    def _unsolicited(self, data: bytes) -> ClassifierProtocolError:
        self._owed = True
        shown = data[:32].decode(errors="replace")
        return ClassifierProtocolError(f"external classifier sent unsolicited output {shown!r}")

    def close(self) -> None:
        """End the child as `Child.close` does, killing it past
        `CLOSE_WAIT_S`.  A child still answering a window that an error cut
        short writes into an open pipe, never a closed one.  Output that no
        request asked for, after a run no error cut short, fails once the
        child is reaped."""
        if (first := self._child.close(CLOSE_WAIT_S)) and not self._owed:
            raise self._unsolicited(first)

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:  # not replaced by an error about unread output
            self._owed = True
        self.close()


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


# ---------------------------------------------------------------------------
# Constraints and conditioning: the classes live in `knowledge`, which only
# these entries load, so a uniform request compiles none of them.  The
# entries stay here, where the benchmark's per-layer metrics name them
# (`classify.parse_constraint.s`), so `knowledge` is imported when called.


def parse_constraint(text: str, space: FeatureSpace) -> knowledge.Constraint:
    """Parse constraint text over the space's feature names.

    Grammar: `!` / `~` negate, `&` binds tighter than `|`, parentheses
    group, and `true` / `false` are constants.  The denial form is written
    `!(F1 & ~F2)`.
    """
    from . import formula
    from .knowledge import Constraint

    def resolve(tok) -> formula.Node:
        if tok.text == "true":
            return formula.TRUE
        if tok.text == "false":
            return formula.FALSE
        if tok.text not in space.names:
            raise formula.ParseError(f"unknown feature {tok.text!r}", tok.line, tok.column)
        return formula.Var(tok.text)

    return Constraint(space=space, root=formula.parse(text, resolve, "feature name"))


def condition(
    dist: Distribution, constraints: knowledge.Constraint | Sequence[knowledge.Constraint]
) -> Distribution:
    """Condition a distribution on one constraint or a conjunction of several."""
    from .knowledge import ConditionedDistribution, Constraint, conjoin
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


def load_truth_table_csv(path: str | Path) -> tuple[FeatureSpace, TableClassifier]:
    """Load a total classifier: feature columns plus a `label` column, one
    row per entity, all 2^n entities present."""
    from .clfserver import read_truth_table
    names, table = read_truth_table(path)
    space = FeatureSpace(tuple(names))
    return space, TableClassifier(space.width, zip(map(_bit_tuple, table), table.values()))


def load_sample_csv(path: str | Path, dedupe: bool = False) -> knowledge.Sample:
    """Load a sample: feature columns, optional `_label` column.

    Duplicate entities are an error unless `dedupe` is set (repetitions
    carry no extra mass under the empirical distribution anyway).
    """
    from .clfserver import read_bit_csv
    from .knowledge import Sample
    rows = read_bit_csv(path, "_label")
    names, labelled = next(rows)
    labels: dict[Entity, int | None] = {}  # in file order; None without `_label`
    for line_no, bits, label in rows:
        e = Entity(_bit_tuple(bits))
        if e in labels:
            if dedupe:
                continue
            raise DuplicateSampleError(f"{path}: duplicate sample entity at line {line_no}")
        labels[e] = label
    if not labels:
        raise ValueError(f"{path}: sample has no rows")
    return Sample(FeatureSpace(tuple(names)), tuple(labels), labels if labelled else None)


_BIT_VALUES = {"0": 0, "1": 1}


def _bit_tuple(bits: str) -> tuple[int, ...]:
    """The bits of a '0'/'1' string, as `read_bit_csv` gives them."""
    return tuple(map(_BIT_VALUES.__getitem__, bits))
