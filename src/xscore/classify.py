"""Binary entities, black-box classifiers and entity-space distributions.

Entities are fixed-width bit vectors over a named feature space, known
inside the package by their index: the bits in binary, F1 first.  A
classifier is any total function from entities to {0, 1}; it may live
in-process (truth table, Python callable) or behind a child process
speaking a line protocol.  A distribution gives each index an integer
weight; the uniform one lives here, and the empirical, product and
conditioned ones, with constraints and samples, in `knowledge`, which only
the requests that use them load.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, tee
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

#: Turn bits as bytes 0 and 1 into the text '0'/'1', and back.
_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


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

    def bit(self, name: str) -> int:
        """The feature's bit in an entity index, F1's the most significant."""
        return 1 << (self.width - 1 - self.index(name))


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
        if not text or text.strip("01"):
            raise ValueError(f"entity must be a non-empty string of 0/1, got {text!r}")
        return cls(tuple(text.encode().translate(_BIT_BYTES)))

    @classmethod
    def at(cls, index: int, width: int) -> "Entity":
        """The entity of the given width whose `index` is `index`."""
        return cls(tuple(index_bits(index, width)))

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """The bits read as a binary number, F1 most significant."""
        return int(bytes(self.bits).translate(_BIT_TEXT), 2)

    def __str__(self) -> str:
        return bytes(self.bits).translate(_BIT_TEXT).decode()


def index_bits(index: int, width: int) -> bytes:
    """The bits of the entity of the width at `index`, F1 first, as bytes."""
    return format(index, f"0{width}b").encode().translate(_BIT_BYTES)


# ---------------------------------------------------------------------------
# Classifiers


class Classifier:
    """Deterministic total function from entities to {0, 1}.

    Every label is read through `labels`, which takes entity indices
    (`Entity.index`) of the classifier's width; `label` is its one-entity
    form for an `Entity` of any width.  `close` is a no-op in process, and a
    `with` block calls it on exit.
    """

    def __init__(self, width: int):
        self.width = width
        self._cache: dict[int, int] | bytearray = {}  # labels by index; a table's is its table

    def label(self, entity: Entity) -> int:
        if entity.width != self.width:
            raise ValueError(f"entity width {entity.width} != classifier width {self.width}")
        return next(self.labels((entity.index,)))

    def labels(self, indices: Iterable[int]) -> Iterator[int]:
        """The label of each entity index, lazily and in order."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "Classifier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TableClassifier(Classifier):
    """Classifier over a truth table: the byte table of `read_truth_table` as
    it is, or a mapping or (bits, label) pairs, checked, as {index: label}."""

    def __init__(self, width: int, table: bytearray | Mapping | Iterable, total: bool = True):
        super().__init__(width)
        if isinstance(table, bytearray):
            self._cache = table
            return
        table = dict(table)
        keys = table.keys()  # checked in C; a bad table is walked to name its key
        if set(map(len, keys)) - {width} or not {0, 1}.issuperset(chain.from_iterable(keys)):
            bad = next(k for k in keys if len(k) != width or not {0, 1}.issuperset(k))
            raise ValueError(f"truth table key {bad!r} is not a 0/1 tuple of width {width}")
        if not {0, 1}.issuperset(table.values()):
            bad = next(v for v in table.values() if v not in (0, 1))
            raise ValueError(f"truth table label {bad!r} is not 0 or 1")
        if total:
            from .clfserver import check_total
            check_total(len(table), width)
        self._cache = {Entity(bits).index: label for bits, label in table.items()}

    def labels(self, indices):
        try:
            yield from map(self._cache.__getitem__, indices)
        except KeyError as miss:
            self._label(miss.args[0])

    def _label(self, index: int):
        """Refuse an entity that a partial table lacks."""
        raise ValueError(f"no label recorded for entity {Entity.at(index, self.width)}")


class FunctionClassifier(Classifier):
    """Classifier wrapping an arbitrary Python callable, cached by index."""

    def __init__(self, width: int, fn):
        super().__init__(width)
        self._fn = fn

    def labels(self, indices):
        cache, fn, width = self._cache, self._fn, self.width
        for index in indices:
            if (out := cache.get(index)) is None:
                if (out := fn(Entity.at(index, width))) not in (0, 1):
                    raise ValueError(f"classifier returned {out!r}, expected 0 or 1")
                cache[index] = out
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

    def labels(self, indices):
        """The labels, cached by index.  A window is cached whole before its
        first label is yielded, so streams may interleave."""
        cache, window = self._cache, self._window
        source = iter(indices)
        for index in source:
            if (hit := cache.get(index)) is not None:
                yield hit
                continue
            drawn, asked = [index], {index: None}
            while len(asked) < window and (index := next(source, None)) is not None:
                drawn.append(index)
                if index not in cache:
                    asked[index] = None
            cache.update(zip(asked, self._label(list(asked))))
            yield from map(cache.__getitem__, drawn)

    def _label(self, requests: list[int]) -> list[int]:
        """Write one window of distinct entity indices at once, then read
        every answer to it and check each, in order."""
        if (early := self._child.pending()) is not None:  # before this window was asked
            if early:
                raise self._unsolicited(early)
            raise ClassifierProtocolError("external classifier process has exited")
        text = "".join(map(f"{{:0{self.width}b}}\n".format, requests)).encode()
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

    Each variant gives every entity index an integer `weight`, over the
    integer `total` of all weights.  `support` holds the indices that may
    carry mass when that set is explicit (the empirical variant), else None.
    """

    support: tuple[int, ...] | None = None

    def __init__(self, space: FeatureSpace, total: int):
        self.space = space
        self.total = total

    def weight(self, index: int) -> int:
        """Unnormalized mass of the entity at `index`."""
        raise NotImplementedError

    def prob(self, entity: Entity) -> Fraction:
        self._check(entity)
        return Fraction(self.weight(entity.index), self.total)

    @cached_property
    def finite_support(self) -> tuple[Entity, ...] | None:
        """The entities of `support`, or None."""
        if self.support is None:
            return None
        return tuple(Entity.at(index, self.space.width) for index in self.support)

    def _check(self, entity: Entity) -> None:
        if entity.width != self.space.width:
            raise ValueError(
                f"entity width {entity.width} != space width {self.space.width}"
            )


class UniformDistribution(Distribution):
    """Weight 1 on each of the 2^n entities."""

    def __init__(self, space: FeatureSpace):
        super().__init__(space, 2**space.width)

    def weight(self, index: int) -> int:
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
    No scorer calls this general form: it is the reference the tests'
    oracles take SHAP's and COUNTER's expectations from.
    """
    space = dist.space
    if classifier.width != space.width:
        raise ValueError("classifier and distribution widths differ")
    dist._check(entity)
    n, support = space.width, dist.support
    pinned = sum({space.bit(name) for name in fixed})
    if support is None:
        check_free_width(n - pinned.bit_count())
        support = range(1 << n)
    target = entity.index & pinned
    candidates = (x for x in support if x & pinned == target)
    numerator = mass = 0
    for (_, w), label in _weighed_labels(dist, classifier, candidates):
        mass += w
        if label == 1:
            numerator += w
    if mass == 0:
        raise ZeroMassEventError.pinned(entity, fixed)
    return Fraction(numerator, mass)


def _weighed_labels(dist, classifier, indices) -> Iterator[tuple[tuple, int]]:
    """((index, weight), label) of each entity index of positive weight, in
    order, from one `labels` stream."""
    pairs, asked = tee((x, w) for x in indices if (w := dist.weight(x)))
    return zip(pairs, classifier.labels(x for x, _ in asked))


def check_free_width(free: int) -> None:
    """Refuse to enumerate the completions of `free` unpinned features past
    `WIDTH_LIMIT`."""
    if free > WIDTH_LIMIT:
        raise WidthLimitError(f"{free} free features exceed the enumeration limit {WIDTH_LIMIT}")


# ---------------------------------------------------------------------------
# File formats


def load_truth_table_csv(path: str | Path) -> tuple[FeatureSpace, TableClassifier]:
    """Load a total classifier over the byte table of a truth-table CSV:
    feature columns plus a `label` column, all 2^n entities present."""
    from .clfserver import read_truth_table
    names, table = read_truth_table(path)
    space = FeatureSpace(tuple(names))
    return space, TableClassifier(space.width, table)


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
        e = Entity.from_bits(bits)
        if e in labels:
            if dedupe:
                continue
            raise DuplicateSampleError(f"{path}: duplicate sample entity at line {line_no}")
        labels[e] = label
    if not labels:
        raise ValueError(f"{path}: sample has no rows")
    return Sample(FeatureSpace(tuple(names)), tuple(labels), labels if labelled else None)
