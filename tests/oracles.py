"""Independent brute-force oracles and random-instance generators.

Everything here recomputes scores from first principles, on purpose not
sharing code paths with the package: the engine sums subset-weighted
marginals, so the Shapley oracle averages over explicit permutations; the
causes oracles search raw sub-databases, or every subset of the lineage
support, instead of reading contingency sizes off swing counts; the
hierarchy oracle re-derives Atoms(x) from scratch; the join oracle re-scans
each relation for every partial binding instead of probing one hash index
per atom; lineage probabilities and causal effects enumerate every
valuation of the support instead of counting by Shannon expansion, and
swing counts test every set of the other support tuples instead of
reading a polynomial in a shared probability; the Monte Carlo oracle
redraws every order for each player on its own; the SHAP oracle plays
the coalition game with one conditional expectation per coalition
instead of one table; the RESP oracle tries every replacement
vector of each contingency instead of the one that flips all of it; the
substitution oracle rebuilds the tree and constant-propagates each rebuilt
node in a second walk instead of in the same pass; the mass oracle gives
each entity its probability from the variant's rational formula instead of
an integer weight over a total, and takes conditional expectations as
ratios of those rationals over the whole space; the tokenizer oracle walks
the text one character at a time instead of matching a pattern per token;
the truth-table oracle reads a whole CSV with the `csv` module into a
{bits: label} dict instead of streaming it into a byte table.

The record-tree walks are the tuple-score walks as `dbscores` ran them
before it walked integer forms: the Shannon expansion, the witness test and
the Monte Carlo first place over `formula` records, with the same memo,
pivots and charges.  They are references for the integer walks, not
independent oracles, and the lineage game plays a lineage by evaluating
its record tree.
"""
from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product, zip_longest

from xscore import formula, games, reldb
from xscore.classify import (
    Entity,
    FeatureSpace,
    TableClassifier,
    UniformDistribution,
    ZeroMassEventError,
    check_free_width,
    condition,
    conditional_expectation,
)
from xscore.knowledge import (
    ConditionedDistribution,
    Constraint,
    EmpiricalDistribution,
    ProductDistribution,
)
from xscore.dbscores import CauseReport
from xscore.formula import ParseError, Token
from xscore.games import Game
from xscore.mlscores import FeatureScore, LabelMismatchError, RespWitness


def shapley_by_permutations(game: Game, player) -> Fraction:
    """Average marginal contribution of `player` over all player orders."""
    players = list(game.players)
    total = Fraction(0)
    count = 0
    for order in permutations(players):
        before = frozenset(order[: order.index(player)])
        total += Fraction(game.value(before | {player})) - Fraction(game.value(before))
        count += 1
    return total / count


def monte_carlo_by_player(game: Game, player, epsilon: float, delta: float, seed: int):
    """The seeded per-player Shapley estimate: sample i shuffles the
    players with an RNG seeded by the first 8 bytes of sha256("seed:i"),
    and the player's marginal contribution at its place is averaged over
    ceil(ln(2/delta) / (2 epsilon^2)) samples."""
    samples = math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))
    total = Fraction(0)
    for index in range(samples):
        order = list(game.players)
        random.Random(derived_seed_by_hashlib(seed, index)).shuffle(order)
        before = frozenset(order[: order.index(player)])
        total += Fraction(game.value(before | {player})) - Fraction(game.value(before))
    return float(total / samples), samples


def lineage_probability_by_enumeration(lineage: reldb.Lineage, probabilities=None) -> Fraction:
    """Sum of the weights of the satisfying valuations of the support.

    `probabilities` is None (1/2 for all), one shared value, or a per-tuple
    table whose missing tuples default to 1/2.
    """
    support = sorted(lineage.support())
    prob = _presence(support, probabilities)
    total = Fraction(0)
    for bits in product((False, True), repeat=len(support)):
        present = frozenset(t for t, bit in zip(support, bits) if bit)
        if lineage.evaluate(present):
            weight = Fraction(1)
            for t, bit in zip(support, bits):
                weight *= prob[t] if bit else 1 - prob[t]
            total += weight
    return total


def causal_effect_by_enumeration(lineage: reldb.Lineage, tuple_id: str, probabilities=None) -> Fraction:
    """E[f | do(t=1)] - E[f | do(t=0)], summed over every valuation of the
    other support tuples (0 for a tuple outside the support)."""
    others = sorted(lineage.support() - {tuple_id})
    prob = _presence(others, probabilities)
    total = Fraction(0)
    for bits in product((False, True), repeat=len(others)):
        present = frozenset(t for t, bit in zip(others, bits) if bit)
        swing = int(lineage.evaluate(present | {tuple_id})) - int(lineage.evaluate(present))
        if swing:
            weight = Fraction(1)
            for t, bit in zip(others, bits):
                weight *= prob[t] if bit else 1 - prob[t]
            total += swing * weight
    return total


def swing_counts_by_enumeration(lineage: reldb.Lineage, tuple_ids=None) -> dict:
    """For each support tuple t among `tuple_ids` (default: all) and each
    k = 0 .. m-1, m the support size, the number of k-sets S of the other
    support tuples on which t swings the lineage: true on S + t, false on S."""
    support = lineage.support()
    counts = {}
    for t in sorted(support if tuple_ids is None else support.intersection(tuple_ids)):
        others = sorted(support - {t})
        counts[t] = [0] * len(support)
        for k in range(len(others) + 1):
            for subset in combinations(others, k):
                present = frozenset(subset)
                if lineage.evaluate(present | {t}) and not lineage.evaluate(present):
                    counts[t][k] += 1
    return counts


def _presence(support, probabilities) -> dict:
    if probabilities is None or isinstance(probabilities, (Fraction, int)):
        shared = Fraction(1, 2) if probabilities is None else Fraction(probabilities)
        return {t: shared for t in support}
    return {t: Fraction(probabilities.get(t, Fraction(1, 2))) for t in support}


def matches_by_nested_loop(db: reldb.Database, query: reldb.ConjunctiveQuery):
    """All satisfying valuations as (binding, matched tuple ids), by a
    nested-loop join: every partial binding re-scans the next relation and
    tests each position of each row."""

    def extend(i: int, binding: dict, used: tuple):
        if i == len(query.atoms):
            yield binding, used
            return
        atom = query.atoms[i]
        for tid, values in db.rows(atom.relation):
            new = dict(binding)
            ok = True
            for term, value in zip(atom.terms, values):
                if isinstance(term, reldb.Const):
                    if term.value != value:
                        ok = False
                        break
                else:
                    bound = new.get(term)
                    if bound is None:
                        new[term] = value
                    elif bound != value:
                        ok = False
                        break
            if ok:
                yield from extend(i + 1, new, used + (tid,))

    yield from extend(0, {}, ())


def hierarchy_by_definition(query: reldb.ConjunctiveQuery) -> bool:
    """Direct check: atom sets of any two variables nest or are disjoint."""
    var_atoms: dict[int, set[int]] = {}
    for position, atom in enumerate(query.atoms):
        for term in atom.terms:
            if isinstance(term, reldb.Var):
                var_atoms.setdefault(term.index, set()).add(position)
    for x, y in combinations(var_atoms.values(), 2):
        if not (x.issubset(y) or y.issubset(x) or x.isdisjoint(y)):
            return False
    return True


def min_contingency_unrestricted(
    db: reldb.Database, query: reldb.ConjunctiveQuery, tuple_id: str
) -> int | None:
    """Smallest contingency over ALL other tuples, by sub-database search."""
    others = [t for t in db.tuple_ids() if t != tuple_id]
    for size in range(len(others) + 1):
        for gamma in combinations(others, size):
            kept = set(db.tuple_ids()) - set(gamma)
            if reldb.evaluate(db.restrict(kept), query) and not reldb.evaluate(
                db.restrict(kept - {tuple_id}), query
            ):
                return size
    return None


def causes_by_exhaustion(lineage: reldb.Lineage, tuple_ids) -> list[CauseReport]:
    """Every tuple's `CauseReport` from all subsets of the support.

    A contingency of t is a set G of other support tuples such that the
    lineage holds without G and fails without G and t.  Each subset is
    tried as a bit vector, every contingency is kept, and the witness is
    the least by (size, sorted ids); a tuple with none is a non-cause.
    """
    support = sorted(lineage.support())
    reports = []
    for t in sorted(set(tuple_ids)):
        others = [s for s in support if s != t]
        found = []
        for bits in product((False, True), repeat=len(others)):
            gamma = tuple(s for s, bit in zip(others, bits) if bit)
            kept = set(support) - set(gamma)
            if lineage.evaluate(kept) and not lineage.evaluate(kept - {t}):
                found.append(gamma)
        if not found:
            reports.append(CauseReport(t, False, False, None, None, Fraction(0)))
            continue
        best = min(found, key=lambda g: (len(g), g))
        size = len(best)
        reports.append(CauseReport(t, True, size == 0, size, best, Fraction(1, size + 1)))
    return reports


def resp_by_exhaustion(classifier, space: FeatureSpace, entity: Entity, feature: str) -> Fraction:
    """Smallest joint intervention flipping the label to 0.

    Enumerates every contingency set of other features, every replacement
    bit vector for it, with the inspected feature set to its other value.
    """
    index = space.index(feature)
    others = [space.index(n) for n in space.names if n != feature]
    for size in range(space.width):
        for chosen in combinations(others, size):
            for values in product((0, 1), repeat=size):
                changes = dict(zip(chosen, values))
                changes[index] = 1 - entity.bits[index]
                if classifier.label(with_bits(entity, changes)) == 0:
                    return Fraction(1, size + 1)
    return Fraction(0)


def resp_by_replacement_search(request, feature: str) -> FeatureScore:
    """RESP by trying every replacement vector of every contingency.

    Contingencies Y of other features go by size, then in combinations of
    the sorted names; each Y tries all 2^|Y| replacement vectors in binary
    counting order, the inspected feature set to its other value.  The
    first vector whose entity takes the other label is the witness.
    """
    space = request.distribution.space
    index = space.index(feature)
    entity = request.entity
    label = request.classifier.label(entity)
    if label != request.target_label:
        raise LabelMismatchError(
            f"entity has label {label}, request explains label {request.target_label}"
        )
    flipped_label = 0 if request.target_label == 1 else 1
    cap = request.max_contingency
    if cap is None:
        cap = space.width - 1
    cap = min(cap, space.width - 1)
    other_names = sorted(n for n in space.names if n != feature)
    replacement = 1 - entity.bits[index]
    for size in range(cap + 1):
        for names in combinations(other_names, size):
            indices = [space.index(n) for n in names]
            for values in product((0, 1), repeat=size):
                changes = dict(zip(indices, values))
                changes[index] = replacement
                candidate = with_bits(entity, changes)
                if request.classifier.label(candidate) == flipped_label:
                    return FeatureScore(
                        feature=feature,
                        kind="resp",
                        value=Fraction(1, size + 1),
                        explanation_kind="counterfactual" if size == 0 else "actual",
                        witness=RespWitness(names, values, replacement, candidate),
                    )
    return FeatureScore(feature=feature, kind="resp", value=Fraction(0))


def masses_by_formula(dist) -> dict[Entity, Fraction]:
    """Every entity's probability from its variant's rational formula:
    1 / 2^n uniform; 1 / |sample| on the sample and 0 off it; the product
    of m (bit 1) or 1 - m (bit 0) over the marginals m; under a constraint,
    0 for a violator and the base probability over the survivors' base
    mass otherwise."""
    entities = list(all_entities(dist.space.width))
    if isinstance(dist, ConditionedDistribution):
        base = masses_by_formula(dist.base)
        kept = {e: base[e] if dist.constraint.satisfied_by(e) else Fraction(0) for e in entities}
        mass = sum(kept.values())
        return {e: p / mass for e, p in kept.items()}
    if isinstance(dist, UniformDistribution):
        return {e: Fraction(1, 2**dist.space.width) for e in entities}
    if isinstance(dist, EmpiricalDistribution):
        return {e: Fraction(1, len(dist.sample)) if e in dist.sample else Fraction(0) for e in entities}
    masses = {}
    for e in entities:
        p = Fraction(1)
        for bit, m in zip(e.bits, dist.marginals):
            p *= m if bit else 1 - m
        masses[e] = p
    return masses


def expectation_by_formula(dist, classifier, entity: Entity, fixed) -> Fraction:
    """E[label | agree with `entity` on `fixed`]: the label-1 probability
    over the probability of the event, summed from `masses_by_formula`
    over the whole space; `ZeroMassEventError` when the event has none."""
    masses = masses_by_formula(dist)
    indices = [dist.space.index(name) for name in fixed]
    agreeing = [e for e in masses if all(e.bits[i] == entity.bits[i] for i in indices)]
    mass = sum(masses[e] for e in agreeing)
    if mass == 0:
        raise ZeroMassEventError.pinned(entity, fixed)
    return sum(masses[e] for e in agreeing if classifier.label(e) == 1) / mass


def shap_game_by_expectation(request) -> Game:
    """The SHAP coalition game of an explanation request, each coalition's
    value one `conditional_expectation` over the entities agreeing with the
    request's entity on it."""

    def value(coalition):
        return conditional_expectation(
            request.distribution, request.classifier, request.entity, coalition
        )

    return Game(players=request.distribution.space.names, value=value)


def shap_by_expectation(request, feature) -> tuple[Fraction, int]:
    """Subset-weighted SHAP sum of `feature` over the per-coalition game,
    coalitions by size and in `combinations` order, each S + feature
    before S.  With `request.skip_zero_mass` every term with a zero-mass
    coalition is dropped, otherwise the first zero-mass coalition raises;
    returns the sum and the number of dropped terms."""
    names = request.distribution.space.names
    n = len(names)
    others = [m for m in names if m != feature]
    cache: dict[frozenset, Fraction | None] = {}

    def expectation(coalition: frozenset) -> Fraction | None:
        if coalition not in cache:
            try:
                cache[coalition] = conditional_expectation(
                    request.distribution, request.classifier, request.entity, coalition
                )
            except ZeroMassEventError:
                if not request.skip_zero_mass:
                    raise
                cache[coalition] = None
        return cache[coalition]

    total = Fraction(0)
    skipped = 0
    for size in range(n):
        weight = Fraction(math.factorial(size) * math.factorial(n - size - 1), math.factorial(n))
        for chosen in combinations(others, size):
            coalition = frozenset(chosen)
            with_feature = expectation(coalition | {feature})
            without = expectation(coalition)
            if with_feature is None or without is None:
                skipped += 1
                continue
            total += weight * (with_feature - without)
    return total, skipped


# Reference tokenizer: a walk over the text one character at a time that
# tracks line and column as it goes.

_PUNCT_CHARS = set("(),|&!~=")


def tokenize_by_characters(text: str, extra_name_chars: str = "") -> list[Token]:
    """Split `text` into names, quoted strings and punctuation.

    Names are alphanumeric/underscore runs, optionally extended with
    `extra_name_chars` (the lineage grammar admits ids like ``R:0``).
    ``:-`` is a single token; any other character is rejected.
    """
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        start_line, start_col = line, col
        if ch in "'\"":
            j = i + 1
            while j < n and text[j] != ch:
                if text[j] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            tokens.append(Token("string", text[i + 1 : j], start_line, start_col))
            advance(j + 1 - i)
            continue
        if ch == ":" and i + 1 < n and text[i + 1] == "-" and ":" not in extra_name_chars:
            tokens.append(Token("punct", ":-", start_line, start_col))
            advance(2)
            continue
        if ch.isalnum() or ch == "_" or ch in extra_name_chars:
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_" or text[j] in extra_name_chars):
                j += 1
            tokens.append(Token("name", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if ch in _PUNCT_CHARS:
            tokens.append(Token("punct", ch, start_line, start_col))
            advance(1)
            continue
        raise ParseError(f"unknown token {ch!r}", start_line, start_col)

    tokens.append(Token("end", "", line, col))
    return tokens


def all_entities(width: int):
    """Every entity of the given width, in index order (binary counting),
    refused past the enumeration limit."""
    check_free_width(width)
    for bits in product((0, 1), repeat=width):
        yield Entity(bits)


def with_bits(entity: Entity, changes) -> Entity:
    """The entity with bit i set to `changes[i]` for each i in `changes`."""
    bits = list(entity.bits)
    for index, bit in changes.items():
        bits[index] = bit
    return Entity(tuple(bits))


def flip(entity: Entity, *indices: int) -> Entity:
    """The entity with the bit at each of the distinct `indices` changed."""
    return with_bits(entity, {i: 1 - entity.bits[i] for i in indices})


def truth_table_by_csv(path) -> tuple[list[str], dict[tuple[int, ...], int]]:
    """Feature names and {bits: label} of a well-formed truth-table CSV,
    read with the `csv` module's own reader: the cells stripped, a leading
    byte-order mark dropped and the `label` column taken out by name."""
    import csv

    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *rows = csv.reader(fh)
    header = [h.strip() for h in header]
    at = header.index("label")
    table = {}
    for row in rows:
        cells = [int(c.strip()) for c in row]
        label = cells.pop(at)
        table[tuple(cells)] = label
    return header[:at] + header[at + 1 :], table


# ---------------------------------------------------------------------------
# Constraints only the tests build


def denial(space: FeatureSpace, positive, negative) -> Constraint:
    """The constraint forbidding "all of `positive` are 1 and all of
    `negative` are 0"."""
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
    return Constraint(space=space, root=formula.Not(body))


def is_satisfiable(constraint: Constraint) -> bool:
    return any(constraint.satisfied_by(e) for e in all_entities(constraint.space.width))


# ---------------------------------------------------------------------------
# Record-tree walks: the tuple-score walks as they ran over formula records


def lineage_game(lineage: reldb.Lineage, players=None) -> Game:
    """The 0/1 game over the lineage support; a coalition wins when the
    formula is true with exactly that coalition present.

    `players` (default: the support) may add null players, such as the
    other tuples of the instance; with every tuple of `db` this is the
    query game of the query whose lineage it is.
    """

    def value(coalition):
        return 1 if lineage.evaluate(coalition) else 0

    return Game(players=tuple(lineage.support() if players is None else players), value=value)


def expand_by_records(root: formula.Node, present, wanted, charge) -> tuple[list, dict]:
    """Probability of `root` and the swings of its `wanted` tuples by the
    memoized Shannon expansion over formula records: each distinct
    sub-formula is expanded once, on its most frequent tuple (least id on
    ties), its branches built by `formula.substitute`; `present(t, poly)`
    multiplies a coefficient list by p_t, and each recurrence charges one
    unit per coefficient it writes."""
    memo: dict = {}

    def mix(t, p0, p1):
        swing = [x - y for x, y in zip_longest(p1, p0, fillvalue=0)]
        out = [x + y for x, y in zip_longest(p0, present(t, swing), fillvalue=0)]
        charge(len(swing) + len(out))
        return out, swing

    def expand(node):
        got = memo.get(node)
        if got is None:
            if isinstance(node, formula.Const):
                got = [int(node.value)], {}
            else:
                occurrences = Counter(formula.occurrences(node))
                t = min(occurrences, key=lambda u: (-occurrences[u], u))
                p1, s1 = expand(formula.substitute(node, {t: True}))
                p0, s0 = expand(formula.substitute(node, {t: False}))
                swings = {u: mix(t, s0.get(u, []), s1.get(u, []))[0] for u in s1.keys() | s0.keys()}
                p, swing = mix(t, p0, p1)
                if t in wanted:
                    swings[t] = swing
                got = p, swings
            memo[node] = got
        return got

    return expand(root)


def swing_counts_by_records(lineage: reldb.Lineage, charge, tuple_ids=None) -> dict:
    """`dbscores.swing_counts` read off `expand_by_records` at a symbolic
    probability, charging each tuple's conversion m units."""
    support = lineage.support()
    wanted = support if tuple_ids is None else support.intersection(tuple_ids)
    _, swings = expand_by_records(lineage.root, lambda t, poly: [0, *poly], wanted, charge)
    m, d = len(support), {}
    for t in sorted(wanted):
        charge(m)
        a = swings.get(t, [])
        d[t] = [sum(x * math.comb(m - 1 - j, k - j) for j, x in enumerate(a[:k + 1])) for k in range(m)]
    return d


def probability_by_records(lineage: reldb.Lineage, probabilities, tuple_id, charge):
    """The lineage probability and `tuple_id`'s swing (None: 0) at the
    probabilities of `dbscores.lineage_probability`, by `expand_by_records`."""
    prob = _presence(sorted(lineage.support()), probabilities)
    wanted = {tuple_id} & lineage.support()
    (total,), swings = expand_by_records(
        lineage.root, lambda t, poly: [prob[t] * c for c in poly], wanted, charge
    )
    return Fraction(total), Fraction(swings.get(tuple_id, [0])[0])


def causes_by_records(lineage: reldb.Lineage, tuple_ids, charge, swings) -> list[CauseReport]:
    """`dbscores.lineage_causes` with each size read off `swings`, and each
    witness searched over sorted names by `games.least_contingency`, every
    candidate tested by two evaluations of the record tree and charged the
    lineage's tuple occurrences."""
    support = lineage.support()
    search = partial(charge, sum(1 for _ in formula.occurrences(lineage.root)))
    reports = []
    for t in sorted(set(tuple_ids)):
        swung = [k for k, d in enumerate(swings.get(t, ())) if d]
        if not swung:
            reports.append(CauseReport(t, False, False, None, None, Fraction(0)))
            continue
        rest = support - {t}
        size = len(rest) - swung[-1]
        gamma = games.least_contingency(
            sorted(rest),
            lambda g: lineage.evaluate(support.difference(g))
            and not lineage.evaluate(rest.difference(g)),
            (size,),
            search,
        )
        reports.append(CauseReport(t, True, not gamma, size, gamma, Fraction(1, size + 1)))
    return reports


def monte_carlo_by_records(lineage: reldb.Lineage, epsilon, delta, seed, players, charge):
    """`dbscores.monte_carlo_shapley` over the players' names: each of the
    `games.sample_orders` credits the player at the first place of a
    min/max walk over the record tree."""
    players = sorted(lineage.support() if players is None else players)
    samples = games.sample_count(epsilon, delta)
    wins = dict.fromkeys(players, 0)
    never = len(players)
    for order in games.sample_orders(players, epsilon, delta, seed, charge):
        first = _first_place(lineage.root, dict(zip(order, range(never))), never)
        if 0 <= first < never:
            wins[order[first]] += 1
    return {p: wins[p] / samples for p in players}


def _first_place(node: formula.Node, place, never: int) -> int:
    # The place in the order whose player first makes the monotone node
    # true: -1 when it holds on the empty prefix, `never` when on none.
    if isinstance(node, formula.Var):
        return place.get(node.name, never)
    if isinstance(node, formula.And):
        return max(_first_place(p, place, never) for p in node.parts)
    if isinstance(node, formula.Or):
        return min(_first_place(p, place, never) for p in node.parts)
    if isinstance(node, formula.Const):
        return -1 if node.value else never
    raise ValueError("a Monte Carlo lineage must be monotone")


def derived_seed_by_hashlib(seed: int, index: int) -> int:
    """The first 8 bytes, big-endian, of hashlib's sha256 of "seed:index"."""
    digest = hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Random instances


def random_monotone_game(rng: random.Random, max_players: int = 6) -> Game:
    """Random monotone 0/1 coverage game with a planted twin of player 0
    and a planted null player (the two highest-numbered players)."""
    core = rng.randint(1, max_players - 2)
    base = list(range(core))
    family = []
    for _ in range(rng.randint(0, 4)):
        size = rng.randint(1, core)
        family.append(frozenset(rng.sample(base, size)))
    twin, null = core, core + 1
    mirrored = [frozenset(t - {0} | {twin}) for t in family if 0 in t]
    winning = family + mirrored

    def value(coalition):
        return 1 if any(coalition >= t for t in winning) else 0

    return Game(players=tuple(base) + (twin, null), value=value)


def random_rational_game(rng: random.Random, n: int) -> Game:
    """Arbitrary (not necessarily monotone) rational-valued table game."""
    players = tuple(range(n))
    table = {}
    for size in range(n + 1):
        for coalition in combinations(players, size):
            table[frozenset(coalition)] = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    return Game(players=players, value=lambda s: table[frozenset(s)])


def substitute_then_simplify(node: formula.Node, assignment: dict) -> formula.Node:
    """Replace the assigned variables by constants, rebuilding every node,
    then constant-propagate each rebuilt node by walking it again."""
    if isinstance(node, formula.Var):
        if node.name in assignment:
            return formula.Const(assignment[node.name])
        return node
    if isinstance(node, formula.Const):
        return node
    if isinstance(node, formula.Not):
        return _simplify(formula.Not(substitute_then_simplify(node.child, assignment)))
    parts = tuple(substitute_then_simplify(p, assignment) for p in node.parts)
    return _simplify(type(node)(parts))


def _simplify(node: formula.Node) -> formula.Node:
    # Constant propagation only: a true part makes an Or true and a false
    # part an And false, the other constants drop out, and a connective
    # left with one part is unwrapped.
    if isinstance(node, (formula.Var, formula.Const)):
        return node
    if isinstance(node, formula.Not):
        child = _simplify(node.child)
        if isinstance(child, formula.Const):
            return formula.Const(not child.value)
        return formula.Not(child)
    parts = tuple(_simplify(p) for p in node.parts)
    absorbing = isinstance(node, formula.Or)
    kept = []
    for part in parts:
        if isinstance(part, formula.Const):
            if part.value == absorbing:
                return formula.Const(absorbing)
            continue
        kept.append(part)
    if not kept:
        return formula.Const(not absorbing)
    if len(kept) == 1:
        return kept[0]
    return type(node)(tuple(kept))


def random_nested_lineage(rng: random.Random, ids, depth: int = 3) -> formula.Node:
    """Random negation-free And/Or tree over some of `ids`, nested rather
    than a DNF, with repeated tuples; ids it misses are null players."""
    if depth == 0 or rng.random() < 0.3:
        return formula.Var(rng.choice(ids))
    kind = rng.choice((formula.And, formula.Or))
    return kind(tuple(random_nested_lineage(rng, ids, depth - 1) for _ in range(rng.randint(2, 3))))


def random_monotone_lineage(rng: random.Random, ids, depth: int = 3) -> formula.Node:
    """Random And/Or tree over some of `ids`, each a tuple, a constant now
    and then, or a connective whose later parts may repeat an earlier one,
    as it is or with its own parts permuted; ids it misses are null players."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return formula.Var(rng.choice(ids))
    if roll < 0.3:
        return rng.choice((formula.TRUE, formula.FALSE))
    parts = []
    for _ in range(rng.randint(2, 3)):
        if parts and rng.random() < 0.3:
            twin = rng.choice(parts)
            if isinstance(twin, (formula.And, formula.Or)):
                twin = type(twin)(tuple(rng.sample(twin.parts, len(twin.parts))))
            parts.append(twin)
        else:
            parts.append(random_monotone_lineage(rng, ids, depth - 1))
    return rng.choice((formula.And, formula.Or))(tuple(parts))


def random_dnf_lineage(rng: random.Random, ids) -> formula.Node:
    """Random negation-free DNF over some of `ids`, some of whose
    disjuncts extend another one, as in `a | (a & b)`: such a b is in the
    support but can never swing the lineage."""
    terms = [rng.sample(ids, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        terms.append(rng.choice(terms) + rng.sample(ids, rng.randint(1, 2)))
    disjuncts = []
    for term in terms:
        names = list(dict.fromkeys(term))
        literals = tuple(formula.Var(n) for n in names)
        disjuncts.append(literals[0] if len(literals) == 1 else formula.And(literals))
    return disjuncts[0] if len(disjuncts) == 1 else formula.Or(tuple(disjuncts))


QUERY_RELATIONS = ("R", "S", "T")
QUERY_VARIABLES = ("x", "y", "z")
QUERY_CONSTANTS = ("a", "b", "c")


def random_sjf_query(rng: random.Random, max_atoms: int = 3) -> reldb.ConjunctiveQuery:
    """Random self-join-free Boolean query over relations R, S, T."""
    atom_count = rng.randint(1, max_atoms)
    parts = []
    for relation in QUERY_RELATIONS[:atom_count]:
        arity = rng.randint(1, 2)
        terms = []
        for _ in range(arity):
            if rng.random() < 0.85:
                terms.append(rng.choice(QUERY_VARIABLES))
            else:
                terms.append('"' + rng.choice(QUERY_CONSTANTS) + '"')
        parts.append(f"{relation}({', '.join(terms)})")
    return reldb.parse_query("Q() :- " + ", ".join(parts))


def random_query(
    rng: random.Random, max_atoms: int = 4, constants: float = 0.0
) -> reldb.ConjunctiveQuery:
    """Random Boolean query, self-joins allowed (at a consistent arity).

    Each term is a constant with probability `constants`, else a variable.
    """
    atom_count = rng.randint(1, max_atoms)
    arities = {r: rng.randint(1, 3) for r in QUERY_RELATIONS}
    parts = []
    for _ in range(atom_count):
        relation = rng.choice(QUERY_RELATIONS)
        terms = [
            '"' + rng.choice(QUERY_CONSTANTS) + '"'
            if constants and rng.random() < constants
            else rng.choice(QUERY_VARIABLES)
            for _ in range(arities[relation])
        ]
        parts.append(f"{relation}({', '.join(terms)})")
    text = "Q() :- " + ", ".join(parts)
    try:
        return reldb.parse_query(text)
    except reldb.ParseError:  # pragma: no cover - the generator emits valid text
        raise AssertionError(text)


def random_database_for(
    rng: random.Random, query: reldb.ConjunctiveQuery, max_tuples: int = 8
) -> reldb.Database:
    """Random instance over the query's relations, at most `max_tuples` rows."""
    arities = {atom.relation: len(atom.terms) for atom in query.atoms}
    db = reldb.Database()
    budget = rng.randint(1, max_tuples)
    for relation in sorted(arities):
        db.add_relation(relation, arities[relation])
    names = sorted(arities)
    rng.shuffle(names)
    for relation in names:
        possible = list(product(QUERY_CONSTANTS, repeat=arities[relation]))
        rng.shuffle(possible)
        take = min(budget, rng.randint(0, len(possible)))
        for row in possible[:take]:
            db.add(relation, row)
        budget -= take
        if budget <= 0:
            break
    return db


def random_truth_table(rng: random.Random, width: int) -> tuple[FeatureSpace, TableClassifier]:
    space = FeatureSpace(tuple(f"F{i + 1}" for i in range(width)))
    table = {bits: rng.randint(0, 1) for bits in product((0, 1), repeat=width)}
    return space, TableClassifier(width, table)


MARGINALS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
DISTRIBUTIONS = ("uniform", "product", "empirical", "conditioned")


def random_distribution(rng: random.Random, space: FeatureSpace, kind: str):
    """Random distribution of one of `DISTRIBUTIONS` over the space.

    Product marginals include 0 and 1; an empirical sample is a random
    non-empty subset of the space; a conditioned distribution restricts a
    random base of the other three kinds by a denial constraint or a
    general formula (`InconsistentConstraintError` when it has no mass).
    """
    if kind == "uniform":
        return UniformDistribution(space)
    if kind == "product":
        marginals = [
            rng.choice(MARGINALS + (Fraction(rng.randint(1, 6), 7),)) for _ in space.names
        ]
        return ProductDistribution(space, marginals)
    if kind == "empirical":
        population = list(all_entities(space.width))
        return EmpiricalDistribution(space, rng.sample(population, rng.randint(1, len(population))))
    base = random_distribution(rng, space, rng.choice(DISTRIBUTIONS[:3]))
    if rng.random() < 0.5:
        chosen = rng.sample(space.names, rng.randint(1, space.width))
        split = rng.randint(0, len(chosen))
        return condition(base, denial(space, chosen[:split], chosen[split:]))
    return condition(base, Constraint(space=space, root=random_formula(rng, space.names)))


def random_formula(rng: random.Random, names, depth: int = 3) -> formula.Node:
    """Random propositional formula with negation over the feature names."""
    if depth == 0 or rng.random() < 0.3:
        return formula.Var(rng.choice(names))
    if rng.random() < 0.2:
        return formula.Not(random_formula(rng, names, depth - 1))
    kind = rng.choice((formula.And, formula.Or))
    return kind(tuple(random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))))
