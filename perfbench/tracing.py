"""Traced in-process run: per-layer time and work counters.

The benchmark's own wrappers go around the public functions at each layer
boundary of `xscore` (cli, reldb, formula, games, dbscores, classify,
mlscores); nothing in the package changes.  A function imported with
`from ... import` is patched in every namespace that holds it.  Three kinds
of wrapper:

* span: one (id, name, start, end, parent, request) record per call, kept
  in memory and written out when the run ends;
* hot: timed and counted, but aggregated instead of recorded per call,
  for functions called once per coalition;
* count: counted only, for the hottest leaves.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  A wrapper that is re-entered (recursion) passes straight
through, so a recursive function counts once per outside call.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

IMPORT_REPEATS = 5
MIN_TRACED_PASSES = 2

# Per-layer time metric -> (total "s" or self time "self", wrapped call name).
TIMES = {
    "cli.main.s": ("s", "cli.main"),
    "cli.main.self_s": ("self", "cli.main"),
    "reldb.load_csv.s": ("s", "reldb.load_csv"),
    "reldb.compile_lineage.s": ("s", "reldb.compile_lineage"),
    "reldb.evaluate.s": ("s", "reldb.evaluate"),
    "reldb.Database.restrict.s": ("s", "reldb.Database.restrict"),
    "formula.to_text.s": ("s", "formula.to_text"),
    "games.shapley_all.s": ("s", "games.shapley_all"),
    "games.banzhaf_all.s": ("s", "games.banzhaf_all"),
    "games.shapley_monte_carlo.s": ("s", "games.shapley_monte_carlo"),
    "games.oracle.s": ("s", "games.oracle"),
    "dbscores.lineage_causes.s": ("s", "dbscores.lineage_causes"),
    "dbscores.causal_effect.s": ("s", "dbscores.causal_effect"),
    "dbscores.lineage_probability.s": ("s", "dbscores.lineage_probability"),
    "classify.conditional_expectation.s": ("s", "classify.conditional_expectation"),
    "classify.condition.s": ("s", "classify.condition"),
    "classify.ExternalClassifier.start_s": ("s", "classify.ExternalClassifier.start"),
    "classify.ExternalClassifier.roundtrip_s": ("s", "classify.ExternalClassifier.roundtrip"),
    "mlscores.score_all.s": ("s", "mlscores.score_all"),
    "mlscores.counter.s": ("s", "mlscores.counter"),
    "mlscores.resp.s": ("s", "mlscores.resp"),
}
ENGINE = ("games.shapley_all", "games.banzhaf_all", "games.shapley_monte_carlo")
COUNTS = (
    "reldb.lineage.disjuncts",
    "reldb.evaluate.calls",
    "reldb.Database.restrict.calls",
    "formula.evaluate.calls",
    "games.oracle.calls",
    "dbscores.lineage_probability.calls",
    "dbscores.valuations",
    "classify.conditional_expectation.calls",
    "classify.label.calls",
    "classify.label.distinct",
    "mlscores.resp.candidates",
)


class Tracer:
    """Spans and counters of the wrapped calls of one pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = ""
        self._next_id = 0
        self._stack: list[list] = []  # open calls: [child seconds, span id]
        self._busy: set[str] = set()
        self._labelled: set[tuple] = set()
        self.reset()

    def reset(self) -> None:
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()

    def begin_request(self, request: str) -> None:
        self.request = request
        self._labelled.clear()

    def end_request(self) -> None:
        self.counts["classify.label.distinct"] += len(self._labelled)

    def timed(self, name: str, fn, span: bool = True, after=None):
        busy, stack = self._busy, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in busy:
                return fn(*args, **kwargs)
            busy.add(name)
            parent = stack[-1][1] if stack else None
            if span:
                self._next_id += 1
                frame = [0.0, self._next_id]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                busy.discard(name)
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.seconds[name] += duration
                self.self_seconds[name] += duration - frame[0]
                self.counts[name + ".calls"] += 1
                if span:
                    self.spans.append((frame[1], name, start, end, parent, self.request))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, on_call=None):
        busy = self._busy

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in busy:
                return fn(*args, **kwargs)
            busy.add(name)
            self.counts[name] += 1
            if on_call is not None:
                on_call(args)
            try:
                return fn(*args, **kwargs)
            finally:
                busy.discard(name)

        return wrapper

    def metrics(self) -> dict[str, float]:
        out = {name: (self.seconds if kind == "s" else self.self_seconds)[key]
               for name, (kind, key) in TIMES.items()}
        out["games.engine.self_s"] = sum(self.self_seconds[k] for k in ENGINE)
        out.update({name: self.counts[name] for name in COUNTS})
        calls = self.counts["classify.label.calls"]
        out["classify.label.hit_ratio"] = (
            1 - self.counts["classify.label.distinct"] / calls if calls else 0.0)
        return out


class Patches:
    """Installs and removes the wrappers around xscore's layer boundaries."""

    def __init__(self, tracer: Tracer):
        from xscore import classify, cli, dbscores, formula, games, mlscores, reldb

        self.modules = (classify, cli, dbscores, formula, games, mlscores, reldb)
        self.tracer = tracer
        self.saved: list[tuple] = []
        t = tracer

        def disjuncts(args, lineage):
            root = lineage.root
            t.counts["reldb.lineage.disjuncts"] += (
                len(root.parts) if isinstance(root, formula.Or)
                else int(root != formula.FALSE))

        def valuations(args, result):
            t.counts["dbscores.valuations"] += 2 ** len(args[0].support())

        def label(args):
            t._labelled.add((id(args[0]), args[1].bits))
            if "mlscores.resp" in t._busy:
                t.counts["mlscores.resp.candidates"] += 1

        post_init = games.Game.__post_init__

        def traced_post_init(game):
            post_init(game)
            object.__setattr__(game, "value", t.timed("games.oracle", game.value, span=False))

        span = {"span": True}
        hot = {"span": False}
        self.plan = [
            (reldb, "load_csv", span, None),
            (reldb, "parse_query", span, None),
            (reldb, "parse_lineage", span, None),
            (reldb, "compile_lineage", span, disjuncts),
            (reldb, "evaluate", hot, None),
            (reldb.Database, "restrict", hot, None),
            (formula, "to_text", span, None),
            (games, "shapley_all", span, None),
            (games, "banzhaf_all", span, None),
            (games, "shapley_monte_carlo", span, None),
            (dbscores, "lineage_causes", span, None),
            (dbscores, "causal_effect", span, None),
            (dbscores, "lineage_probability", span, valuations),
            (classify, "load_truth_table_csv", span, None),
            (classify, "load_sample_csv", span, None),
            (classify, "parse_constraint", span, None),
            (classify, "condition", span, None),
            (classify, "conditional_expectation", hot, None),
            (classify.ExternalClassifier, "__init__", span, None, "start"),
            (classify.ExternalClassifier, "_label", hot, None, "roundtrip"),
            (classify.ExternalClassifier, "close", span, None),
            (mlscores, "score_all", span, None),
            (mlscores, "shap", span, None),
            (mlscores, "counter", span, None),
            (mlscores, "resp", span, None),
        ]
        self.extra = [
            (formula, "evaluate", t.counted("formula.evaluate.calls", formula.evaluate)),
            (classify.Classifier, "label",
             t.counted("classify.label.calls", classify.Classifier.label, label)),
            (games.Game, "__post_init__", traced_post_init),
        ]
        self.main = t.timed("cli.main", cli.main)

    def install(self) -> None:
        for owner, attr, options, after, *alias in self.plan:
            fn = getattr(owner, attr)
            module = fn.__module__.rsplit(".", 1)[-1]
            owner_name = module if owner in self.modules else f"{module}.{owner.__name__}"
            name = f"{owner_name}.{alias[0] if alias else attr}"
            self._replace(owner, attr, fn, self.tracer.timed(name, fn, after=after, **options))
        for owner, attr, wrapper in self.extra:
            self._replace(owner, attr, getattr(owner, attr), wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self.saved):
            setattr(target, attr, original)
        self.saved.clear()

    def _replace(self, owner, attr, fn, wrapper) -> None:
        # A module-level function is patched wherever it was imported to.
        targets = [owner] if owner not in self.modules else [
            m for m in self.modules if vars(m).get(attr) is fn or m is owner]
        for target in targets:
            self.saved.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)


def _import_seconds(src) -> float:
    code = "import time; t = time.perf_counter(); import xscore.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    times = []
    for i in range(IMPORT_REPEATS + 1):  # the first run writes bytecode caches
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        if i:
            times.append(float(out))
    return statistics.median(times)


def run(requests, seconds: float, src, verifier, spans_path) -> dict:
    """Alternate untraced and traced in-process passes for `seconds`."""
    import_s = _import_seconds(src)
    os.environ.pop("XSCORE_BUDGET", None)
    # The classifier server child needs the package on its path too.
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    from xscore import cli

    tracer = Tracer()
    patches = Patches(tracer)
    pass_seconds: dict[bool, list[float]] = {False: [], True: []}
    per_pass: list[dict] = []  # layer metrics of each traced pass
    attempted = failed = 0
    # Untraced and traced passes in the order F T T F F T T ..., so that
    # neither side always runs first; the run ends after the pass that
    # fulfils every minimum.
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds or not pass_seconds[False]
           or len(pass_seconds[True]) < MIN_TRACED_PASSES):
        passes = len(pass_seconds[False]) + len(pass_seconds[True])
        traced = passes % 4 in (1, 2)
        tracer.reset()
        main = cli.main
        if traced:
            patches.install()
            main = patches.main
        try:
            total = 0.0
            for index, request in enumerate(requests):
                tracer.begin_request(f"{len(per_pass)}:{index}")
                out = io.StringIO()
                begin = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out):
                        code = main(list(request.argv))
                except Exception as exc:  # noqa: BLE001 - an xscore crash fails the request
                    code = repr(exc)
                total += time.perf_counter() - begin
                tracer.end_request()
                attempted += 1
                if code != 0:
                    count = verifier.fail(request, [f"exit {code}"])
                else:
                    count = verifier.verify(index, request, out.getvalue())
                failed += count is None
        finally:
            if traced:
                patches.uninstall()
        pass_seconds[traced].append(total)
        if traced:
            per_pass.append(tracer.metrics())

    counts = [{k: m[k] for k in COUNTS} for m in per_pass]
    unstable = any(c != counts[0] for c in counts)
    if unstable:
        verifier.problems.append("work counters differ between traced passes")
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    values.update(counts[0])
    untraced = statistics.median(pass_seconds[False])
    traced = statistics.median(pass_seconds[True])
    values.update({
        "cli.import_s": import_s,
        "trace.untraced_run_s": untraced,
        "trace.traced_run_s": traced,
        "trace.overhead_ratio": traced / untraced,
    })
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "request"],
                   "spans": tracer.spans}, fh)
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "unstable": unstable,
        "counters_per_pass": counts,
        "passes": pass_seconds,
    }

