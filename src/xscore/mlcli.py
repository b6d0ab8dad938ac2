"""The classifier subcommand, `ml-scores`.  `cli` imports this module only
to run it; `declare_ml_scores` gives its parser the arguments and handler."""
from __future__ import annotations

from pathlib import Path

from . import classify, cli, meter, mlscores, text_lines


def declare_ml_scores(parser) -> None:
    cli.add_common_arguments(parser, scoring=True)
    add = parser.add_argument
    add("--classifier", type=Path, help="truth-table CSV (all 2^n rows)")
    add("--classifier-cmd", help="external classifier command speaking the xscore-clf protocol")
    add("--features", help="comma-separated feature names (external classifier)")
    add("--entity", required=True, help="entity bits, e.g. 011")
    add("--kinds", default="shap,counter,resp", help="comma-separated subset of shap,counter,resp")
    add("--distribution", choices=("uniform", "empirical", "product"), default="uniform")
    add("--sample", type=Path, help="sample CSV (empirical / product estimation)")
    add("--marginals", help="comma-separated marginals for the product variant")
    add("--constraint", action="append", default=[], help="constraint text (repeatable)")
    add("--constraint-file", type=Path, help="file with one constraint per line")
    add("--dedupe", action="store_true", help="drop duplicate sample entities")
    add("--target-label", type=int, choices=(0, 1), default=1)
    add("--max-contingency", type=int, default=None)
    add("--skip-zero-mass", action="store_true",
        help="drop zero-mass coalitions from SHAP sums instead of failing")
    parser.set_defaults(handler=_cmd_ml_scores)


def _cmd_ml_scores(args) -> list[dict]:
    charge = meter(cli.work_budget(args))
    kinds = cli.split_kinds(args.kinds, mlscores.SCORE_KINDS)
    space, clf, sample = _resolve_classifier(args)
    with clf:
        if space is None:  # a command classifier: --features names it, or F1..Fn
            names = [f"F{i + 1}" for i in range(clf.width)]
            if args.features is not None:
                names = [n.strip() for n in args.features.split(",")]
                if not all(names):
                    raise ValueError(
                        f"--features expects comma-separated names, got {args.features!r}"
                    )
            space = classify.FeatureSpace(tuple(names))
            if space.width != clf.width:
                raise ValueError(
                    f"--features names {space.width} features, classifier serves {clf.width}"
                )
        entity = classify.Entity.from_bits(args.entity)
        if entity.width != space.width:
            raise ValueError(
                f"entity has {entity.width} bits, the feature space has {space.width}"
            )
        distribution = _resolve_distribution(args, space, sample)
        distribution = _apply_constraints(args, space, distribution)
        request = mlscores.ExplanationRequest(
            entity=entity,
            classifier=clf,
            distribution=distribution,
            target_label=args.target_label,
            max_contingency=args.max_contingency,
            skip_zero_mass=args.skip_zero_mass,
        )
        scores = mlscores.score_all(request, kinds, charge)
    return [_feature_record(s) for s in scores]


def _resolve_classifier(args):
    if args.classifier is not None and args.classifier_cmd is not None:
        raise ValueError("--classifier and --classifier-cmd are mutually exclusive")
    sample = None
    if args.sample is not None:
        sample = classify.load_sample_csv(args.sample, dedupe=args.dedupe)
    if args.classifier is not None:
        space, clf = classify.load_truth_table_csv(args.classifier)
        if args.features is not None:
            raise ValueError("--features conflicts with --classifier (header names win)")
        return space, clf, sample
    if args.classifier_cmd is not None:
        import shlex
        return None, classify.ExternalClassifier(shlex.split(args.classifier_cmd)), sample
    # No classifier: labels must come from the sample itself.
    if sample is None or sample.labels is None:
        raise ValueError(
            "no classifier given: provide --classifier, --classifier-cmd, "
            "or --sample with a _label column"
        )
    if args.distribution != "empirical":
        raise ValueError("sample-labeled scoring needs --distribution empirical")
    table = ((e.bits, label) for e, label in sample.labels.items())
    return sample.space, classify.TableClassifier(sample.space.width, table, total=False), sample


def _resolve_distribution(args, space, sample):
    if args.marginals is not None and args.distribution != "product":
        raise ValueError("--marginals is only valid with --distribution product")
    if args.distribution == "uniform":
        return classify.UniformDistribution(space)
    if args.distribution == "empirical":
        if sample is None:
            raise ValueError("--distribution empirical needs --sample")
        _check_sample_space(space, sample)
        return classify.EmpiricalDistribution(space, sample.entities)
    if args.marginals is not None:
        marginals = [cli.rational_arg("--marginals", m) for m in args.marginals.split(",")]
        return classify.ProductDistribution(space, marginals)
    if sample is None:
        raise ValueError("--distribution product needs --marginals or --sample")
    _check_sample_space(space, sample)
    return classify.ProductDistribution.from_sample(space, sample.entities)


def _check_sample_space(space, sample):
    if sample.space.names != space.names:
        raise ValueError(
            f"sample features {sample.space.names} do not match classifier features {space.names}"
        )


def _apply_constraints(args, space, distribution):
    texts = list(args.constraint)
    if args.constraint_file is not None:
        for line in "".join(text_lines(args.constraint_file)).splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                texts.append(line)
    if not texts:
        return distribution
    constraints = [classify.parse_constraint(t, space) for t in texts]
    return classify.condition(distribution, constraints)


def _feature_record(score) -> dict:
    record = {
        "type": "feature_score",
        "feature": score.feature,
        "kind": score.kind,
    }
    record.update(cli.rational_fields(score.value))
    if score.kind == "resp":
        record["explanation_kind"] = score.explanation_kind
        record["witness"] = (
            None
            if score.witness is None
            else {
                "contingency": list(score.witness.contingency),
                "contingency_values": list(score.witness.contingency_values),
                "replacement": score.witness.replacement,
                "entity": str(score.witness.entity),
            }
        )
    return record
