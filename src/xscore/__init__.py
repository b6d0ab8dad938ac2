"""Explanation scores for database query answers and classifier outputs.

Modules:

* formula   - propositional formulas, and the tokenizer of the text grammars
* games     - exact / Monte Carlo Shapley and Banzhaf for oracle games
* reldb     - relational instances, conjunctive queries, lineage
* dbscores  - responsibility, causal effect, tuple Shapley / Banzhaf
* classify  - entities, classifiers, constraints, distributions
* clfserver - the reference external classifier and its bit-CSV readers
* mlscores  - SHAP, COUNTER and RESP feature scores
* cli       - the `xscore` command-line interface
"""

__version__ = "0.1.0"
