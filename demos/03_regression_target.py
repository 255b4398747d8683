"""Regression explanations: the same pipeline with a numeric target.

CART handles regression natively, so the surrogate works unchanged; only
SMOTE is disabled (class-based oversampling is undefined for numeric
targets) and faithfulness becomes an epsilon comparison.
"""

import numpy as np

from araucana import (
    BuiltinOracle,
    Dataset,
    ExplainConfig,
    ForestConfig,
    Schema,
    SynthSpec,
    TargetSpec,
    explain_instance,
    render_explanation,
    synth_dataset,
    train_forest,
)


def main():
    base = synth_dataset(SynthSpec("imbalanced_mixed", 600), seed=10)
    schema = Schema(base.schema.features, TargetSpec("risk", "regression"))
    y = base.X[:, 0] * np.sin(base.X[:, 1]) + 0.5 * base.X[:, 2] ** 2
    train = Dataset(schema, base.X, y)

    regressor = BuiltinOracle(train_forest(train, ForestConfig(n_trees=50, seed=11)))

    query = synth_dataset(SynthSpec("imbalanced_mixed", 1), seed=77).X[0]
    explanation = explain_instance(train, query, regressor, ExplainConfig(seed=10))

    print(render_explanation(explanation, "text").decode())
    tree_value = explanation.rule.prediction
    oracle_value = float(explanation.oracle_label)
    print(f"tree prediction:   {tree_value:.9f}")
    print(f"oracle prediction: {oracle_value:.9f}")
    print(f"difference:        {abs(tree_value - oracle_value):.2e}")
    print("smote echo:", explanation.config["smote"])


if __name__ == "__main__":
    main()
