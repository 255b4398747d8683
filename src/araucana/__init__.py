"""Local tree-based explanations of black-box predictions on tabular data.

Fit an unpruned CART surrogate to the oracle-relabeled, SMOTE-augmented
neighborhood of a query instance and read the explanation off the tree's
decision path. Includes built-in black boxes, a subprocess oracle protocol,
and a fidelity harness with a weighted-linear baseline.
"""

__version__ = "0.1.0"

from .cart import ExplainerTree, decision_path, tree_stats
from .explain import (
    ExplainConfig,
    Explanation,
    Neighborhood,
    Rule,
    TrainLabels,
    explain_instance,
    explain_neighborhoods,
    render_explanation,
    select_neighborhoods,
)
from .fidelity import (
    FidelityReport,
    evaluate_fidelity,
    fit_linear_explainer,
    report_to_csv,
)
from .gower import distance
from .oracle import (
    BuiltinOracle,
    ForestConfig,
    ForestModel,
    KnnModel,
    OracleError,
    PrecomputedOracle,
    PredictionOracle,
    SubprocessOracle,
    load_model,
    save_model,
    train_forest,
    train_knn,
)
from .smote import SmoteConfig, smote_nc
from .tabular import (
    DataError,
    Dataset,
    FeatureSpec,
    Schema,
    SchemaError,
    SynthSpec,
    TargetSpec,
    load_dataset,
    save_dataset,
    synth_dataset,
)
