"""Representative locomotor task selection with neural-network validation.

A batch pipeline that clusters cycle-averaged hip biomechanics (PCA +
k-means with silhouette model selection), scores task representativeness
per cluster, and validates the selected task set by training hip-moment
regression networks under leave-one-subject-out cross-validation.
"""

from .cluster import ClusterModel, adjusted_rand_index, kmeans, select_k, silhouette_score
from .crossval import FoldResult, Metrics, loso_folds, metrics, run_study, split_train_val
from .dataset import (
    FeatureMatrix,
    SampleTable,
    TaskInfo,
    TaskManifest,
    default_task_manifest,
    exclude_subjects,
    load_profiles,
    load_sensor_samples,
    resample_linear,
)
from .errors import (
    ConfigError,
    DataFormatError,
    InsufficientTrialsError,
    MissingArtifactError,
    TaskOptError,
    TrainingDivergedError,
)
from .nn import FcnnConfig, FcnnModel, loss_and_gradients, train
from .pca import PcaModel, pca_fit, pca_transform, select_components
from .stats import (
    AnovaResult,
    PairwiseResult,
    one_way_anova,
    pairwise_bonferroni,
    percent_reduction,
    regularized_incomplete_beta,
)
from .synth import SynthSpec, generate
from .taskselect import (
    TaskSet,
    TaskWeightRow,
    make_conditions,
    representativeness,
    select_representatives,
    task_weight_analysis,
)

__version__ = "0.1.0"
