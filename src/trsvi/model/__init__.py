"""Factor-structured target distributions: layered Bayes nets and sensor
network localization posteriors."""

from .bayesnet import (
    BayesNetConfig,
    BayesNetModel,
    BayesNetSpec,
    BayesNode,
    ancestral_sample,
    bayes_net_layout,
    generate_bayes_net,
)
from .layout import (
    FactorLayout,
    SingularityError,
    TargetModel,
)
from .serialization import (
    SAMPLE_INDEX,
    dump_yaml,
    load_problem,
    load_samples_binary,
    load_samples_csv,
    load_verified_twin,
    load_yaml,
    problem_from_dict,
    problem_to_dict,
    read_sample_index,
    save_problem,
    save_samples_binary,
    save_samples_csv,
    twin_path,
    write_sample_index,
)
from .snlp import SnlpConfig, SnlpEdge, SnlpModel, SnlpProblem, build_snlp, snlp_layout

__all__ = [
    "BayesNetConfig",
    "BayesNetModel",
    "BayesNetSpec",
    "BayesNode",
    "FactorLayout",
    "SAMPLE_INDEX",
    "SingularityError",
    "SnlpConfig",
    "SnlpEdge",
    "SnlpModel",
    "SnlpProblem",
    "TargetModel",
    "ancestral_sample",
    "bayes_net_layout",
    "build_snlp",
    "dump_yaml",
    "generate_bayes_net",
    "load_problem",
    "load_samples_binary",
    "load_samples_csv",
    "load_verified_twin",
    "load_yaml",
    "problem_from_dict",
    "problem_to_dict",
    "read_sample_index",
    "save_problem",
    "save_samples_binary",
    "save_samples_csv",
    "twin_path",
    "write_sample_index",
    "snlp_layout",
]
