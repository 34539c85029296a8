"""SGD with online-learned stepsizes, baselines, oracles, and a run harness."""

from .core import RngStream, Trajectory, derive_stream_id, dot, sq_norm, vector
from .online import DEFAULT_ALPHA, FtrlState, RegretLedger, surrogate_loss
from .optimizers import (
    Adam,
    AdaGradCoord,
    AdaGradGlobal,
    Optimizer,
    OptimizerConfig,
    RunResult,
    Sgd,
    SgdGhadimiLan,
    Sgdol,
    SgdolCoord,
    SgdolMomentum,
    run,
    run_lanes,
)
from .oracles import (
    Dataset,
    LibsvmParseError,
    QuadraticOracle,
    RosenbrockOracle,
    SigmoidLossOracle,
    StochasticOracle,
    balance_subsample,
    load_libsvm,
    rosenbrock_f,
    rosenbrock_grad,
    sigmoid_loss_f,
    sigmoid_loss_grad,
)
from .harness import (
    ConfigError,
    ExperimentSpec,
    OracleSpec,
    ResultTable,
    parse_config,
    run_experiment,
    write_csv,
)
from .diagnostics import (
    CheckResult,
    SurrogateBoundVerdict,
    finite_diff_grad,
    ftrl_argmin_oracle,
    run_verification,
    smoothness_probe,
    surrogate_bound_check,
)

__version__ = "0.1.0"
