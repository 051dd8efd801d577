"""Time-series forecasting with 4D hypercomplex dense layers and classical
Conv1D/LSTM baselines, plus the grid-search comparison tooling around them."""

__version__ = "0.1.0"

from .algebra import AlgebraKind, hmul, left_mul_matrix, table_for
from .nn import (Activation, Conv1D, Dense, Dropout, Flatten, HyperDense,
                 LSTM, MaxPool1D, ShapeError)
from .model import Model, ModelSpec, build, load_model
from .train import (Adam, TrainConfig, evaluate, fit, mae, mse, mse_grad,
                    write_history_csv)
from .data import (Scaler, SeriesTable, SplitPlan, WindowedDataset, align,
                   load_csv, load_manifest, make_windows, split, standardize)
from .analysis import (CorrelationMatrix, LaggedCorrelation,
                       all_pair_lag_curves, correlation_matrix,
                       lagged_correlation, pearson)
from .search import (Grid, SearchResult, cross_validate, enumerate_specs,
                     run_search)

__all__ = [
    "AlgebraKind", "hmul", "left_mul_matrix", "table_for",
    "Activation", "Conv1D", "Dense", "Dropout", "Flatten", "HyperDense",
    "LSTM", "MaxPool1D", "ShapeError",
    "Model", "ModelSpec", "build", "load_model",
    "Adam", "TrainConfig", "evaluate", "fit", "mae", "mse", "mse_grad",
    "write_history_csv",
    "Scaler", "SeriesTable", "SplitPlan", "WindowedDataset", "align",
    "load_csv", "load_manifest", "make_windows", "split", "standardize",
    "CorrelationMatrix", "LaggedCorrelation", "all_pair_lag_curves",
    "correlation_matrix", "lagged_correlation", "pearson",
    "Grid", "SearchResult", "cross_validate", "enumerate_specs", "run_search",
    "__version__",
]
