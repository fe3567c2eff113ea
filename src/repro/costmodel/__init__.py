"""The paper's cost model: observed per-operation coefficients and the
time prediction of §IV-D."""

from repro.costmodel.coefficients import ObservedCoefficients
from repro.costmodel.predictor import TimePrediction, predict_times

__all__ = [
    "ObservedCoefficients",
    "TimePrediction",
    "predict_times",
]
