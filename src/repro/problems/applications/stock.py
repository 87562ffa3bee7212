"""Neuro-genetic daily stock prediction (Kwon & Moon 2003).

"Traditional indicators of stock prediction are utilized to produce useful
input features of neural networks.  The genetic algorithm optimizes the
neural networks under a 2D encoding and crossover … A notable improvement
on the average buy-and-hold strategy was observed."

Substitution: a synthetic daily price series — geometric Brownian motion
plus a mean-reverting *predictable* component — stands in for the Korean
market data.  The predictable component is what a good network can exploit
to beat buy-and-hold; its amplitude controls task difficulty.  The network
is a one-hidden-layer tanh MLP whose weight matrix is evolved under the
2-D encoding (rows = hidden units), matching the paper's representation,
with :class:`~repro.core.operators.crossover.TwoDimensionalCrossover` as
the natural operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ...core.genome import RealVectorSpec
from ...core.problem import Problem
from ...core.rng import ensure_rng

__all__ = ["synthetic_prices", "technical_indicators", "StockPrediction", "TradingOutcome"]


def synthetic_prices(
    days: int = 600,
    *,
    drift: float = 0.0002,
    volatility: float = 0.015,
    signal_strength: float = 0.004,
    signal_period: int = 15,
    seed: int = 0,
) -> np.ndarray:
    """GBM price path with an exploitable mean-reverting component.

    The deterministic-ish oscillation of amplitude ``signal_strength``
    gives learning algorithms something real to find; with
    ``signal_strength=0`` the series is an efficient-market control where
    nothing should beat buy-and-hold in expectation.
    """
    if days < 50:
        raise ValueError(f"need >= 50 days, got {days}")
    rng = ensure_rng(seed)
    shocks = rng.normal(drift, volatility, size=days)
    t = np.arange(days)
    # slowly phase-drifting oscillation: predictable from recent history
    phase = 2.0 * np.pi * t / signal_period + 0.5 * np.sin(2 * np.pi * t / 97.0)
    signal = signal_strength * np.sin(phase)
    log_prices = np.cumsum(shocks + signal)
    return 100.0 * np.exp(log_prices - log_prices[0])


def technical_indicators(prices: np.ndarray, window: int = 20) -> np.ndarray:
    """Classic indicator matrix (one row per day, NaN-free after warmup).

    Columns: 1-day return, 5-day momentum, price/SMA5 − 1, price/SMA20 − 1,
    rolling volatility, RSI-like up-fraction, stochastic %K.  The rolling
    columns look back over the last ``window`` days, or all days so far
    while fewer have passed; the SMAs likewise over 5 and 20 days.
    """
    n = prices.shape[0]
    days = np.arange(n)
    ret1 = np.zeros(n)
    ret1[1:] = prices[1:] / prices[:-1] - 1.0

    def trailing_mean(values: np.ndarray, k: int) -> np.ndarray:
        c = np.cumsum(np.insert(values, 0, 0.0))
        start = np.maximum(0, days - k + 1)
        return (c[days + 1] - c[start]) / (days + 1 - start)

    sma5, sma20 = trailing_mean(prices, 5), trailing_mean(prices, 20)
    mom5 = np.zeros(n)
    mom5[5:] = prices[5:] / prices[:-5] - 1.0
    up_frac = trailing_mean((ret1 > 0).astype(float), window)

    # full windows from a sliding view; the warm-up rows (fewer than
    # `window` days so far) as running extremes and short std calls, since
    # a prefix-sum variance would not add in numpy's order
    warm = min(window - 1, n)
    vol = np.empty(n)
    lo, hi = np.empty(n), np.empty(n)
    vol[:warm] = [ret1[: i + 1].std() for i in range(warm)]
    lo[:warm] = np.minimum.accumulate(prices[:warm])
    hi[:warm] = np.maximum.accumulate(prices[:warm])
    if n >= window:
        vol[warm:] = sliding_window_view(ret1, window).std(axis=1)
        prices_windows = sliding_window_view(prices, window)
        lo[warm:] = prices_windows.min(axis=1)
        hi[warm:] = prices_windows.max(axis=1)
    stoch = np.divide(prices - lo, hi - lo, out=np.full(n, 0.5), where=hi != lo)
    feats = np.stack(
        [ret1, mom5, prices / sma5 - 1.0, prices / sma20 - 1.0, vol, up_frac, stoch],
        axis=1,
    )
    return feats


@dataclass
class TradingOutcome:
    """Return comparison for one weight vector on one span."""

    strategy_return: float
    buy_and_hold_return: float

    @property
    def excess(self) -> float:
        return self.strategy_return - self.buy_and_hold_return


class StockPrediction(Problem):
    """Evolve MLP weights that trade the synthetic market.

    Genome layout (2-D encoding): ``hidden x (n_features + 1)`` input
    weights+bias rows, flattened, followed by ``hidden + 1`` output
    weights+bias.  Network: tanh hidden layer, tanh output in (-1, 1)
    interpreted as position (long/short fraction).  Fitness = total return
    of the strategy over the training span (maximise).
    """

    def __init__(
        self,
        prices: np.ndarray | None = None,
        *,
        hidden: int = 6,
        train_fraction: float = 0.7,
        transaction_cost: float = 0.0005,
        seed: int = 0,
    ) -> None:
        if prices is None:
            prices = synthetic_prices(seed=seed)
        if not 0.1 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0.1, 1)")
        self.prices = np.asarray(prices, dtype=float)
        self.hidden = hidden
        self.transaction_cost = transaction_cost
        feats = technical_indicators(self.prices)
        warmup = 25
        self.features = feats[warmup:-1]  # predict the *next* day's return
        rets = self.prices[1:] / self.prices[:-1] - 1.0
        self.next_returns = rets[warmup:]
        n = self.features.shape[0]
        split = int(n * train_fraction)
        self._train = slice(0, split)
        self._test = slice(split, n)
        self.n_features = self.features.shape[1]
        self.rows = hidden
        self.cols = self.n_features + 1
        n_weights = self.rows * self.cols + hidden + 1
        self.spec = RealVectorSpec(n_weights, -3.0, 3.0)
        self.maximize = True

    # -- network ------------------------------------------------------------------------
    def _positions(self, genome: np.ndarray, span: slice) -> np.ndarray:
        W = genome[: self.rows * self.cols].reshape(self.rows, self.cols)
        rest = genome[self.rows * self.cols :]
        v, b_out = rest[: self.hidden], rest[self.hidden]
        X = self.features[span]
        h = np.tanh(X @ W[:, :-1].T + W[:, -1])
        return np.tanh(h @ v + b_out)  # position in [-1, 1]

    def _strategy_return(self, genome: np.ndarray, span: slice) -> float:
        pos = self._positions(genome, span)
        rets = self.next_returns[span]
        # np.abs(np.diff(pos, prepend=0.0)) without the concatenation
        turnover = np.empty_like(pos)
        np.subtract(pos[:1], 0.0, out=turnover[:1])
        np.subtract(pos[1:], pos[:-1], out=turnover[1:])
        np.abs(turnover, out=turnover)
        daily = pos * rets - self.transaction_cost * turnover
        return float(np.exp(np.log1p(np.maximum(daily, -0.99)).sum()) - 1.0)

    def buy_and_hold(self, span: slice | None = None) -> float:
        span = span if span is not None else self._train
        rets = self.next_returns[span]
        return float(np.exp(np.log1p(rets).sum()) - 1.0)

    # -- Problem interface ---------------------------------------------------------------
    def evaluate(self, genome: np.ndarray) -> float:
        return self._strategy_return(genome, self._train)

    def out_of_sample(self, genome: np.ndarray) -> TradingOutcome:
        """Honest held-out comparison against buy-and-hold."""
        return TradingOutcome(
            strategy_return=self._strategy_return(genome, self._test),
            buy_and_hold_return=self.buy_and_hold(self._test),
        )
