import math
import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import sigmoid_scalar

import adaptok
from adaptok import (
    DEFAULT_TAU,
    MU_PRESETS,
    BudgetSplit,
    CompressConfig,
    InvalidInputError,
    allocate_budget,
)
from adaptok.budget import _logistic


def _cfg(T=64, mu=0.42, tau=0.02, **kw):
    return CompressConfig(total_budget=T, mu=mu, tau=tau, **kw)


class TestAllocateBudget:
    def test_extreme_entropies_with_defaults(self):
        lo = allocate_budget(0.0, _cfg(T=64))
        hi = allocate_budget(1.0, _cfg(T=64))
        assert lo.t_cov == 0  # saliency-dominant regime
        assert hi.t_cov == 63  # coverage-dominant regime, t_sal stays >= 1
        assert hi.t_sal == 1

    def test_matches_direct_sigmoid_across_grid(self):
        cfg = _cfg(T=128)
        for h in np.linspace(0.0, 1.0, 101):
            split = allocate_budget(float(h), cfg)
            assert split.t_cov == math.floor(128 * sigmoid_scalar((h - 0.42) / 0.02))

    def test_saliency_floor_under_saturated_sigmoid(self):
        # tau small enough that the float64 logistic returns exactly 1.0
        split = allocate_budget(1.0, _cfg(T=64, mu=0.5, tau=1e-4))
        assert split.t_sal == 1
        assert 0.0 < split.coverage_ratio < 1.0


class TestCompressConfig:
    def test_presets(self):
        assert MU_PRESETS["clip"] == 0.42
        assert MU_PRESETS["qwen25vl"] == 0.5744
        assert DEFAULT_TAU == 0.02

    def test_defaults(self):
        cfg = CompressConfig(total_budget=64)
        assert cfg.mu == 0.42
        assert cfg.tau == 0.02
        assert cfg.diversity_method == "dpp"

    def test_validation(self):
        with pytest.raises(InvalidInputError, match="^unknown diversity method 'kmeans'"):
            CompressConfig(total_budget=8, diversity_method="kmeans")

    def test_numpy_integer_budget_stored_as_int(self):
        cfg = CompressConfig(total_budget=np.int64(8))
        assert type(cfg.total_budget) is int and cfg.total_budget == 8


class TestBudgetSplit:
    def test_numpy_integer_parts_stored_as_int(self):
        split = BudgetSplit(np.int64(3), np.int32(9), 0.5, 0.75)
        assert (split.t_sal, split.t_cov) == (3, 9)
        assert type(split.t_sal) is type(split.t_cov) is int


class TestLogistic:
    def test_bitwise_equal_to_scipy_expit(self):
        expit = pytest.importorskip("scipy.special").expit
        rng = np.random.default_rng(3)
        xs = np.concatenate(
            [
                np.linspace(-50.0, 50.0, 200_001),
                rng.standard_normal(100_000) * 20.0,
                # e^-x overflows below x = -709.78 and underflows to 0 above 745.13
                np.linspace(-1e6, 1e6, 20_001),
                np.linspace(-760.0, 760.0, 20_001),
                [0.0, -0.0, 709.78, -709.78, 745.2, -745.2, 1e6, -1e6],
            ]
        )
        ours = np.array([_logistic(float(x)) for x in xs])
        np.testing.assert_array_equal(ours.view(np.int64), expit(xs).view(np.int64))

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(adaptok.__file__))
        code = (
            "import sys, adaptok; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"
