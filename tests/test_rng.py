"""Tests for the deterministic scenario sampler."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import localzeta
from localzeta.exact import rat
from localzeta.localfield import SplittingSymbol
from localzeta.rng import SplitMix64, draw_scenario, scenario_stream


# First outputs of SplitMix64 from seed 0, fixed by the algorithm.  These
# pin the implementation against accidental drift in the mixing constants.
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


class TestSplitMix64:
    def test_known_stream(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(5)] == SEED0_OUTPUTS

    def test_seed_masked(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_below_range(self):
        rng = SplitMix64(3)
        draws = [rng.below(7) for _ in range(200)]
        assert all(0 <= d < 7 for d in draws)
        assert len(set(draws)) == 7

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)

    def test_integer_bounds(self):
        rng = SplitMix64(4)
        draws = [rng.randint(-3, 3) for _ in range(300)]
        assert set(draws) == set(range(-3, 4))

    def test_nonzero_integer(self):
        rng = SplitMix64(5)
        assert all(rng.nonzero_integer(-2, 2) != 0 for _ in range(200))

    def test_nonzero_rational(self):
        rng = SplitMix64(6)
        for _ in range(100):
            value = rng.nonzero_rational(bound=6, max_den=4)
            assert value != 0
            assert abs(value) <= 6

    def test_sign(self):
        rng = SplitMix64(7)
        signs = {rng.sign() for _ in range(50)}
        assert signs == {-1, 1}


class TestDrawScenario:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("symbol", list(SplittingSymbol))
    def test_admissible(self, q, symbol):
        rng = SplitMix64(99)
        for _ in range(20):
            sc = draw_scenario(rng, symbol, q)
            assert sc.q == q
            assert sc.local.symbol is symbol
            assert sc.local.lambda_piF == sc.sat.omega_pi_piF

    def test_ramified_square_relation(self):
        rng = SplitMix64(100)
        for _ in range(20):
            sc = draw_scenario(rng, SplittingSymbol.RAMIFIED, 3)
            assert sc.local.lambda_piL**2 == sc.local.lambda_piF

    def test_split_product_relation(self):
        rng = SplitMix64(101)
        for _ in range(20):
            sc = draw_scenario(rng, SplittingSymbol.SPLIT, 2)
            assert (
                sc.local.lambda_piL * sc.local.lambda_piF_over_piL
                == sc.local.lambda_piF
            )

    def test_stream_deterministic(self):
        a = list(scenario_stream(42, SplittingSymbol.INERT, 3, 5))
        b = list(scenario_stream(42, SplittingSymbol.INERT, 3, 5))
        assert [sc.sat.gamma for sc in a] == [sc.sat.gamma for sc in b]
        assert [sc.st.omega_piF for sc in a] == [sc.st.omega_piF for sc in b]

    def test_streams_differ_across_classes(self):
        a = next(iter(scenario_stream(42, SplittingSymbol.INERT, 3, 1)))
        b = next(iter(scenario_stream(42, SplittingSymbol.SPLIT, 3, 1)))
        assert a.sat.gamma != b.sat.gamma or a.st.omega_piF != b.st.omega_piF


PACKAGE_MODULES = (
    "exact", "localfield", "satake", "sugano", "kernels", "cosets",
    "zeta", "rng", "arch", "assembly", "cli",
)


def test_every_module_imports_first():
    # rng imports zeta, which imports cosets, so cosets may import rng only
    # at call time; a fresh package per module catches any cycle.
    script = (
        "import importlib, sys\n"
        f"for name in {PACKAGE_MODULES!r}:\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'localzeta']:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module('localzeta.' + name)\n"
    )
    src = str(Path(localzeta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
