"""The Mantle environment (paper Table 2): formulas, bindings, targets."""

import math

import pytest

from repro.core.environment import (
    build_decision_bindings,
    compile_mdsload,
    compile_metaload,
    extract_targets,
)
from repro.luapolicy import LuaRuntimeError, run_policy
from repro.namespace.counters import OP_KINDS


def snapshot(**values):
    base = {kind: 0.0 for kind in OP_KINDS}
    base.update(values)
    return base


class TestMetaloadCompilation:
    def test_cephfs_formula(self):
        fn = compile_metaload("IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE")
        assert fn(snapshot(IRD=1, IWR=2, READDIR=3, FETCH=4, STORE=5)) == 36.0

    def test_single_metric(self):
        fn = compile_metaload("IWR")
        assert fn(snapshot(IWR=7)) == 7.0

    def test_unknown_metric_raises(self):
        fn = compile_metaload("BOGUS + 1")
        with pytest.raises(LuaRuntimeError):
            fn(snapshot())

    def test_complex_formula_falls_back_to_interpreter(self):
        fn = compile_metaload("max(IRD, IWR) + math.floor(READDIR)")
        assert fn(snapshot(IRD=2, IWR=9, READDIR=3.7)) == 12.0

    def test_non_numeric_result_raises(self):
        fn = compile_metaload('"text"')
        with pytest.raises(LuaRuntimeError):
            fn(snapshot())

    # Lua numbers are IEEE doubles: dividing by zero never raises.
    def test_division_by_zero_is_inf(self):
        fn = compile_metaload("IWR / IRD")
        assert fn(snapshot(IWR=3)) == math.inf
        assert fn(snapshot(IWR=-3)) == -math.inf

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(compile_metaload("IWR / IRD")(snapshot()))

    def test_modulo_by_zero_is_nan(self):
        assert math.isnan(compile_metaload("IWR % IRD")(snapshot(IWR=3)))


class TestMdsloadCompilation:
    METRICS = [
        {"auth": 100.0, "all": 120.0, "cpu": 90.0, "mem": 40.0,
         "q": 5.0, "req": 2000.0},
        {"auth": 10.0, "all": 15.0, "cpu": 10.0, "mem": 10.0,
         "q": 0.0, "req": 100.0},
    ]

    def test_cephfs_formula(self):
        fn = compile_mdsload(
            '0.8*MDSs[i]["auth"] + 0.2*MDSs[i]["all"] + MDSs[i]["req"]'
            ' + 10*MDSs[i]["q"]'
        )
        assert fn(self.METRICS, 0) == pytest.approx(
            0.8 * 100 + 0.2 * 120 + 2000 + 50
        )
        assert fn(self.METRICS, 1) == pytest.approx(
            0.8 * 10 + 0.2 * 15 + 100
        )

    def test_all_only(self):
        fn = compile_mdsload('MDSs[i]["all"]')
        assert fn(self.METRICS, 1) == 15.0

    def test_non_numeric_result_raises(self):
        fn = compile_mdsload("MDSs")
        with pytest.raises(LuaRuntimeError):
            fn(self.METRICS, 0)

    def test_division_by_zero_is_inf(self):
        fn = compile_mdsload('MDSs[i]["auth"] / MDSs[i]["q"]')
        assert fn(self.METRICS, 1) == math.inf

    def test_zero_over_zero_is_nan(self):
        fn = compile_mdsload('MDSs[i]["q"] / MDSs[i]["q"]')
        assert math.isnan(fn(self.METRICS, 1))

    def test_modulo_by_zero_is_nan(self):
        fn = compile_mdsload('MDSs[i]["auth"] % MDSs[i]["q"]')
        assert math.isnan(fn(self.METRICS, 1))


class TestDecisionBindings:
    def run_decision(self, source, whoami=0, metrics=None):
        metrics = metrics or [
            {"auth": 10, "all": 12, "cpu": 50, "mem": 10, "q": 1,
             "req": 100, "load": 30.0},
            {"auth": 1, "all": 1, "cpu": 5, "mem": 5, "q": 0,
             "req": 10, "load": 2.0},
        ]
        state = {}
        bindings = build_decision_bindings(
            whoami=whoami,
            mds_metrics=metrics,
            local_counters=snapshot(IWR=5, IRD=3),
            auth_metaload=8.0,
            all_metaload=9.0,
            wrstate=lambda v=None: state.__setitem__("s", v),
            rdstate=lambda: state.get("s"),
        )
        return run_policy(source, bindings)

    def test_whoami_is_one_based(self):
        result = self.run_decision("x = whoami", whoami=0)
        assert result.python_value("x") == 1.0

    def test_mds_array_one_based(self):
        result = self.run_decision('x = MDSs[1]["load"] y = #MDSs')
        assert result.python_value("x") == 30.0
        assert result.python_value("y") == 2.0

    def test_total_is_sum_of_loads(self):
        result = self.run_decision("x = total")
        assert result.python_value("x") == 32.0

    def test_local_metrics_bound(self):
        result = self.run_decision(
            "a = IWR b = IRD c = authmetaload d = allmetaload"
        )
        assert result.python_value("a") == 5.0
        assert result.python_value("b") == 3.0
        assert result.python_value("c") == 8.0
        assert result.python_value("d") == 9.0

    def test_wrstate_rdstate_roundtrip(self):
        result = self.run_decision("WRstate(3) x = RDstate()")
        assert result.python_value("x") == 3.0

    def test_targets_table_present(self):
        result = self.run_decision("targets[2] = 5.5")
        assert result.python_value("targets") == {2: 5.5}


class TestExtractTargets:
    def test_one_based_to_zero_based(self):
        assert extract_targets({1: 10.0, 3: 5.0}, 4) == {0: 10.0, 2: 5.0}

    def test_list_form(self):
        assert extract_targets([1.0, 2.0], 4) == {0: 1.0, 1: 2.0}

    def test_out_of_range_dropped(self):
        assert extract_targets({0: 5.0, 9: 5.0}, 4) == {}

    def test_non_positive_dropped(self):
        assert extract_targets({1: 0.0, 2: -3.0}, 4) == {}

    def test_garbage_dropped(self):
        assert extract_targets({"x": 1.0, 1: "y", 2.5: 3.0}, 4) == {}
        assert extract_targets("nonsense", 4) == {}
        assert extract_targets(None, 4) == {}

    def test_fractional_index_dropped(self):
        assert extract_targets({1.5: 3.0}, 4) == {}

    def test_float_integral_index_kept(self):
        assert extract_targets({2.0: 3.0}, 4) == {1: 3.0}
